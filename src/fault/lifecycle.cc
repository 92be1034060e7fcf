#include "fault/lifecycle.h"

#include <algorithm>
#include <functional>
#include <memory>

#include "fault/injector.h"
#include "harness/parallel.h"
#include "lg/link.h"
#include "monitor/corruptd.h"
#include "net/loss_model.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "telemetry/estimator.h"
#include "telemetry/probe.h"

namespace lgsim::fault {

LifecycleResult run_lifecycle(const LifecycleConfig& cfg) {
  const Scenario scenario = make_scenario(cfg.scenario);

  LifecycleResult res;
  res.scenario = scenario.name;
  res.seed = cfg.seed;
  res.onset_at = scenario.onset;

  Simulator sim;
  Rng rng(cfg.seed);

  lg::LinkSpec spec;
  spec.rate = cfg.rate;
  spec.name = "lifecycle";
  lg::LgConfig lgc = lg::tuned_for_rate(cfg.lg, cfg.rate);
  lg::ProtectedLink link(sim, spec, lgc);

  // The link starts healthy: a Gilbert-Elliott chain pinned out of the bad
  // state. The injector re-aims it (drive_rate / set_params / link flaps).
  net::GilbertElliottLoss::Params healthy;
  healthy.p_good_to_bad = 0.0;
  healthy.p_bad_to_good = 1.0 / std::max(1.0, cfg.mean_burst);
  healthy.loss_good = 0.0;
  healthy.loss_bad = 1.0;
  auto ge_owned =
      std::make_unique<net::GilbertElliottLoss>(healthy, rng.split());
  net::GilbertElliottLoss* ge = ge_owned.get();
  link.set_loss_model(std::move(ge_owned));

  // Estimator feed: a LinkProber on the sending switch, a sequence-window
  // estimator on the receiving one. Oracle cells construct NEITHER — the
  // prober would add events and loss-model RNG draws, and oracle runs must
  // stay byte-identical to the pre-telemetry code.
  const bool estimator_fed = cfg.feed == CounterFeed::kEstimator;
  std::unique_ptr<telemetry::SeqWindowEstimator> estimator;
  std::unique_ptr<telemetry::LinkProber> prober;
  if (estimator_fed) {
    telemetry::EstimatorConfig ec;
    ec.tau = cfg.probe_tau;
    ec.period = cfg.probe_period;
    // Enough slots to cover probe_tau.
    ec.window = cfg.probe_tau / std::max<SimTime>(1, cfg.probe_period) + 2;
    estimator = std::make_unique<telemetry::SeqWindowEstimator>(ec);
    telemetry::ProberConfig pc;
    pc.period = cfg.probe_period;
    pc.name = kProbeTarget;
    prober = std::make_unique<telemetry::LinkProber>(
        sim, pc, [&link](net::Packet&& p) { link.send_forward(std::move(p)); });
    prober->start();
  }

  // Per-uid delivery ground truth (and the probe tap when estimator-fed:
  // LinkGuardian never protects kProbe, so probes surface here whatever the
  // protection mode).
  std::vector<std::uint8_t> delivered;
  std::int64_t delivered_count = 0;
  // Interning mutates the sink's name table, so only estimator cells do it:
  // oracle cells must keep their trace bytes (names included) unchanged.
  const std::uint32_t probe_rx_actor =
      estimator_fed ? obs::intern_actor("estimator") : 0;
  link.set_forward_sink([&](net::Packet&& p) {
    if (p.kind == net::PktKind::kProbe && p.probe.valid) {
      if (estimator) {
        estimator->on_probe(p.probe.seq, p.probe.sent_at, sim.now());
        obs::emit(sim.now(), obs::Cat::kTelemetry, obs::Kind::kProbeRx,
                  probe_rx_actor, p.probe.seq, sim.now() - p.probe.sent_at);
      }
      return;
    }
    if (p.kind != net::PktKind::kData) return;
    if (p.uid >= delivered.size()) delivered.resize(p.uid + 1, 0);
    if (delivered[p.uid]) {
      ++res.duplicates;  // mode-switch edge: era replay, harmless
      return;
    }
    delivered[p.uid] = 1;
    ++delivered_count;
  });

  // Control plane: corruptd polls the forward port's counters and publishes
  // on a bus with a modelled Redis hop.
  monitor::PubSubBus bus;
  bus.bind(sim);
  bus.set_delay(cfg.bus_delay);

  monitor::CorruptdConfig mc;
  mc.poll_period = cfg.poll_period;
  mc.window_frames = cfg.window_frames;
  mc.threshold = cfg.detect_threshold;
  mc.renotify_period = cfg.renotify_period;
  // Estimator counters are probe units (small), so the binding window must
  // be time, not a frame budget: stale probe evidence ages out at TAU and
  // recovery (AutoFallback stepping back up) stays observable.
  if (estimator_fed) mc.window_tau = cfg.probe_tau;
  monitor::Corruptd daemon(sim, mc, bus);
  if (estimator_fed) {
    // The oracle-free feed: framesRxAll = probes the recovered schedule says
    // were emitted, framesRxOk = distinct probes that actually arrived.
    telemetry::SeqWindowEstimator* est = estimator.get();
    Simulator* simp = &sim;
    daemon.add_port(
        {kLinkTarget,
         [est] { return est->cum_received(); },
         [est, simp] { return est->cum_expected(simp->now()); }});
  } else {
    daemon.add_port(
        {kLinkTarget,
         [&] { return link.forward_port().counters().delivered_frames; },
         [&] {
           const auto& c = link.forward_port().counters();
           return c.delivered_frames + c.corrupted_frames;
         }});
  }
  daemon.start();

  // AutoFallback owns the mode once protection first engages. Ordered <-> NB
  // flips live through set_preserve_order (sequence state preserved, buffer
  // handed off — never a disable/enable cycle, which would reset eras while
  // old-era frames are still in flight and mass-drop the new era as
  // duplicates). Only kOff disables; re-engaging from kOff is the clean
  // era switchover (all in-flight frames are unprotected by then).
  monitor::AutoFallback fallback(
      sim, cfg.fallback, [&] { return daemon.loss_rate(kLinkTarget); },
      [&](monitor::LgMode m) {
        if (m == monitor::LgMode::kOff) {
          if (link.lg_enabled()) link.disable_lg();
          return;
        }
        link.set_actual_loss_rate(
            std::max(1e-9, daemon.loss_rate(kLinkTarget)));
        const bool ordered = m == monitor::LgMode::kOrdered;
        if (link.lg_enabled()) {
          link.set_preserve_order(ordered);
        } else {
          link.set_preserve_order(ordered);
          link.enable_lg();
        }
      });
  bool fallback_started = false;

  // Activation: first delivered notification enables LinkGuardian with the
  // Eq. 2 copy count; renotifications (renotify_period) are idempotent.
  std::int64_t sent = 0;
  std::int64_t engage_watermark = -1;
  monitor::LgActivator activator(bus, cfg.lg_target_loss);
  activator.watch(kLinkTarget, [&](int copies) {
    if (link.lg_enabled() || fallback_started) return;
    link.set_actual_loss_rate(activator.records().back().measured_loss);
    res.retx_copies = copies;
    link.enable_lg();
    res.engaged_at = sim.now();
    engage_watermark = sent;
    if (cfg.auto_fallback) {
      fallback.start(monitor::LgMode::kOrdered);
      fallback_started = true;
    }
  });

  // Scripted faults.
  FaultInjector injector(sim, scenario.script);
  injector.add_link(kLinkTarget, ge);
  injector.add_bus(kBusTarget, &bus);
  injector.add_monitor(kMonitorTarget, &daemon);
  if (prober) injector.add_prober(kProbeTarget, prober.get());
  injector.arm();

  // Traffic: paced injection at offered_load x line rate, one
  // self-rescheduling event. Stops `drain` before the horizon so in-flight
  // frames settle inside the run.
  const double gap =
      static_cast<double>((cfg.frame_bytes + kEthernetPreamble + kEthernetIfg) *
                          8) *
      1e9 / (static_cast<double>(cfg.rate) * cfg.offered_load);
  const SimTime stop_inject = scenario.horizon - cfg.drain;
  delivered.reserve(
      static_cast<std::size_t>(static_cast<double>(stop_inject) / gap) + 8);
  std::function<void()> inject = [&] {
    net::Packet p;
    p.kind = net::PktKind::kData;
    p.frame_bytes = cfg.frame_bytes;
    p.uid = static_cast<std::uint64_t>(sent);
    p.created_at = sim.now();
    link.send_forward(std::move(p));
    ++sent;
    const SimTime next =
        static_cast<SimTime>(gap * static_cast<double>(sent));
    if (next <= stop_inject) sim.schedule_at(next, [&] { inject(); });
  };
  sim.schedule_at(0, [&] { inject(); });

  sim.schedule_at(scenario.horizon, [&] {
    daemon.stop();
    fallback.stop();
    if (prober) prober->stop();
    if (estimator) {
      const telemetry::LossEstimate e = estimator->estimate(sim.now());
      res.estimate_known = e.known;
      res.estimate_rate = e.rate;
      obs::emit(sim.now(), obs::Cat::kTelemetry, obs::Kind::kEstimate,
                probe_rx_actor, static_cast<std::int64_t>(e.rate * 1e9),
                e.samples, e.known ? 1 : 0);
    }
  });
  sim.run(scenario.horizon + msec(10));

  // Loss split at the engagement watermark.
  res.offered = sent;
  res.delivered = delivered_count;
  res.lost_total = res.offered - res.delivered;
  if (delivered.size() < static_cast<std::size_t>(sent))
    delivered.resize(static_cast<std::size_t>(sent), 0);
  for (std::int64_t uid = 0; uid < sent; ++uid) {
    if (delivered[static_cast<std::size_t>(uid)]) continue;
    if (engage_watermark >= 0 && uid >= engage_watermark) {
      ++res.lost_after_protection;
    } else {
      ++res.lost_before_protection;
    }
  }

  res.wire_corrupted = link.forward_port().counters().corrupted_frames;
  if (!bus.history().empty()) {
    res.detected_at = bus.history().front().at;
    res.detection_latency = res.detected_at - scenario.onset;
  }
  res.notifications = bus.counters().published;
  res.notifications_dropped = bus.counters().dropped;
  res.polls = daemon.polls();
  res.stalled_polls = daemon.stalled_polls();
  res.faults_applied = injector.stats().applied;
  res.ramp_steps = injector.stats().ramp_steps;
  if (prober) {
    res.probes_sent = prober->sent();
    res.probes_suppressed = prober->suppressed();
  }
  if (estimator) res.probes_rx = estimator->received();
  res.mode_changes = fallback.changes();
  res.lg_enabled_at_end = link.lg_enabled();
  if (fallback_started) {
    res.final_mode = fallback.mode();
  } else if (link.lg_enabled()) {
    res.final_mode = link.preserve_order() ? monitor::LgMode::kOrdered
                                           : monitor::LgMode::kNonBlocking;
  } else {
    res.final_mode = monitor::LgMode::kOff;
  }

  // Snapshot into the run's trace sink (per-cell when run under a
  // TraceCollector grid): the components die with this function.
  if (obs::TraceSink* sink = obs::current_sink()) {
    obs::MetricsRegistry& m = sink->metrics();
    sim.export_metrics(m);
    link.forward_port().export_metrics(m);
    m.counter("lifecycle.offered") = res.offered;
    m.counter("lifecycle.delivered") = res.delivered;
    m.counter("lifecycle.lost_before") = res.lost_before_protection;
    m.counter("lifecycle.lost_after") = res.lost_after_protection;
    m.counter("lifecycle.faults_applied") = res.faults_applied;
    m.counter("lifecycle.mode_changes") =
        static_cast<std::int64_t>(res.mode_changes.size());
    if (estimator_fed) {
      m.counter("telemetry.probes_sent") = res.probes_sent;
      m.counter("telemetry.probes_rx") = res.probes_rx;
      m.counter("telemetry.probes_suppressed") = res.probes_suppressed;
      m.counter("telemetry.estimate_ppb") =
          static_cast<std::int64_t>(res.estimate_rate * 1e9);
    }
  }
  return res;
}

std::vector<LifecycleResult> run_lifecycle_grid(
    const std::vector<LifecycleConfig>& grid) {
  return harness::run_grid(grid, run_lifecycle);
}

}  // namespace lgsim::fault
