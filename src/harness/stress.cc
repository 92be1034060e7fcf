#include "harness/stress.h"

#include <cmath>
#include <functional>
#include <stdexcept>
#include <string>

#include "obs/trace.h"

namespace lgsim::harness {

namespace {

void validate(const StressConfig& cfg) {
  const auto fail = [](const char* what) {
    throw std::invalid_argument(std::string("StressConfig: ") + what);
  };
  if (cfg.rate <= 0) fail("rate must be > 0");
  if (cfg.packets < 0) fail("packets must be >= 0");
  if (cfg.frame_bytes <= 0) fail("frame_bytes must be > 0");
  if (cfg.sample_period <= 0) fail("sample_period must be > 0");
  if (!(cfg.loss_rate >= 0.0 && cfg.loss_rate < 1.0))
    fail("loss_rate must be in [0, 1)");
  if (!(cfg.mean_burst >= 1.0)) fail("mean_burst must be >= 1");
}

}  // namespace

StressResult run_stress(const StressConfig& cfg) {
  validate(cfg);
  Simulator sim;

  lg::LinkSpec spec;
  spec.rate = cfg.rate;
  spec.name = "stress";
  spec.normal_queue_bytes = 2'000'000;

  lg::LgConfig lgc =
      cfg.tune_for_rate ? lg::tuned_for_rate(cfg.lg, cfg.rate) : cfg.lg;
  lgc.actual_loss_rate = cfg.loss_rate;

  lg::ProtectedLink link(sim, spec, lgc);
  Rng rng(cfg.seed);
  if (cfg.mean_burst <= 1.0) {
    link.set_loss_model(
        std::make_unique<net::BernoulliLoss>(cfg.loss_rate, rng.split()));
  } else {
    link.set_loss_model(std::make_unique<net::GilbertElliottLoss>(
        net::GilbertElliottLoss::for_rate(cfg.loss_rate, cfg.mean_burst),
        rng.split()));
  }

  StressResult res;
  SimTime last_delivery = 0;
  link.set_forward_sink([&](net::Packet&&) {
    ++res.forwarded;
    last_delivery = sim.now();
  });

  if (cfg.enable_lg) link.enable_lg();

  // Trace counter series, interned once up front (all ids are 0 when no sink
  // is installed and the emits below are no-ops). The sampler publishes one
  // sample per series per period, spanning every subsystem category so a
  // single stress trace paints the whole picture in Perfetto: event-loop
  // health (sim), LG buffer occupancy (lg), backpressure state (pfc),
  // offered/delivered load (transport), and the control-plane loss estimate
  // a corruptd poll of this port would compute (monitor).
  const bool tracing = obs::current_sink() != nullptr;
  const std::uint32_t tr_heap = obs::intern_actor("sim.pending_events");
  const std::uint32_t tr_exec = obs::intern_actor("sim.events_executed");
  const std::uint32_t tr_txbuf = obs::intern_actor("lg.tx_buffer_bytes");
  const std::uint32_t tr_rxbuf = obs::intern_actor("lg.rx_buffer_bytes");
  const std::uint32_t tr_paused = obs::intern_actor("pfc.backpressured");
  const std::uint32_t tr_offered = obs::intern_actor("transport.offered_frames");
  const std::uint32_t tr_fwd = obs::intern_actor("transport.forwarded_frames");
  const std::uint32_t tr_loss = obs::intern_actor("monitor.wire_loss_ppm");
  const std::uint32_t tr_flow = obs::intern_actor("stress.injector");

  // Inject at exactly line rate (fractional nanosecond pacing), one
  // self-rescheduling event so the heap stays O(1) regardless of run length.
  const double spacing =
      static_cast<double>((cfg.frame_bytes + kEthernetPreamble + kEthernetIfg) * 8) *
      1e9 / static_cast<double>(cfg.rate);
  std::int64_t sent = 0;
  std::function<void()> inject = [&] {
    if (sent >= cfg.packets) return;
    if (sent == 0)
      obs::emit(sim.now(), obs::Cat::kTransport, obs::Kind::kFlowStart,
                tr_flow, cfg.packets * cfg.frame_bytes, cfg.packets);
    net::Packet p;
    p.kind = net::PktKind::kData;
    p.frame_bytes = cfg.frame_bytes;
    p.uid = static_cast<std::uint64_t>(sent);
    link.send_forward(std::move(p));
    ++sent;
    if (sent < cfg.packets) {
      sim.schedule_at(static_cast<SimTime>(spacing * static_cast<double>(sent)),
                      [&] { inject(); });
    } else {
      obs::emit(sim.now(), obs::Cat::kTransport, obs::Kind::kFlowEnd, tr_flow,
                sent * cfg.frame_bytes, sent);
    }
  };
  sim.schedule_at(0, [&] { inject(); });
  res.offered_pkts = cfg.packets;

  // Periodic buffer sampling (what the control-plane API polls for Fig. 14).
  PeriodicTask sampler(sim, cfg.sample_period, [&](SimTime now) {
    res.tx_buffer_bytes.add(static_cast<double>(link.sender().tx_buffer_bytes()));
    res.rx_buffer_bytes.add(static_cast<double>(link.receiver().reorder_buffer_bytes()));
    if (tracing) {
      obs::emit_counter(now, obs::Cat::kSim, tr_heap,
                        static_cast<std::int64_t>(sim.pending()));
      obs::emit_counter(now, obs::Cat::kSim, tr_exec,
                        static_cast<std::int64_t>(sim.total_executed()));
      obs::emit_counter(now, obs::Cat::kLg, tr_txbuf,
                        link.sender().tx_buffer_bytes());
      obs::emit_counter(now, obs::Cat::kLg, tr_rxbuf,
                        link.receiver().reorder_buffer_bytes());
      obs::emit_counter(now, obs::Cat::kPfc, tr_paused,
                        link.receiver().backpressured() ? 1 : 0);
      obs::emit_counter(now, obs::Cat::kTransport, tr_offered, sent);
      obs::emit_counter(now, obs::Cat::kTransport, tr_fwd, res.forwarded);
      // What corruptd would estimate from this port's counters (ppm).
      const auto& pc = link.forward_port().counters();
      const std::int64_t all = pc.corrupted_frames + pc.delivered_frames;
      obs::emit_counter(now, obs::Cat::kMonitor, tr_loss,
                        all > 0 ? pc.corrupted_frames * 1'000'000 / all : 0);
    }
  });
  sampler.start(cfg.sample_period);
  const SimTime horizon =
      static_cast<SimTime>(spacing * static_cast<double>(cfg.packets)) + msec(5);
  sim.schedule_at(horizon, [&] { sampler.stop(); });

  sim.run(horizon + msec(5));

  const auto& ss = link.sender().stats();
  const auto& rs = link.receiver().stats();
  const auto& pc = link.forward_port().counters();

  res.protected_sent = cfg.enable_lg ? ss.protected_sent : cfg.packets;
  res.corrupted_frames = pc.corrupted_frames;
  res.effectively_lost = cfg.enable_lg
                             ? rs.effectively_lost
                             : cfg.packets - res.forwarded;
  res.timeouts = rs.timeouts;
  res.retx_copies_sent = ss.retx_copies_sent;
  res.pauses = rs.pauses_sent;
  res.elapsed = last_delivery;

  // Measured wire loss on original data frames: gaps detected plus tail
  // losses equal reported_lost when LG runs; otherwise use the port counter.
  res.data_frames_lost = cfg.enable_lg ? rs.reported_lost
                                       : pc.corrupted_frames;
  res.actual_loss_rate =
      res.protected_sent > 0
          ? static_cast<double>(res.data_frames_lost) /
                static_cast<double>(res.protected_sent)
          : 0.0;
  res.effective_loss_rate =
      res.protected_sent > 0
          ? static_cast<double>(res.effectively_lost) /
                static_cast<double>(res.protected_sent)
          : 0.0;
  const int n = lgc.n_retx_copies();
  res.analytic_loss_rate = std::pow(cfg.loss_rate, n + 1);

  // Effective link speed: delivered normal frames x their nominal wire size
  // over the elapsed wall time, as a fraction of line rate.
  if (res.elapsed > 0) {
    const double delivered_bits =
        static_cast<double>(res.forwarded) *
        static_cast<double>((cfg.frame_bytes + kEthernetPreamble + kEthernetIfg) * 8);
    res.effective_speed_frac =
        delivered_bits / (to_sec(res.elapsed) * static_cast<double>(cfg.rate));
  }

  // Recirculation overhead: loop traversals per second vs pipe capacity.
  if (res.elapsed > 0) {
    res.recirc_overhead_tx_frac =
        static_cast<double>(ss.recirc_loops) / to_sec(res.elapsed) /
        lg::kPipeCapacityPps;
    res.recirc_overhead_rx_frac =
        static_cast<double>(rs.recirc_loops) / to_sec(res.elapsed) /
        lg::kPipeCapacityPps;
  }

  // Final metrics snapshot into the run's sink: the components die with this
  // function, so their counters are pushed (not polled) into the registry
  // the per-cell sink keeps alive until export.
  if (obs::TraceSink* sink = obs::current_sink()) {
    obs::MetricsRegistry& m = sink->metrics();
    sim.export_metrics(m);
    link.forward_port().export_metrics(m);
    link.reverse_port().export_metrics(m);
    m.counter("stress.offered_pkts") = res.offered_pkts;
    m.counter("stress.forwarded") = res.forwarded;
    m.counter("stress.corrupted_frames") = res.corrupted_frames;
    m.counter("lg.retx_copies_sent") = ss.retx_copies_sent;
    m.counter("lg.recovered") = rs.recovered;
    m.counter("lg.effectively_lost") = rs.effectively_lost;
    m.counter("lg.timeouts") = rs.timeouts;
    m.counter("lg.pauses_sent") = rs.pauses_sent;
    m.counter("lg.resumes_sent") = rs.resumes_sent;
  }

  // Move the distribution trackers out.
  res.retx_delay_us = link.receiver().mutable_stats().retx_delay_us;
  return res;
}

}  // namespace lgsim::harness
