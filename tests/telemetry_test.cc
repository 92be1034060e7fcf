// Test battery for the probe-based loss telemetry subsystem (src/telemetry):
//
//  - property tests of SeqWindowEstimator against a brute-force reference
//    under random loss / reorder / duplication, including 16-bit seqno
//    wraparound and window-boundary eviction;
//  - estimate age / decay / monotone-counter invariants;
//  - LinkProber datapath: probes traverse a real ProtectedLink (LG on and
//    off) and the probe-stall fault hook freezes the sequence;
//  - the differential oracle-vs-estimator run over the full fault-scenario
//    catalogue: identical eventual protection decisions, bounded extra
//    detection latency, zero missed detections;
//  - grid determinism: estimator-fed cells reproduce exactly through
//    harness::run_grid.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "fault/lifecycle.h"
#include "fault/scenarios.h"
#include "lg/link.h"
#include "net/loss_model.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "telemetry/drops.h"
#include "telemetry/estimator.h"
#include "telemetry/probe.h"

namespace lgsim::telemetry {
namespace {

// ------------------------------------------------------------- estimator --

// Brute-force reference: the literal definition of the estimate, computed
// from a flat log of every delivered (virtual seq, sent_at) pair.
struct Reference {
  struct Rx {
    std::int64_t virt;
    SimTime sent_at;
  };
  std::vector<Rx> log;
  SimTime last_rx_at = -1;

  void deliver(std::int64_t virt, SimTime sent_at, SimTime now) {
    for (const Rx& r : log)
      if (r.virt == virt) return;  // duplicate
    log.push_back({virt, sent_at});
    last_rx_at = now;
  }

  std::int64_t samples_in(SimTime after, SimTime upto,
                          std::int64_t slots) const {
    // Only the newest `slots` distinct seqs are remembered by the real
    // estimator; older ones were evicted by slot collision.
    std::int64_t max_virt = -1;
    for (const Rx& r : log) max_virt = std::max(max_virt, r.virt);
    std::int64_t n = 0;
    for (const Rx& r : log) {
      if (r.virt <= max_virt - slots) continue;  // evicted by wraparound
      if (r.sent_at > after && r.sent_at <= upto) ++n;
    }
    return n;
  }
};

struct StreamParams {
  double loss;
  double reorder;    // probability a delivery is delayed behind the next
  double duplicate;  // probability a delivered probe arrives twice
};

class EstimatorRandomized
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(EstimatorRandomized, MatchesBruteForceUnderLossReorderDuplication) {
  const int seed = std::get<0>(GetParam());
  const int variant = std::get<1>(GetParam());
  const StreamParams params[] = {
      {0.0, 0.0, 0.0},  {0.01, 0.0, 0.0},  {0.2, 0.0, 0.0},
      {0.01, 0.1, 0.0}, {0.01, 0.0, 0.1},  {0.1, 0.2, 0.2},
  };
  const StreamParams pr = params[variant % 6];

  EstimatorConfig cfg;
  cfg.tau = usec(500);
  cfg.period = usec(10);
  cfg.window = 64;  // tau/period = 50 in-window probes, slots = 64
  SeqWindowEstimator est(cfg);
  Reference ref;

  std::mt19937_64 rng(static_cast<std::uint64_t>(seed) * 6364136223846793005ULL +
                      1442695040888963407ULL);
  std::uniform_real_distribution<double> u(0.0, 1.0);

  // Start the virtual sequence near the 16-bit wrap so every variant also
  // exercises wraparound: virt 0 maps to wire seq 65500.
  const std::uint16_t wire_base = 65500;
  const SimTime path_delay = usec(1);

  struct Pending {
    std::int64_t virt;
    SimTime sent_at;
    SimTime rx_at;
    int copies;
  };
  std::vector<Pending> arrivals;
  const std::int64_t n_probes = 3000;  // ~46 wire-seq wraps past 65535
  for (std::int64_t v = 0; v < n_probes; ++v) {
    const SimTime sent = (v + 1) * cfg.period;  // prober fires at period, 2p..
    if (u(rng) < pr.loss) continue;
    SimTime rx = sent + path_delay;
    if (u(rng) < pr.reorder) rx += cfg.period;  // lands behind the next probe
    const int copies = u(rng) < pr.duplicate ? 2 : 1;
    arrivals.push_back({v, sent, rx, copies});
  }
  std::stable_sort(arrivals.begin(), arrivals.end(),
                   [](const Pending& a, const Pending& b) {
                     return a.rx_at < b.rx_at;
                   });

  SimTime now = 0;
  std::int64_t checked = 0;
  for (const Pending& a : arrivals) {
    now = a.rx_at;
    const auto wire =
        static_cast<std::uint16_t>(wire_base + static_cast<std::uint16_t>(a.virt));
    for (int c = 0; c < a.copies; ++c) est.on_probe(wire, a.sent_at, now);
    ref.deliver(a.virt, a.sent_at, now);

    const LossEstimate e = est.estimate(now);
    ASSERT_TRUE(est.schedule_known());
    // The recovered origin is exact: sent_at - virt*period == period... but
    // the estimator unwraps from wire_base, so its virt is offset by a
    // constant — the schedule (tick times) is identical either way.
    const std::int64_t want_samples =
        ref.samples_in(now - cfg.tau, now, est.window_slots());
    EXPECT_EQ(e.samples, want_samples) << "virt=" << a.virt << " now=" << now;
    EXPECT_LE(e.samples, e.expected);
    EXPECT_GE(e.rate, 0.0);
    EXPECT_LE(e.rate, 1.0);
    EXPECT_EQ(e.age, 0) << "age must be zero at the receive instant";
    if (e.known) {
      const double want_rate =
          1.0 - static_cast<double>(want_samples) /
                    static_cast<double>(e.expected);
      EXPECT_NEAR(e.rate, std::clamp(want_rate, 0.0, 1.0), 1e-12);
    }
    ++checked;
  }
  ASSERT_GT(checked, 1000);
  // `received` counts distinct probes only; duplicate copies land in the
  // duplicates counter instead.
  EXPECT_EQ(est.received(), static_cast<std::int64_t>(arrivals.size()));
  if (pr.duplicate > 0.0) {
    EXPECT_GT(est.duplicates(), 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Streams, EstimatorRandomized,
    ::testing::Combine(::testing::Values(1, 2, 3, 4),
                       ::testing::Values(0, 1, 2, 3, 4, 5)),
    [](const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
      std::ostringstream os;
      os << "seed" << std::get<0>(info.param) << "_variant"
         << std::get<1>(info.param);
      return os.str();
    });

TEST(Estimator, UnknownBeforeFirstProbeAndZeroExpected) {
  SeqWindowEstimator est({msec(1), usec(10), 128});
  const LossEstimate e = est.estimate(msec(5));
  EXPECT_FALSE(e.known);
  EXPECT_EQ(e.samples, 0);
  EXPECT_EQ(e.expected, 0);
  EXPECT_EQ(e.age, -1);
  EXPECT_EQ(est.cum_expected(msec(5)), 0);
  EXPECT_EQ(est.cum_received(), 0);
}

TEST(Estimator, ExactCountsOnCleanPeriodicStream) {
  EstimatorConfig cfg{msec(1), usec(10), 128};  // 100 probes per tau
  SeqWindowEstimator est(cfg);
  for (std::int64_t v = 0; v < 500; ++v)
    est.on_probe(static_cast<std::uint16_t>(v), (v + 1) * cfg.period,
                 (v + 1) * cfg.period);
  const SimTime now = 500 * cfg.period;
  const LossEstimate e = est.estimate(now);
  ASSERT_TRUE(e.known);
  // Window (now - tau, now] covers ticks 401..500: exactly 100 emissions,
  // all received.
  EXPECT_EQ(e.expected, 100);
  EXPECT_EQ(e.samples, 100);
  EXPECT_EQ(e.rate, 0.0);
  // Cumulative: every emission tick up to now, all received.
  EXPECT_EQ(est.cum_expected(now), 500);
  EXPECT_EQ(est.cum_received(), 500);
}

TEST(Estimator, DeterministicPatternLossIsExact) {
  // Every 10th probe lost -> the windowed rate is exactly 0.1 once the
  // window is full (convergence is deterministic, not statistical).
  EstimatorConfig cfg{msec(1), usec(10), 128};
  SeqWindowEstimator est(cfg);
  for (std::int64_t v = 0; v < 1000; ++v) {
    if (v % 10 == 9) continue;
    est.on_probe(static_cast<std::uint16_t>(v), (v + 1) * cfg.period,
                 (v + 1) * cfg.period);
  }
  const SimTime now = 1000 * cfg.period;
  const LossEstimate e = est.estimate(now);
  ASSERT_TRUE(e.known);
  EXPECT_EQ(e.expected, 100);
  EXPECT_EQ(e.samples, 90);
  EXPECT_NEAR(e.rate, 0.1, 1e-12);
}

TEST(Estimator, AgeGrowsAndWindowDecaysAfterSilence) {
  EstimatorConfig cfg{msec(1), usec(10), 128};
  SeqWindowEstimator est(cfg);
  for (std::int64_t v = 0; v < 200; ++v)
    est.on_probe(static_cast<std::uint16_t>(v), (v + 1) * cfg.period,
                 (v + 1) * cfg.period);
  const SimTime last = 200 * cfg.period;

  // Silence (total loss): age advances linearly, samples decay to zero as
  // the window slides past the last receipt, and the rate climbs to 1.
  SimTime prev_age = -1;
  std::int64_t prev_samples = 1 << 30;
  for (SimTime now = last; now <= last + 3 * cfg.tau; now += cfg.tau / 4) {
    const LossEstimate e = est.estimate(now);
    EXPECT_EQ(e.age, now - last);
    EXPECT_GT(e.age, prev_age);
    prev_age = e.age;
    EXPECT_LE(e.samples, prev_samples) << "samples must decay monotonically";
    prev_samples = e.samples;
    ASSERT_TRUE(e.known);  // the schedule still expects emissions
  }
  const LossEstimate end = est.estimate(last + 3 * cfg.tau);
  EXPECT_EQ(end.samples, 0);
  EXPECT_NEAR(end.rate, 1.0, 1e-12);
}

TEST(Estimator, SeqWrapAtWindowBoundary) {
  // The window straddles the 65535 -> 0 wrap exactly: unwrapping must keep
  // counting as if the sequence were 64-bit.
  EstimatorConfig cfg{msec(1), usec(10), 128};
  SeqWindowEstimator est(cfg);
  const std::int64_t start = 65536 - 50;  // 50 pre-wrap, then wrapped seqs
  for (std::int64_t v = start; v < start + 100; ++v)
    est.on_probe(static_cast<std::uint16_t>(v),
                 (v - start + 1) * cfg.period, (v - start + 1) * cfg.period);
  const SimTime now = 100 * cfg.period;
  const LossEstimate e = est.estimate(now);
  ASSERT_TRUE(e.known);
  EXPECT_EQ(e.expected, 100);
  EXPECT_EQ(e.samples, 100) << "wrap must not lose or double-count probes";
  EXPECT_EQ(e.rate, 0.0);
  EXPECT_EQ(est.received(), 100);
  EXPECT_EQ(est.duplicates(), 0);
}

TEST(Estimator, CumulativeCountersStayMonotoneAcrossSenderStall) {
  // Sender stalls: seq freezes while time runs, so on resume the recovered
  // origin jumps forward. The cumulative counters must never move backwards
  // (corruptd computes deltas from them) and ok must never exceed all.
  EstimatorConfig cfg{msec(1), usec(10), 128};
  SeqWindowEstimator est(cfg);
  std::int64_t v = 0;  // like the prober: seq 0 goes out at t = period
  SimTime t = 0;
  std::int64_t prev_exp = 0;
  auto step = [&](int probes) {
    for (int i = 0; i < probes; ++i) {
      t += cfg.period;
      est.on_probe(static_cast<std::uint16_t>(v), t, t);
      ++v;
      const std::int64_t exp = est.cum_expected(t);
      EXPECT_GE(exp, prev_exp) << "cum_expected went backwards";
      prev_exp = exp;
      EXPECT_LE(est.cum_received(), exp);
    }
  };
  step(300);
  t += msec(2);  // stall: 200 silent periods, seq frozen
  step(300);
  // The stall window contributed nothing: expected counts only real
  // emissions (600), not the 200 silent ticks.
  EXPECT_EQ(est.cum_received(), 600);
  EXPECT_EQ(est.cum_expected(t), 600);
}

// ----------------------------------------------------------- probe + link --

TEST(LinkProber, ProbesTraverseProtectedLinkAndBypassLg) {
  Simulator sim;
  lg::LinkSpec spec;
  spec.rate = gbps(25);
  lg::ProtectedLink link(sim, spec, lg::LgConfig{});

  ProberConfig pc;
  pc.period = usec(10);
  LinkProber prober(sim, pc,
                    [&](net::Packet&& p) { link.send_forward(std::move(p)); });

  EstimatorConfig ec{msec(1), pc.period, 256};
  SeqWindowEstimator est(ec);
  std::int64_t probe_rx = 0;
  link.set_forward_sink([&](net::Packet&& p) {
    if (p.kind != net::PktKind::kProbe) return;
    ASSERT_TRUE(p.probe.valid);
    est.on_probe(p.probe.seq, p.probe.sent_at, sim.now());
    ++probe_rx;
  });

  prober.start();
  sim.schedule_at(msec(1), [&] { link.enable_lg(); });  // probes unaffected
  sim.run(msec(3));

  EXPECT_EQ(prober.sent(), 300);  // fires at 10us..3000us (run is inclusive)
  // Lossless link: everything not still in flight at the cutoff arrived,
  // whether LG was enabled or not (probes are never protected).
  EXPECT_GE(probe_rx, prober.sent() - 2);
  // The windowed estimate extrapolates expectations from the schedule, so
  // evaluate behind a small guard to keep the last in-flight probe from
  // being misread as lost. (The lifecycle counter feed needs no guard: its
  // cumulative counters use sequence-gap accounting instead.)
  const LossEstimate e = est.estimate(sim.now() - usec(50));
  ASSERT_TRUE(e.known);
  EXPECT_EQ(e.rate, 0.0);
}

TEST(LinkProber, StallFreezesSequenceAndSuppressedCountsFires) {
  Simulator sim;
  std::vector<std::uint16_t> seqs;
  ProberConfig pc;
  pc.period = usec(10);
  LinkProber prober(sim, pc,
                    [&](net::Packet&& p) { seqs.push_back(p.probe.seq); });
  prober.start();
  sim.schedule_at(msec(1), [&] { prober.set_stalled(true); });
  sim.schedule_at(msec(2), [&] { prober.set_stalled(false); });
  sim.run(msec(3));

  EXPECT_EQ(prober.suppressed(), 100);  // fires at 1.00ms..1.99ms swallowed
  ASSERT_FALSE(seqs.empty());
  // Sequence continues where it froze: no gap injected by the stall itself.
  for (std::size_t i = 1; i < seqs.size(); ++i)
    EXPECT_EQ(seqs[i], static_cast<std::uint16_t>(seqs[i - 1] + 1));
}

TEST(DropAggregation, SeparatesCongestionFromWireLoss) {
  Simulator sim;
  Rng rng(7);
  net::EgressPort port(sim, "agg", gbps(25), /*prop_delay=*/0);
  const int q = port.add_queue({.byte_limit = 1518 * 10});
  net::BernoulliLoss loss(0.5, rng.split());
  port.set_loss_model(&loss);
  std::int64_t arrived = 0;
  port.set_deliver([&](net::Packet&&) { ++arrived; });

  auto frame = [] {
    net::Packet p;
    p.frame_bytes = 1518;
    return p;
  };
  // Burst at t=0: 100 frames into a 10-frame queue -> known tail drops.
  for (int i = 0; i < 100; ++i) port.enqueue(q, frame());
  // Then paced injection against an idle queue -> zero congestion drops,
  // pure wire loss at the Bernoulli rate.
  for (int i = 0; i < 1000; ++i)
    sim.schedule_at(usec(100) + i * usec(1), [&, q] { port.enqueue(q, frame()); });
  sim.run(msec(10));

  const DropReport r = aggregate_drops(port);
  EXPECT_GT(r.congestion_drops, 0);         // the burst tail
  EXPECT_GT(r.wire_corrupted, 0);           // the Bernoulli losses
  EXPECT_EQ(r.delivered, arrived);
  EXPECT_EQ(r.enq_frames, 1100 - r.congestion_drops);
  EXPECT_EQ(r.deq_frames, r.delivered + r.wire_corrupted);
  EXPECT_EQ(r.in_flight(), 0);              // fully drained
  EXPECT_NEAR(r.wire_loss_rate(), 0.5, 0.07);
}

// ------------------------------------------------- differential catalogue --

fault::LifecycleConfig estimator_cfg(const std::string& scenario,
                                     std::uint64_t seed) {
  fault::LifecycleConfig cfg;
  cfg.scenario = scenario;
  cfg.seed = seed;
  cfg.feed = fault::CounterFeed::kEstimator;
  return cfg;
}

TEST(Differential, OracleAndEstimatorAgreeOnEveryCatalogueScenario) {
  for (const std::string& name : fault::scenario_names()) {
    SCOPED_TRACE(name);
    fault::LifecycleConfig oracle;
    oracle.scenario = name;
    oracle.seed = 1;
    const fault::LifecycleResult o = fault::run_lifecycle(oracle);
    const fault::LifecycleResult e =
        fault::run_lifecycle(estimator_cfg(name, 1));

    // Zero missed detections: every scenario the oracle catches, the
    // estimator catches too.
    ASSERT_GE(o.engaged_at, 0) << "oracle missed " << name;
    ASSERT_GE(e.engaged_at, 0) << "estimator missed " << name;

    // No false activation: nothing engages before corruption starts.
    EXPECT_GE(o.engaged_at, o.onset_at);
    EXPECT_GE(e.engaged_at, e.onset_at);

    // Identical eventual protection decision, allowing bounded extra
    // detection latency for the estimator (probe sampling + the
    // probe-outage blind window are the slow cases).
    EXPECT_EQ(o.lg_enabled_at_end || o.final_mode != monitor::LgMode::kOff,
              e.lg_enabled_at_end || e.final_mode != monitor::LgMode::kOff);
    ASSERT_GE(o.detected_at, 0);
    ASSERT_GE(e.detected_at, 0);
    EXPECT_LE(e.detected_at - o.detected_at, msec(40))
        << "estimator detection lagged the oracle unreasonably";

    // Telemetry bookkeeping only exists on the estimator side.
    EXPECT_EQ(o.probes_sent, 0);
    EXPECT_GT(e.probes_sent, 0);
    EXPECT_GT(e.probes_rx, 0);
    EXPECT_LE(e.probes_rx, e.probes_sent);
    if (name == "probe-outage") {
      EXPECT_GT(e.probes_suppressed, 0) << "stall hook never fired";
      // Detection is blind until the probe stream resumes at 45 ms.
      EXPECT_GE(e.detected_at, msec(45));
    }

    // Convergence: with protection engaged the wire keeps corrupting
    // probes, so the estimator's view stays in the right decade for
    // steady-rate scenarios.
    if (name == "onset") {
      ASSERT_TRUE(e.estimate_known);
      EXPECT_GT(e.estimate_rate, 5e-5);
      EXPECT_LT(e.estimate_rate, 1e-2);
    }
  }
}

TEST(Differential, EstimatorGridIsDeterministicThroughRunGrid) {
  std::vector<fault::LifecycleConfig> grid;
  for (std::uint64_t seed : {1ULL, 2ULL}) {
    grid.push_back(estimator_cfg("onset", seed));
    grid.push_back(estimator_cfg("probe-outage", seed));
  }
  auto fingerprint = [](const std::vector<fault::LifecycleResult>& rows) {
    std::ostringstream os;
    for (const auto& r : rows) {
      os << r.scenario << ":" << r.seed << ":" << r.detected_at << ":"
         << r.engaged_at << ":" << r.offered << ":" << r.delivered << ":"
         << r.lost_total << ":" << r.probes_sent << ":" << r.probes_rx << ":"
         << r.probes_suppressed << ":" << r.estimate_rate << ":"
         << r.notifications << ";";
    }
    return os.str();
  };
  const auto a = fault::run_lifecycle_grid(grid);
  const auto b = fault::run_lifecycle_grid(grid);
  EXPECT_EQ(fingerprint(a), fingerprint(b));
}

}  // namespace
}  // namespace lgsim::telemetry
