// Integration tests for the experiment harnesses: these are scaled-down
// versions of the paper's experiments, checking the qualitative shape each
// figure relies on.
#include <gtest/gtest.h>

#include <cmath>
#include <iterator>
#include <stdexcept>

#include "harness/fct.h"
#include "harness/stress.h"
#include "harness/timeline.h"

namespace lgsim::harness {
namespace {

TEST(Stress, NoLossFullSpeed) {
  StressConfig c;
  c.loss_rate = 0.0;
  c.packets = 20'000;
  StressResult r = run_stress(c);
  EXPECT_EQ(r.forwarded, c.packets);
  EXPECT_EQ(r.effectively_lost, 0);
  // Only the 3-byte header (~0.2%) is lost to protocol overhead.
  EXPECT_GT(r.effective_speed_frac, 0.99);
  EXPECT_LT(r.effective_speed_frac, 1.01);
}

TEST(Stress, LossRecoveredAtLineRate) {
  StressConfig c;
  c.loss_rate = 1e-3;
  c.packets = 100'000;
  c.rate = gbps(100);
  StressResult r = run_stress(c);
  // The measured wire loss matches the configured rate.
  EXPECT_NEAR(r.actual_loss_rate, 1e-3, 4e-4);
  // Everything is recovered: zero (or vanishingly few) effective losses.
  EXPECT_LE(r.effectively_lost, 1);
  // Ordered mode at 100G / 1e-3 costs some effective link speed, but stays
  // above 85% (paper: ~92%).
  EXPECT_GT(r.effective_speed_frac, 0.85);
  EXPECT_LT(r.effective_speed_frac, 1.0);
  // Every loss got N=2 retransmission copies (Eq. 2 at 1e-3 -> 1e-8 target).
  EXPECT_EQ(r.retx_copies_sent, 2 * r.data_frames_lost);
  EXPECT_GT(r.retx_delay_us.count(), 50);
  EXPECT_LT(r.retx_delay_us.max(), 10.0);  // microseconds, sub-RTT
}

TEST(Stress, NonBlockingFasterThanOrdered) {
  StressConfig base;
  base.loss_rate = 1e-3;
  base.packets = 100'000;
  StressResult ordered = run_stress(base);
  StressConfig nb = base;
  nb.lg.preserve_order = false;
  StressResult r_nb = run_stress(nb);
  EXPECT_LE(r_nb.effectively_lost, 1);
  // LG_NB does not pause the link: higher effective speed than ordered LG.
  EXPECT_GT(r_nb.effective_speed_frac, ordered.effective_speed_frac - 0.005);
  EXPECT_GT(r_nb.effective_speed_frac, 0.97);
  // And it uses no RX reorder buffer at all.
  EXPECT_DOUBLE_EQ(r_nb.rx_buffer_bytes.max(), 0.0);
}

TEST(Stress, DisabledLgLosesPackets) {
  StressConfig c;
  c.loss_rate = 1e-3;
  c.packets = 50'000;
  c.enable_lg = false;
  StressResult r = run_stress(c);
  EXPECT_NEAR(r.effective_loss_rate, 1e-3, 5e-4);
}

TEST(Stress, RecirculationOverheadUnderOnePercent) {
  StressConfig c;
  c.loss_rate = 1e-3;
  c.packets = 50'000;
  StressResult r = run_stress(c);
  EXPECT_GT(r.recirc_overhead_tx_frac, 0.0);
  EXPECT_LT(r.recirc_overhead_tx_frac, 0.02);
  EXPECT_LT(r.recirc_overhead_rx_frac, 0.02);
}

// Each config run_stress cannot run is rejected up front, instead of looping
// forever (zero sample period), dividing by zero (certain loss with bursts)
// or returning all-zero rows (zero rate, negative packet count).
TEST(Stress, RejectsInvalidConfigs) {
  using Mutate = void (*)(StressConfig&);
  const Mutate bad[] = {
      [](StressConfig& c) { c.rate = 0; },
      [](StressConfig& c) { c.rate = -gbps(1); },
      [](StressConfig& c) { c.packets = -1; },
      [](StressConfig& c) { c.frame_bytes = 0; },
      [](StressConfig& c) { c.sample_period = 0; },
      [](StressConfig& c) { c.loss_rate = -1e-3; },
      [](StressConfig& c) { c.loss_rate = 1.0; },
      [](StressConfig& c) { c.loss_rate = 1.0; c.mean_burst = 1.5; },
      [](StressConfig& c) { c.loss_rate = std::nan(""); },
      [](StressConfig& c) { c.mean_burst = 0.5; },
  };
  for (std::size_t i = 0; i < std::size(bad); ++i) {
    StressConfig c;
    c.packets = 100;
    bad[i](c);
    EXPECT_THROW(run_stress(c), std::invalid_argument) << "case " << i;
  }
  StressConfig empty;
  empty.packets = 0;  // the boundary values themselves are valid
  empty.loss_rate = 0.0;
  EXPECT_EQ(run_stress(empty).forwarded, 0);
}

TEST(Fct, NoLossBaselineTight) {
  FctConfig c;
  c.trials = 200;
  c.flow_bytes = 143;
  c.protection = Protection::kNoLoss;
  FctResult r = run_fct(c);
  EXPECT_EQ(r.trials_capped, 0);
  EXPECT_LT(r.p(99.9), 60.0);  // microseconds
  EXPECT_GT(r.p(50), 15.0);
}

TEST(Fct, LossInflatesTailByOrdersOfMagnitude) {
  FctConfig c;
  c.trials = 3000;
  c.flow_bytes = 143;
  c.loss_rate = 1e-2;  // higher rate so the tail shows with fewer trials
  c.protection = Protection::kLossOnly;
  FctResult r = run_fct(c);
  EXPECT_GT(r.trials_with_wire_loss, 10);
  // Median unaffected; 99.9th percentile in the milliseconds (RTO).
  EXPECT_LT(r.p(50), 60.0);
  EXPECT_GT(r.p(99.9), 900.0);
}

TEST(Fct, LinkGuardianRestoresNoLossTail) {
  FctConfig c;
  c.trials = 3000;
  c.flow_bytes = 143;
  c.loss_rate = 1e-2;
  c.protection = Protection::kLg;
  FctResult r = run_fct(c);
  EXPECT_GT(r.trials_with_wire_loss, 10);
  EXPECT_EQ(r.trials_with_rto, 0);
  EXPECT_LT(r.p(99.9), 70.0);  // indistinguishable from no loss
}

TEST(Fct, RdmaLossTailAndLgRecovery) {
  FctConfig c;
  c.transport = Transport::kRdmaWrite;
  c.trials = 2000;
  c.flow_bytes = 24'387;
  c.loss_rate = 1e-2;
  c.protection = Protection::kLossOnly;
  FctResult loss = run_fct(c);
  EXPECT_GT(loss.p(99.9), 900.0);

  c.protection = Protection::kLg;
  FctResult lg = run_fct(c);
  EXPECT_EQ(lg.trials_with_rto, 0);
  EXPECT_LT(lg.p(99.9), 100.0);
}

TEST(Fct, NbClassificationPopulatesGroups) {
  FctConfig c;
  c.trials = 4000;
  c.flow_bytes = 24'387;
  c.loss_rate = 1e-2;
  c.protection = Protection::kLgNb;
  FctResult r = run_fct(c);
  EXPECT_GT(r.classes.affected, 10);
  EXPECT_EQ(r.classes.affected, r.classes.group_a + r.classes.group_b +
                                    r.classes.group_c + r.classes.group_d);
}

TEST(Timeline, LgRestoresThroughputAfterCorruption) {
  TimelineConfig c;
  c.rate = gbps(25);
  c.loss_rate = 1e-3;
  c.mean_burst = 1.0;  // Fig. 9a: independent random corruption
  c.t_corruption = msec(60);
  c.t_lg = msec(140);
  c.t_end = msec(240);
  c.sample_period = msec(2);
  TimelineResult r = run_timeline(c);
  const double before = r.goodput_before();
  const double during = r.goodput_during_loss();
  const double after = r.goodput_with_lg();
  EXPECT_GT(before, 20.0);  // near line rate
  // Corruption visibly degrades DCTCP throughput (the textbook loss-rate
  // equilibrium; the paper's kernel stack collapsed even further).
  EXPECT_LT(during, before * 0.8);
  EXPECT_GT(after, before * 0.9);  // LinkGuardian restores it
}

TEST(Timeline, RejectsRdmaTransport) {
  // The timeline drives one TCP flow: RDMA must be rejected, not run as
  // some TCP variant.
  TimelineConfig c;
  c.transport = Transport::kRdmaWrite;
  EXPECT_THROW(run_timeline(c), std::invalid_argument);
  EXPECT_THROW(tcp_config(Transport::kRdmaWrite), std::invalid_argument);
  EXPECT_EQ(tcp_config(Transport::kCubic).cc, transport::TcpCc::kCubic);
}

TEST(Timeline, RejectsInvalidConfigs) {
  using Mutate = void (*)(TimelineConfig&);
  const Mutate bad[] = {
      // A zero period re-arms the sampler at the same instant forever.
      [](TimelineConfig& c) { c.sample_period = 0; },
      [](TimelineConfig& c) { c.sample_period = -msec(1); },
      [](TimelineConfig& c) { c.mean_burst = 0.5; },
      [](TimelineConfig& c) { c.mean_burst = std::nan(""); },
      [](TimelineConfig& c) { c.loss_rate = -1e-3; },
      [](TimelineConfig& c) { c.loss_rate = 1.0; },
      [](TimelineConfig& c) { c.loss_rate = std::nan(""); },
      [](TimelineConfig& c) { c.t_end = 0; },
      [](TimelineConfig& c) { c.t_end = -msec(1); },
  };
  for (std::size_t i = 0; i < std::size(bad); ++i) {
    TimelineConfig c;
    bad[i](c);
    EXPECT_THROW(run_timeline(c), std::invalid_argument) << "case " << i;
  }
  // The boundary values themselves are valid.
  TimelineConfig edge;
  edge.loss_rate = 0.0;
  edge.mean_burst = 1.0;
  edge.t_corruption = usec(200);
  edge.t_lg = usec(400);
  edge.t_end = usec(600);
  edge.sample_period = usec(100);
  EXPECT_NO_THROW(run_timeline(edge));

  // A goodput window must be non-empty (an empty one divides by zero) and
  // start at or after time 0.
  LongFlow flow(long_flow_path(gbps(10), 0.0), Transport::kCubic);
  flow.start();
  EXPECT_THROW(flow.goodput_gbps(usec(100), usec(100)), std::invalid_argument);
  EXPECT_THROW(flow.goodput_gbps(usec(100), usec(50)), std::invalid_argument);
  EXPECT_THROW(flow.goodput_gbps(-usec(10), usec(50)), std::invalid_argument);
  EXPECT_GT(flow.goodput_gbps(usec(100), usec(500)), 0.0);
}

TEST(Timeline, NoBackpressureOverflowsReorderBuffer) {
  // Fig. 9b: without pause/resume the reordering backlog grows to the
  // recovery-stall equilibrium (~ackNoTimeout x line rate) and overflows the
  // recirculation budget; the overflow drops surface as end-to-end
  // retransmissions. With backpressure the buffer is hard-capped at
  // pauseThreshold. Our recovery model bounds the unpaused backlog tighter
  // than the testbed (see EXPERIMENTS.md), so the budget is scaled
  // proportionally (20 KB, thresholds 12/15 KB) to exercise the overflow.
  TimelineConfig c;
  c.rate = gbps(25);
  c.loss_rate = 5e-3;
  c.mean_burst = 2.5;
  c.backpressure = false;
  c.recirc_budget_bytes = 20'000;
  c.resume_threshold_bytes = 12'000;
  c.t_corruption = msec(40);
  c.t_lg = msec(100);
  c.t_end = msec(400);
  c.sample_period = msec(4);
  TimelineResult no_bp = run_timeline(c);
  TimelineConfig c2 = c;
  c2.backpressure = true;
  TimelineResult with_bp = run_timeline(c2);

  EXPECT_GT(no_bp.reorder_drops, 0);
  EXPECT_EQ(with_bp.reorder_drops, 0);
  const double cap = 12'000 + 2.0 * kEthernetMtu + 3.0 * 1521;  // + in-flight
  EXPECT_LE(with_bp.rx_buffer_bytes.max_in(0, c.t_end), cap);
  EXPECT_GT(no_bp.e2e_retx_total, with_bp.e2e_retx_total);
}

}  // namespace
}  // namespace lgsim::harness
