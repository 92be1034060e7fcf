// Tests for the §5 extensions: bidirectional corruption handling (reverse
// loss model + control-message redundancy) and automatic fallback.
#include <gtest/gtest.h>

#include <functional>
#include <memory>

#include "lg/link.h"
#include "monitor/fallback.h"
#include "net/loss_model.h"

namespace lgsim::lg {
namespace {

struct BidirHarness {
  Simulator sim;
  LgConfig cfg;
  LinkSpec spec;
  std::unique_ptr<ProtectedLink> link;
  std::int64_t delivered = 0;
  std::uint64_t last_uid = 0;
  bool ordered = true;

  BidirHarness() {
    spec.rate = gbps(100);
    spec.normal_queue_bytes = 400'000'000;  // whole run enqueued at t=0
    cfg.actual_loss_rate = 1e-3;
  }

  void make(double fwd_loss, double rev_loss) {
    link = std::make_unique<ProtectedLink>(sim, spec, cfg);
    link->set_loss_model(std::make_unique<net::BernoulliLoss>(fwd_loss, Rng(11)));
    if (rev_loss > 0) {
      link->set_reverse_loss_model(
          std::make_unique<net::BernoulliLoss>(rev_loss, Rng(13)));
    }
    link->set_forward_sink([this](net::Packet&& p) {
      if (delivered > 0 && p.uid <= last_uid) ordered = false;
      last_uid = p.uid;
      ++delivered;
    });
    link->enable_lg();
  }

  void inject(int n) {
    for (int i = 0; i < n; ++i) {
      net::Packet p;
      p.kind = net::PktKind::kData;
      p.frame_bytes = 1518;
      p.uid = static_cast<std::uint64_t>(i + 1);
      link->send_forward(std::move(p));
    }
  }
};

TEST(Bidirectional, ControlRedundancyMasksReverseLoss) {
  BidirHarness h;
  h.cfg.loss_notif_copies = 3;  // §5: multiple copies of control messages
  h.cfg.control_copies = 3;
  h.make(/*fwd=*/1e-3, /*rev=*/1e-3);
  h.inject(100'000);
  h.sim.run();
  const auto& rs = h.link->receiver().stats();
  EXPECT_EQ(h.delivered + rs.effectively_lost, 100'000);
  EXPECT_TRUE(h.ordered);
  // Forward recovery quality is unchanged by the reverse corruption.
  EXPECT_LE(rs.effectively_lost, 2);
  EXPECT_GT(rs.recovered, 50);
}

TEST(Bidirectional, WithoutRedundancyReverseLossHurtsRecovery) {
  // With single-copy notifications and a very lossy reverse channel, some
  // loss notifications vanish and the corresponding packets can only be
  // skipped by the ackNoTimeout (higher effective loss).
  BidirHarness strong;
  strong.cfg.loss_notif_copies = 3;
  strong.cfg.control_copies = 3;
  strong.make(1e-2, 5e-2);
  strong.inject(100'000);
  strong.sim.run();

  BidirHarness weak;
  weak.cfg.loss_notif_copies = 1;
  weak.cfg.control_copies = 1;
  weak.make(1e-2, 5e-2);
  weak.inject(100'000);
  weak.sim.run();

  const auto& rs_s = strong.link->receiver().stats();
  const auto& rs_w = weak.link->receiver().stats();
  EXPECT_LT(rs_s.effectively_lost, rs_w.effectively_lost);
  // Exactly-once still holds in both (nothing is duplicated or stuck).
  EXPECT_EQ(strong.delivered + rs_s.effectively_lost, 100'000);
  EXPECT_EQ(weak.delivered + rs_w.effectively_lost, 100'000);
}

TEST(Bidirectional, PfcRedundancySurvivesReverseLoss) {
  BidirHarness h;
  h.cfg.control_copies = 3;
  h.cfg.recirc_loop = usec(5);  // slow recovery -> backpressure engages
  h.make(1e-2, 1e-2);
  h.inject(200'000);
  h.sim.run();
  const auto& rs = h.link->receiver().stats();
  // Pauses were sent and the buffer never overflowed despite lossy PFC.
  EXPECT_GT(rs.pauses_sent, 0);
  EXPECT_EQ(rs.reorder_drops, 0);
  EXPECT_EQ(h.delivered + rs.effectively_lost, 200'000);
}

TEST(LiveModeSwitch, OrderedToNbAndBackLosesNothingToTheSwitchItself) {
  // Flip a running link ordered -> NB -> ordered mid-stream (what
  // AutoFallback does). The handoff must strand nothing: every injected
  // frame is either forwarded exactly once or accounted as effectively lost.
  BidirHarness h;
  h.make(/*fwd=*/1e-3, /*rev=*/0.0);
  const int n = 100'000;
  h.inject(n);
  // 100k MTU frames at 100G drain in ~12.5 ms; switch modes mid-drain.
  h.sim.schedule_at(msec(4), [&] { h.link->set_preserve_order(false); });
  h.sim.schedule_at(msec(8), [&] { h.link->set_preserve_order(true); });
  h.sim.run();

  const auto& rs = h.link->receiver().stats();
  EXPECT_TRUE(h.link->preserve_order());
  EXPECT_EQ(h.delivered + rs.effectively_lost, n);
  EXPECT_EQ(rs.reorder_drops, 0);
  // Only the NB window and the switch edge may leak losses; the bulk of the
  // corrupted frames were recovered by retransmission.
  EXPECT_GT(rs.recovered, 50);
  EXPECT_LE(rs.effectively_lost, 10);
  EXPECT_FALSE(h.link->receiver().backpressured());
}

// Reverse-fiber corruption aimed at PFC resume frames: drops every resume
// frame serialized inside [from, until).
class ResumeBlackout final : public net::LossModel {
 public:
  bool lose(SimTime now, const net::Packet& p) override {
    return p.kind == net::PktKind::kPfcResume && now >= from && now < until;
  }
  SimTime from = -1;
  SimTime until = -1;
};

TEST(LiveModeSwitch, HandoffResumeSurvivesReverseCorruption) {
  // An ordered -> NB switch under backpressure lifts the sender's pause with
  // the handoff. The pause never expires at the sender, so the resume must
  // go out like Algorithm 2's: control_copies frames plus refresh repeats.
  // Corrupting every resume for 2 us after the switch must not strand the
  // normal queue.
  BidirHarness h;
  h.cfg.control_copies = 3;
  h.make(/*fwd=*/1e-3, /*rev=*/0.0);
  auto blackout = std::make_unique<ResumeBlackout>();
  ResumeBlackout* rev = blackout.get();
  h.link->set_reverse_loss_model(std::move(blackout));
  const int n = 100'000;
  h.inject(n);
  // Switch at the first backpressure, checked at the timer-packet period.
  bool switched = false;
  std::function<void()> poll = [&] {
    if (h.link->receiver().backpressured()) {
      h.link->set_preserve_order(false);
      rev->from = h.sim.now();
      rev->until = h.sim.now() + usec(2);
      switched = true;
      return;
    }
    h.sim.schedule_in(lg::kTimerPeriod, [&] { poll(); });
  };
  h.sim.schedule_in(lg::kTimerPeriod, [&] { poll(); });
  h.sim.run();

  ASSERT_TRUE(switched);
  const auto& rs = h.link->receiver().stats();
  EXPECT_EQ(h.delivered + rs.effectively_lost, n);
  EXPECT_FALSE(h.link->receiver().backpressured());
  EXPECT_FALSE(h.link->forward_port().queue_paused(h.link->normal_queue()));
}

TEST(LiveModeSwitch, DisableUnderBackpressureLeavesNormalQueueRunning) {
  // disable_lg() under backpressure lifts the sender's pause locally and
  // sends one resume. A pause frame still on the reverse fiber or in the
  // ctrl queue arrives after that; once disabled, the receiver no longer
  // refreshes the PFC state, so if the sender honoured that pause and the
  // resume were corrupted, nothing would ever resume the normal queue.
  // Sweep the cut across the first pause's flight, corrupting every resume
  // for 2 us after it.
  for (SimTime offset = 0; offset <= nsec(1200); offset += nsec(25)) {
    BidirHarness h;
    h.make(/*fwd=*/1e-3, /*rev=*/0.0);
    auto blackout = std::make_unique<ResumeBlackout>();
    ResumeBlackout* rev = blackout.get();
    h.link->set_reverse_loss_model(std::move(blackout));
    const int n = 50'000;
    h.inject(n);
    bool cut = false;
    std::function<void()> poll = [&] {
      if (h.link->receiver().backpressured()) {
        h.sim.schedule_in(offset, [&] {
          rev->from = h.sim.now();
          rev->until = h.sim.now() + usec(2);
          h.link->disable_lg();
          cut = true;
        });
        return;
      }
      h.sim.schedule_in(lg::kTimerPeriod, [&] { poll(); });
    };
    h.sim.schedule_in(lg::kTimerPeriod, [&] { poll(); });
    h.sim.run();

    ASSERT_TRUE(cut) << "offset " << offset;
    const net::EgressPort& fwd = h.link->forward_port();
    EXPECT_FALSE(fwd.queue_paused(h.link->normal_queue())) << "offset " << offset;
    EXPECT_EQ(fwd.queue_frames(h.link->normal_queue()), 0u) << "offset " << offset;
    EXPECT_EQ(fwd.queue_counters(h.link->normal_queue()).tx_frames, n)
        << "offset " << offset;
  }
}

TEST(LiveModeSwitch, RedundantFlipIsANoOp) {
  BidirHarness h;
  h.make(1e-3, 0.0);
  h.inject(10'000);
  // Same-mode "switches" must not disturb the reordering state.
  h.sim.schedule_at(msec(1), [&] { h.link->set_preserve_order(true); });
  h.sim.run();
  const auto& rs = h.link->receiver().stats();
  EXPECT_EQ(h.delivered + rs.effectively_lost, 10'000);
  EXPECT_TRUE(h.ordered);
}

}  // namespace
}  // namespace lgsim::lg

namespace lgsim::monitor {
namespace {

TEST(AutoFallback, StepsDownAndRecoversWithHysteresis) {
  Simulator sim;
  FallbackConfig cfg;
  cfg.nb_threshold = 5e-3;
  cfg.off_threshold = 5e-2;
  cfg.period = msec(10);
  double measured = 1e-4;
  std::vector<LgMode> applied;
  AutoFallback fb(sim, cfg, [&] { return measured; },
                  [&](LgMode m) { applied.push_back(m); });
  fb.start();

  // Healthy-ish -> stays ordered.
  sim.run(msec(25));
  EXPECT_EQ(fb.mode(), LgMode::kOrdered);
  EXPECT_TRUE(applied.empty());

  // Degrades past the NB threshold.
  measured = 1e-2;
  sim.run(msec(45));
  EXPECT_EQ(fb.mode(), LgMode::kNonBlocking);

  // Catastrophic: disable entirely.
  measured = 1e-1;
  sim.run(msec(65));
  EXPECT_EQ(fb.mode(), LgMode::kOff);

  // Partial recovery: not enough to re-enable (hysteresis)...
  measured = 4e-2;
  sim.run(msec(85));
  EXPECT_EQ(fb.mode(), LgMode::kOff);
  // ...but a solid recovery steps back to NB, then ordered.
  measured = 1e-2;
  sim.run(msec(105));
  EXPECT_EQ(fb.mode(), LgMode::kNonBlocking);
  measured = 1e-4;
  sim.run(msec(125));
  EXPECT_EQ(fb.mode(), LgMode::kOrdered);
  fb.stop();

  ASSERT_EQ(applied.size(), 4u);
  EXPECT_EQ(applied[0], LgMode::kNonBlocking);
  EXPECT_EQ(applied[1], LgMode::kOff);
  EXPECT_EQ(applied[2], LgMode::kNonBlocking);
  EXPECT_EQ(applied[3], LgMode::kOrdered);
  EXPECT_EQ(fb.changes().size(), 4u);
}

TEST(AutoFallback, RestartIsIdempotentAndDoesNotStackEvaluationChains) {
  Simulator sim;
  FallbackConfig cfg;
  cfg.period = msec(1);
  int evals = 0;
  AutoFallback fb(sim, cfg, [&] { ++evals; return 1e-4; },
                  [](LgMode) {});
  fb.start();
  fb.start();  // double start must replace, not stack, the chain
  sim.run(msec(10) + usec(1));
  EXPECT_EQ(evals, 10);
  EXPECT_TRUE(fb.running());
  fb.stop();
  fb.stop();  // idempotent
  EXPECT_FALSE(fb.running());
}

TEST(AutoFallback, StopThenRestartResumesEvaluation) {
  Simulator sim;
  FallbackConfig cfg;
  cfg.period = msec(1);
  int evals = 0;
  AutoFallback fb(sim, cfg, [&] { ++evals; return 1e-4; },
                  [](LgMode) {});
  fb.start();
  sim.run(msec(3) + usec(1));
  fb.stop();
  sim.run(msec(8));  // dormant: the armed fire was cancelled
  EXPECT_EQ(evals, 3);
  fb.start();
  sim.run(msec(12) + usec(1));
  EXPECT_EQ(evals, 7);
  fb.stop();
}

TEST(AutoFallback, OscillationAroundThresholdDoesNotFlap) {
  // Loss bouncing just around nb_threshold: the first crossing demotes to
  // NB, but stepping back up needs loss < nb_threshold * recover_factor —
  // hysteresis holds the mode through the oscillation.
  Simulator sim;
  FallbackConfig cfg;
  cfg.nb_threshold = 5e-3;
  cfg.recover_factor = 0.5;
  cfg.period = msec(1);
  bool high = false;
  AutoFallback fb(
      sim, cfg,
      [&] {
        high = !high;
        return high ? 5.1e-3 : 4.9e-3;
      },
      [](LgMode) {});
  fb.start();
  sim.run(msec(20) + usec(1));
  fb.stop();

  ASSERT_EQ(fb.changes().size(), 1u);
  EXPECT_EQ(fb.changes()[0].to, LgMode::kNonBlocking);
  EXPECT_EQ(fb.mode(), LgMode::kNonBlocking);
}

TEST(AutoFallback, ModeNames) {
  EXPECT_STREQ(lg_mode_name(LgMode::kOrdered), "LinkGuardian");
  EXPECT_STREQ(lg_mode_name(LgMode::kNonBlocking), "LinkGuardianNB");
  EXPECT_STREQ(lg_mode_name(LgMode::kOff), "off");
}

}  // namespace
}  // namespace lgsim::monitor
