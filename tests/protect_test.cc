#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "net/loss_model.h"
#include "net/packet.h"
#include "protect/protect.h"
#include "sim/simulator.h"

namespace lgsim::protect {
namespace {

TEST(SeqDedup, AcceptsOnceRejectsRepeat) {
  SeqDedup d(16);
  for (std::uint16_t s = 0; s < 10; ++s) EXPECT_TRUE(d.accept(s));
  for (std::uint16_t s = 0; s < 10; ++s) EXPECT_FALSE(d.accept(s));
  EXPECT_EQ(d.accepted(), 10);
  EXPECT_EQ(d.duplicates(), 10);
}

TEST(SeqDedup, WindowRoundsUpToPowerOfTwo) {
  EXPECT_EQ(SeqDedup(10).window(), 16);
  EXPECT_EQ(SeqDedup(4096).window(), 4096);
}

TEST(SeqDedup, OlderThanWindowIsConservativelyDuplicate) {
  SeqDedup d(8);
  for (std::uint16_t s = 0; s < 20; ++s) EXPECT_TRUE(d.accept(s));
  // 0 fell out of the 8-deep window: cannot prove freshness, so reject.
  EXPECT_FALSE(d.accept(0));
  // In-window but unseen-again values are still rejected (they were seen).
  EXPECT_FALSE(d.accept(19));
  EXPECT_FALSE(d.accept(13));
}

TEST(SeqDedup, ExactlyOnceAcrossWraparound) {
  // Three trips around the 16-bit space, each value offered twice (the 1+1
  // traffic pattern): exactly one accept per offer pair.
  SeqDedup d(8192);
  std::uint16_t seq = 0;
  for (int i = 0; i < 200'000; ++i, ++seq) {
    EXPECT_TRUE(d.accept(seq));
    EXPECT_FALSE(d.accept(seq));
  }
  EXPECT_EQ(d.accepted(), 200'000);
  EXPECT_EQ(d.duplicates(), 200'000);
}

TEST(SeqDedup, JumpBeyondWindowClearsState) {
  SeqDedup d(8);
  EXPECT_TRUE(d.accept(0));
  EXPECT_TRUE(d.accept(5000));  // jump far ahead: window slides entirely
  EXPECT_TRUE(d.accept(4999));  // in the new window, never seen
  EXPECT_FALSE(d.accept(4999));
}

struct Harvest {
  std::vector<std::uint64_t> uids;
  std::set<std::uint64_t> seen;
  bool ordered = true;
  bool duplicate = false;
};

Harvest drive(OnePlusOnePath& dup, Simulator& sim, int n) {
  Harvest h;
  dup.set_sink([&](net::Packet&& p) {
    if (!h.uids.empty() && p.uid <= h.uids.back()) h.ordered = false;
    if (!h.seen.insert(p.uid).second) h.duplicate = true;
    h.uids.push_back(p.uid);
  });
  for (int i = 0; i < n; ++i) {
    net::Packet p;
    p.frame_bytes = 1000;
    p.uid = static_cast<std::uint64_t>(i);
    dup.send(p);
  }
  sim.run(sec(30));
  return h;
}

/// Loses frame i (in roll order == send order) iff i % modulus == 0.
std::unique_ptr<net::ScriptedLoss> every_nth(int modulus, int n) {
  std::vector<std::uint64_t> idx;
  for (int i = 0; i < n; i += modulus) idx.push_back(i);
  return std::make_unique<net::ScriptedLoss>(std::move(idx));
}

TEST(OnePlusOnePath, ExactDeliverySetUnderScriptedLoss) {
  Simulator sim;
  OnePlusOnePath dup(sim, ProtectParams{}, gbps(10), nsec(100));
  const int n = 3'000;
  // A loses multiples of 3, B loses multiples of 5: only multiples of 15
  // lose both copies — the exact brute-force delivery set.
  dup.set_loss_model_a(every_nth(3, n));
  dup.set_loss_model_b(every_nth(5, n));

  const Harvest h = drive(dup, sim, n);

  EXPECT_TRUE(h.ordered);
  EXPECT_FALSE(h.duplicate);
  for (int i = 0; i < n; ++i)
    EXPECT_EQ(h.seen.count(static_cast<std::uint64_t>(i)), i % 15 != 0 ? 1u : 0u);
  EXPECT_EQ(dup.counters().sent, n);
  EXPECT_EQ(dup.counters().delivered, n - n / 15);
  EXPECT_EQ(dup.counters().lost_both(), n / 15);
  // Every surviving twin of a delivered frame was dropped by the dedup.
  EXPECT_EQ(dup.counters().dup_dropped, dup.dedup().duplicates());
}

TEST(OnePlusOnePath, BothPathsLossyRandom) {
  Simulator sim;
  OnePlusOnePath dup(sim, ProtectParams{}, gbps(10), nsec(100));
  dup.set_loss_model_a(std::make_unique<net::BernoulliLoss>(0.2, Rng(21)));
  dup.set_loss_model_b(std::make_unique<net::BernoulliLoss>(0.1, Rng(22)));

  const int n = 20'000;
  const Harvest h = drive(dup, sim, n);

  EXPECT_TRUE(h.ordered);
  EXPECT_FALSE(h.duplicate);
  const double survive = static_cast<double>(dup.counters().delivered) / n;
  EXPECT_NEAR(survive, 1.0 - 0.2 * 0.1, 0.01);
  EXPECT_EQ(dup.counters().delivered + dup.counters().lost_both(), n);
  EXPECT_EQ(static_cast<std::int64_t>(h.uids.size()),
            dup.counters().delivered);
}

TEST(OnePlusOnePath, SkewedProtectionPathStillExactlyOnce) {
  Simulator sim;
  ProtectParams params;
  params.path_skew = usec(2);  // B copies arrive a full serialization later
  OnePlusOnePath dup(sim, params, gbps(10), nsec(100));
  dup.set_loss_model_a(std::make_unique<net::BernoulliLoss>(0.3, Rng(5)));

  const int n = 10'000;
  const Harvest h = drive(dup, sim, n);

  // A-losses are masked by late B copies: delivery is complete and
  // duplicate-free; order may break (the scheme reports that knob).
  EXPECT_FALSE(h.duplicate);
  EXPECT_EQ(dup.counters().delivered, n);
  EXPECT_EQ(dup.counters().lost_both(), 0);
}

TEST(OnePlusOnePath, SeqWraparoundPastSixteenBits) {
  Simulator sim;
  OnePlusOnePath dup(sim, ProtectParams{}, gbps(25), nsec(50));
  dup.set_loss_model_a(std::make_unique<net::BernoulliLoss>(0.05, Rng(2)));
  dup.set_loss_model_b(std::make_unique<net::BernoulliLoss>(0.05, Rng(4)));

  const int n = 70'000;  // tunnel sequence numbers wrap
  Harvest h;
  dup.set_sink([&](net::Packet&& p) {
    if (!h.seen.insert(p.uid).second) h.duplicate = true;
    h.uids.push_back(p.uid);
  });
  for (int i = 0; i < n; ++i) {
    net::Packet p;
    p.frame_bytes = 64;
    p.uid = static_cast<std::uint64_t>(i);
    dup.send(p);
  }
  sim.run(sec(30));

  EXPECT_FALSE(h.duplicate);
  EXPECT_EQ(dup.counters().delivered + dup.counters().lost_both(), n);
  EXPECT_EQ(static_cast<std::int64_t>(h.seen.size()),
            dup.counters().delivered);
}

TEST(TwoPathLoss, ResidualIsProductOfIndependentProcesses) {
  TwoPathLoss model(std::make_unique<net::BernoulliLoss>(0.3, Rng(31)),
                    std::make_unique<net::BernoulliLoss>(0.2, Rng(32)));
  net::Packet p;
  const int n = 500'000;
  int lost = 0;
  for (int i = 0; i < n; ++i)
    if (model.lose(0, p)) ++lost;
  EXPECT_NEAR(static_cast<double>(lost) / n, 0.3 * 0.2, 0.005);
}

TEST(TwoPathLoss, HealthyProtectionPathMasksEverything) {
  TwoPathLoss model(std::make_unique<net::BernoulliLoss>(0.5, Rng(1)),
                    std::make_unique<net::BernoulliLoss>(0.0, Rng(2)));
  net::Packet p;
  for (int i = 0; i < 10'000; ++i) EXPECT_FALSE(model.lose(0, p));
}

TEST(OnePlusOneScheme, PathKnobs) {
  OnePlusOneScheme scheme;
  net::LossSpec at;
  at.rate = 1e-2;
  EXPECT_STREQ(scheme.name(), "1+1");
  EXPECT_DOUBLE_EQ(scheme.capacity_fraction(at), 1.0);
  EXPECT_DOUBLE_EQ(scheme.provisioned_capacity_x(at), 2.0);
  EXPECT_EQ(scheme.added_latency(), scheme.params().merge_latency);

  // The residual masks a lossy working path with the healthy secondary; the
  // drivable handle is the working path (what fault scripts degrade).
  net::ResidualLoss residual = scheme.residual(at);
  ASSERT_NE(residual.raw, nullptr);
  EXPECT_DOUBLE_EQ(residual.raw->driven_rate(), 1e-2);
  net::Packet p;
  for (int i = 0; i < 1000; ++i) EXPECT_FALSE(residual.model->lose(0, p));
}

}  // namespace
}  // namespace lgsim::protect
