#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/loss_model.h"
#include "net/packet.h"
#include "rifl/rifl.h"
#include "sim/simulator.h"

namespace lgsim::rifl {
namespace {

/// Loses every frame inside [from, to) — a hard outage window.
class WindowLoss final : public net::LossModel {
 public:
  WindowLoss(SimTime from, SimTime to) : from_(from), to_(to) {}
  bool lose(SimTime now, const net::Packet&) override {
    return now >= from_ && now < to_;
  }

 private:
  SimTime from_, to_;
};

struct Harvest {
  std::vector<std::uint64_t> uids;
  bool ordered = true;
  bool duplicate = false;
};

/// Sends `n` uid-stamped frames through a RiflLink over the given loss
/// process and collects the delivered uid stream.
Harvest drive(RiflLink& link, Simulator& sim, int n,
              std::int32_t frame_bytes = 256) {
  Harvest h;
  std::vector<bool> seen(static_cast<std::size_t>(n), false);
  link.set_sink([&](net::Packet&& p) {
    if (!h.uids.empty() && p.uid <= h.uids.back()) h.ordered = false;
    if (seen[static_cast<std::size_t>(p.uid)]) h.duplicate = true;
    seen[static_cast<std::size_t>(p.uid)] = true;
    h.uids.push_back(p.uid);
  });
  for (int i = 0; i < n; ++i) {
    net::Packet p;
    p.frame_bytes = frame_bytes;
    p.uid = static_cast<std::uint64_t>(i);
    link.send(p);
  }
  sim.run(sec(30));
  return h;
}

TEST(RiflParams, Efficiency) {
  EXPECT_DOUBLE_EQ(RiflParams{}.efficiency(), 240.0 / 256.0);
  EXPECT_DOUBLE_EQ((RiflParams{.frame_bits = 128, .meta_bits = 32}).efficiency(),
                   0.75);
}

// Brute-force reference under i.i.d. loss: with max_tx = 16 the residual is
// p^16 ~ 1e-16 at p = 0.1, so the reference expectation is simply "every
// offered frame is delivered, exactly once, in offer order".
TEST(RiflLink, ExactlyOnceInOrderUnderBernoulli) {
  Simulator sim;
  RiflLink link(sim, RiflParams{}, gbps(10), nsec(100));
  link.set_loss_model(std::make_unique<net::BernoulliLoss>(0.1, Rng(7)));

  const int n = 20'000;
  const Harvest h = drive(link, sim, n);

  EXPECT_TRUE(h.ordered);
  EXPECT_FALSE(h.duplicate);
  EXPECT_EQ(static_cast<int>(h.uids.size()), n);
  EXPECT_EQ(link.counters().offered, n);
  EXPECT_EQ(link.counters().delivered, n);
  EXPECT_EQ(link.counters().failed, 0);
  EXPECT_GT(link.counters().retx_tx, n / 20);  // ~10% of frames needed retries
  EXPECT_EQ(link.tx_buffered(), 0);            // buffer fully acknowledged
}

TEST(RiflLink, ExactlyOnceInOrderUnderGilbertElliott) {
  Simulator sim;
  RiflLink link(sim, RiflParams{}, gbps(10), nsec(100));
  link.set_loss_model(std::make_unique<net::GilbertElliottLoss>(
      net::GilbertElliottLoss::for_rate(0.05, 4.0), Rng(11)));

  const int n = 20'000;
  const Harvest h = drive(link, sim, n);

  // Bursts can outlive the retry budget, so give-ups are legal — but every
  // offered frame must be accounted for and the delivered stream must stay
  // strictly ordered and duplicate-free.
  EXPECT_TRUE(h.ordered);
  EXPECT_FALSE(h.duplicate);
  EXPECT_EQ(link.counters().delivered + link.counters().failed,
            link.counters().offered);
  EXPECT_EQ(static_cast<std::int64_t>(h.uids.size()),
            link.counters().delivered);
  EXPECT_GT(link.counters().delivered, n * 9 / 10);
}

TEST(RiflLink, OutageExhaustsRetriesAndSkips) {
  Simulator sim;
  RiflLink link(sim, RiflParams{}, gbps(10), nsec(100));
  // Total loss for 200 us in the middle of the stream: frames caught in the
  // window burn all max_tx attempts (16 x 2 us < 200 us) and are skipped;
  // the stream must keep flowing in order around them.
  link.set_loss_model(std::make_unique<WindowLoss>(usec(100), usec(300)));

  const int n = 2'000;
  const Harvest h = drive(link, sim, n);

  EXPECT_TRUE(h.ordered);
  EXPECT_FALSE(h.duplicate);
  EXPECT_GT(link.counters().failed, 0);
  EXPECT_EQ(link.counters().skips, link.counters().failed);
  EXPECT_EQ(link.counters().delivered + link.counters().failed, n);
  EXPECT_EQ(static_cast<std::int64_t>(h.uids.size()),
            link.counters().delivered);
  // Frames before and after the outage window survive.
  EXPECT_EQ(h.uids.front(), 0u);
  EXPECT_EQ(h.uids.back(), static_cast<std::uint64_t>(n - 1));
}

TEST(RiflLink, SeqWraparoundPastSixteenBits) {
  Simulator sim;
  RiflLink link(sim, RiflParams{}, gbps(25), nsec(50));
  link.set_loss_model(std::make_unique<net::BernoulliLoss>(0.01, Rng(3)));

  const int n = 70'000;  // > 65536: every 16-bit sequence number reused
  const Harvest h = drive(link, sim, n, /*frame_bytes=*/64);

  EXPECT_TRUE(h.ordered);
  EXPECT_FALSE(h.duplicate);
  EXPECT_EQ(static_cast<int>(h.uids.size()), n);
  EXPECT_EQ(link.counters().failed, 0);
}

TEST(RiflLossModel, ResidualMatchesRetryAnalytic) {
  // A frame is lost iff all max_tx attempts are corrupted: p^max_tx.
  const RiflParams params{.max_tx = 4};
  RiflLossModel model(params,
                      std::make_unique<net::BernoulliLoss>(0.5, Rng(9)));
  net::Packet p;
  const int n = 500'000;
  int lost = 0;
  for (int i = 0; i < n; ++i)
    if (model.lose(0, p)) ++lost;
  const double measured = static_cast<double>(lost) / n;
  EXPECT_NEAR(measured, 0.5 * 0.5 * 0.5 * 0.5, 0.005);
  EXPECT_EQ(model.frames_failed(), lost);
  EXPECT_GT(model.wire_corruptions(), model.frames_failed());
}

TEST(RiflLossModel, ZeroRawLossIsLossless) {
  RiflLossModel model(RiflParams{},
                      std::make_unique<net::BernoulliLoss>(0.0, Rng(1)));
  net::Packet p;
  for (int i = 0; i < 1000; ++i) EXPECT_FALSE(model.lose(0, p));
  EXPECT_EQ(model.frames_failed(), 0);
}

TEST(RiflScheme, PathKnobs) {
  RiflScheme scheme;
  net::LossSpec at;
  at.rate = 1e-2;
  EXPECT_STREQ(scheme.name(), "rifl");
  EXPECT_DOUBLE_EQ(scheme.capacity_fraction(at), 0.9375 * 0.99);
  EXPECT_EQ(scheme.added_latency(), scheme.params().framing_latency);
  EXPECT_NEAR(scheme.provisioned_capacity_x(at),
              1.0 / (0.9375 * 0.99), 1e-12);

  net::ResidualLoss residual = scheme.residual(at);
  ASSERT_NE(residual.model, nullptr);
  ASSERT_NE(residual.raw, nullptr);
  EXPECT_DOUBLE_EQ(residual.raw->driven_rate(), 1e-2);
}

}  // namespace
}  // namespace lgsim::rifl
