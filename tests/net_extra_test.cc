// Tests for the Switch abstraction, the scripted loss cursor and mid-run
// loss-model mutation.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/loss_model.h"
#include "sim/simulator.h"
#include "switch.h"

namespace lgsim {
namespace {

TEST(Switch, ForwardsByDestination) {
  Simulator sim;
  net::Switch sw(sim, "sw");
  const int p0 = sw.add_port({});
  const int p1 = sw.add_port({});
  std::vector<std::uint32_t> out0, out1;
  sw.connect(p0, [&](net::Packet&& p) { out0.push_back(p.dst); });
  sw.connect(p1, [&](net::Packet&& p) { out1.push_back(p.dst); });
  sw.add_route(10, p0);
  sw.add_route(20, p1);
  for (std::uint32_t d : {10u, 20u, 10u}) {
    net::Packet p;
    p.dst = d;
    p.frame_bytes = 100;
    sw.ingress(std::move(p));
  }
  sim.run();
  EXPECT_EQ(out0, (std::vector<std::uint32_t>{10, 10}));
  EXPECT_EQ(out1, (std::vector<std::uint32_t>{20}));
  EXPECT_EQ(sw.rx_frames(), 3);
}

TEST(Switch, DefaultRouteAndDrops) {
  Simulator sim;
  net::Switch sw(sim, "sw");
  const int p0 = sw.add_port({});
  int fallback = 0;
  sw.connect(p0, [&](net::Packet&&) { ++fallback; });
  net::Packet p;
  p.dst = 42;
  sw.ingress(std::move(p));
  sim.run();
  EXPECT_EQ(sw.dropped_no_route(), 1);
  sw.set_default_route(p0);
  net::Packet q;
  q.dst = 42;
  q.frame_bytes = 64;
  sw.ingress(std::move(q));
  sim.run();
  EXPECT_EQ(fallback, 1);
}

TEST(Switch, PipelineLatencyApplies) {
  Simulator sim;
  net::Switch sw(sim, "sw", nsec(500));
  const int p0 = sw.add_port({.rate = gbps(100), .prop_delay = 0});
  SimTime arrival = -1;
  sw.connect(p0, [&](net::Packet&&) { arrival = sim.now(); });
  sw.add_route(1, p0);
  net::Packet p;
  p.dst = 1;
  p.frame_bytes = 64;
  sw.ingress(std::move(p));
  sim.run();
  // 500 ns pipeline + 84 B at 100G (~6.7 ns).
  EXPECT_GE(arrival, 506);
  EXPECT_LE(arrival, 508);
}

TEST(Switch, EgressOverrideIntercepts) {
  Simulator sim;
  net::Switch sw(sim, "sw");
  const int p0 = sw.add_port({});
  int intercepted = 0;
  sw.add_route(7, p0);
  sw.set_egress_override(p0, [&](net::Packet&&) { ++intercepted; });
  net::Packet p;
  p.dst = 7;
  sw.ingress(std::move(p));
  sim.run();
  EXPECT_EQ(intercepted, 1);
}

TEST(ScriptedLoss, CursorHandlesUnsortedAndDuplicateIndices) {
  // Construction sorts the script, and each frame advances the cursor in
  // O(1) amortized; unsorted input with duplicates must still drop exactly
  // the scripted frames.
  net::ScriptedLoss loss({7, 2, 2, 5});
  net::Packet p;
  std::vector<int> lost;
  for (int i = 0; i < 10; ++i)
    if (loss.lose(0, p)) lost.push_back(i);
  EXPECT_EQ(lost, (std::vector<int>{2, 5, 7}));
  EXPECT_EQ(loss.frames_seen(), 10u);
}

// Mid-run loss-model mutation through the full EgressPort datapath: the
// fault injector re-aims live models, so a rate change must apply to the
// next frame rolled — no caching anywhere between the model and finish_tx.
TEST(MidRunMutation, BernoulliSetRateAppliesToTheNextFrameOnTheWire) {
  Simulator sim;
  net::EgressPort port(sim, "p", gbps(100), /*prop_delay=*/0);
  const int q = port.add_queue({});
  net::BernoulliLoss loss(0.0, Rng(1));
  port.set_loss_model(&loss);
  std::int64_t delivered = 0;
  port.set_deliver([&](net::Packet&&) { ++delivered; });

  // One frame per microsecond (an MTU frame serializes in ~0.12 us, so every
  // frame's loss roll happens well before the next enqueue).
  for (int i = 0; i < 20; ++i) {
    sim.schedule_at(usec(i), [&] {
      net::Packet p;
      p.kind = net::PktKind::kData;
      p.frame_bytes = 1518;
      port.enqueue(q, std::move(p));
    });
  }
  // Flip from lossless to certain loss between frames 10 and 11.
  sim.schedule_at(usec(10) + nsec(500), [&] { loss.drive_rate(1.0); });
  sim.run();

  EXPECT_EQ(delivered, 11);
  EXPECT_EQ(port.counters().delivered_frames, 11);
  EXPECT_EQ(port.counters().corrupted_frames, 9);
}

TEST(MidRunMutation, GilbertSetParamsAppliesAndRestoresThroughDatapath) {
  Simulator sim;
  net::EgressPort port(sim, "p", gbps(100), 0);
  const int q = port.add_queue({});
  // Healthy chain pinned in the good state with deterministic transitions.
  net::GilbertElliottLoss::Params healthy;
  healthy.p_good_to_bad = 0.0;
  healthy.p_bad_to_good = 1.0;
  net::GilbertElliottLoss loss(healthy, Rng(2));
  port.set_loss_model(&loss);
  std::vector<int> fates;  // 1 = delivered
  port.set_deliver([&](net::Packet&&) { fates.push_back(1); });

  for (int i = 0; i < 30; ++i) {
    sim.schedule_at(usec(i), [&] {
      net::Packet p;
      p.kind = net::PktKind::kData;
      p.frame_bytes = 1518;
      port.enqueue(q, std::move(p));
    });
  }
  // Episode: always-bad chain for frames 10..19, healthy again after.
  net::GilbertElliottLoss::Params awful;
  awful.p_good_to_bad = 1.0;
  awful.p_bad_to_good = 0.0;
  awful.loss_bad = 1.0;
  sim.schedule_at(usec(9) + nsec(500), [&] { loss.set_params(awful); });
  sim.schedule_at(usec(19) + nsec(500), [&] { loss.set_params(healthy); });
  sim.run();

  EXPECT_EQ(port.counters().corrupted_frames, 10);
  EXPECT_EQ(port.counters().delivered_frames, 20);
  EXPECT_FALSE(loss.in_bad_state());  // healthy params pulled it back out
}

TEST(MidRunMutation, DrivenRunsAreDeterministicPerSeed) {
  // The same seed + the same mid-run mutation schedule must reproduce the
  // exact corrupted/delivered split (the fault subsystem's replay contract).
  auto run_once = [](std::uint64_t seed) {
    Simulator sim;
    net::EgressPort port(sim, "p", gbps(25), 0);
    const int q = port.add_queue({});
    net::BernoulliLoss loss(0.05, Rng(seed));
    port.set_loss_model(&loss);
    for (int i = 0; i < 2000; ++i) {
      sim.schedule_at(usec(i), [&] {
        net::Packet p;
        p.kind = net::PktKind::kData;
        p.frame_bytes = 1518;
        port.enqueue(q, std::move(p));
      });
    }
    sim.schedule_at(usec(500), [&] { loss.drive_rate(0.2); });
    sim.schedule_at(usec(1500), [&] { loss.drive_rate(0.01); });
    sim.run();
    return port.counters().corrupted_frames;
  };
  EXPECT_EQ(run_once(11), run_once(11));
  EXPECT_NE(run_once(11), run_once(12));  // seed actually matters
}

}  // namespace
}  // namespace lgsim
