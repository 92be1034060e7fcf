// Multi-hop integration test: the paper's Fig. 7 testbed topology built from
// the Switch abstraction, with the corrupting (VOA) link between sw2 and sw6
// spliced through LinkGuardian.
//
//   h4 -> sw4 -> sw2 ==LG/VOA==> sw6 -> sw10 -> h8   (and the reverse path)
//
// Verifies that LinkGuardian is transparent to multi-hop forwarding: packets
// cross three switches each way, the protected link recovers its losses,
// ordering holds end to end, and the reverse path carries the piggybacked
// ACK state through intermediate hops.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "lg/link.h"
#include "net/loss_model.h"
#include "sim/simulator.h"
#include "switch.h"

namespace lgsim {
namespace {

constexpr std::uint32_t kH4 = 4;
constexpr std::uint32_t kH8 = 8;

struct Fig7 {
  Simulator sim;
  net::Switch sw4{sim, "sw4"};
  net::Switch sw2{sim, "sw2"};
  net::Switch sw6{sim, "sw6"};
  net::Switch sw10{sim, "sw10"};
  std::unique_ptr<lg::ProtectedLink> voa;  // the corrupting sw2->sw6 link

  std::vector<net::Packet> at_h8;
  std::vector<net::Packet> at_h4;

  explicit Fig7(const lg::LgConfig& cfg, BitRate rate = gbps(100)) {
    const net::Switch::PortCfg pc{.rate = rate};
    // Forward path ports.
    const int p_sw4_sw2 = sw4.add_port(pc);
    const int p_sw2_sw6 = sw2.add_port(pc);   // spliced through LinkGuardian
    const int p_sw6_sw10 = sw6.add_port(pc);
    const int p_sw10_h8 = sw10.add_port(pc);
    // Reverse path ports.
    const int p_sw10_sw6 = sw10.add_port(pc);
    const int p_sw6_sw2 = sw6.add_port(pc);   // reverse of the VOA link
    const int p_sw2_sw4 = sw2.add_port(pc);
    const int p_sw4_h4 = sw4.add_port(pc);

    // Routing: traffic to h8 goes right, to h4 goes left.
    sw4.add_route(kH8, p_sw4_sw2);
    sw2.add_route(kH8, p_sw2_sw6);
    sw6.add_route(kH8, p_sw6_sw10);
    sw10.add_route(kH8, p_sw10_h8);
    sw10.add_route(kH4, p_sw10_sw6);
    sw6.add_route(kH4, p_sw6_sw2);
    sw2.add_route(kH4, p_sw2_sw4);
    sw4.add_route(kH4, p_sw4_h4);

    // Wire the plain hops.
    sw4.connect(p_sw4_sw2, sw2.ingress_fn());
    sw6.connect(p_sw6_sw10, sw10.ingress_fn());
    sw10.connect(p_sw10_h8, [this](net::Packet&& p) { at_h8.push_back(std::move(p)); });
    sw10.connect(p_sw10_sw6, sw6.ingress_fn());
    sw2.connect(p_sw2_sw4, sw4.ingress_fn());
    sw4.connect(p_sw4_h4, [this](net::Packet&& p) { at_h4.push_back(std::move(p)); });

    // Splice the protected link between sw2 and sw6: forwarding decisions
    // toward those egress ports go through LinkGuardian instead.
    lg::LinkSpec spec;
    spec.rate = rate;
    spec.name = "sw2-sw6(VOA)";
    voa = std::make_unique<lg::ProtectedLink>(sim, spec, cfg);
    sw2.set_egress_override(p_sw2_sw6,
                            [this](net::Packet&& p) { voa->send_forward(std::move(p)); });
    sw6.set_egress_override(p_sw6_sw2,
                            [this](net::Packet&& p) { voa->send_reverse(std::move(p)); });
    voa->set_forward_sink(sw6.ingress_fn());
    voa->set_reverse_sink(sw2.ingress_fn());
    // The unused raw port objects for the spliced hops still exist, unused.
    (void)p_sw2_sw6;
    (void)p_sw6_sw2;
  }

  // Injections are paced at the host line rate so the intermediate switch
  // queues (realistically sized) never see a synthetic infinite burst.
  void send_h4_to_h8(int n, std::int32_t bytes = 1500) {
    const SimTime ser = serialization_time(bytes + 38, gbps(100));
    for (int i = 0; i < n; ++i) {
      sim.schedule_at(static_cast<SimTime>(i) * ser, [this, bytes, i] {
        net::Packet p;
        p.kind = net::PktKind::kData;
        p.frame_bytes = bytes;
        p.src = kH4;
        p.dst = kH8;
        p.uid = static_cast<std::uint64_t>(i + 1);
        sw4.ingress(std::move(p));
      });
    }
  }

  void send_h8_to_h4(int n, std::int32_t bytes = 200) {
    const SimTime ser = serialization_time(bytes + 38, gbps(100));
    for (int i = 0; i < n; ++i) {
      sim.schedule_at(static_cast<SimTime>(i) * ser, [this, bytes, i] {
        net::Packet p;
        p.kind = net::PktKind::kData;
        p.frame_bytes = bytes;
        p.src = kH8;
        p.dst = kH4;
        p.uid = static_cast<std::uint64_t>(1000 + i);
        sw10.ingress(std::move(p));
      });
    }
  }
};

TEST(Fig7Topology, CleanEndToEndForwarding) {
  lg::LgConfig cfg;
  Fig7 net(cfg);
  net.voa->enable_lg();
  net.send_h4_to_h8(100);
  net.send_h8_to_h4(50);
  net.sim.run();
  ASSERT_EQ(net.at_h8.size(), 100u);
  ASSERT_EQ(net.at_h4.size(), 50u);
  for (std::size_t i = 1; i < net.at_h8.size(); ++i)
    EXPECT_GT(net.at_h8[i].uid, net.at_h8[i - 1].uid);
  // The LG header never leaks past the protected link.
  for (const auto& p : net.at_h8) EXPECT_FALSE(p.lg.valid);
}

TEST(Fig7Topology, CorruptionOnVoaLinkMaskedAcrossHops) {
  lg::LgConfig cfg;
  cfg.actual_loss_rate = 1e-2;
  Fig7 net(cfg);
  net.voa->set_loss_model(std::make_unique<net::BernoulliLoss>(1e-2, Rng(21)));
  net.voa->enable_lg();
  net.send_h4_to_h8(20'000);
  net.send_h8_to_h4(5'000);  // reverse traffic carries piggybacked ACKs
  net.sim.run();
  const auto& rs = net.voa->receiver().stats();
  EXPECT_EQ(net.at_h8.size() + static_cast<std::size_t>(rs.effectively_lost),
            20'000u);
  EXPECT_LE(rs.effectively_lost, 2);  // ~1e-2^3 residual
  EXPECT_GT(rs.recovered, 100);
  EXPECT_EQ(net.at_h4.size(), 5'000u);  // reverse traffic unharmed
  for (std::size_t i = 1; i < net.at_h8.size(); ++i)
    ASSERT_GT(net.at_h8[i].uid, net.at_h8[i - 1].uid);
}

TEST(Fig7Topology, WithoutLgTheLossReachesTheEndpoints) {
  lg::LgConfig cfg;
  Fig7 net(cfg);
  net.voa->set_loss_model(std::make_unique<net::BernoulliLoss>(1e-2, Rng(22)));
  net.send_h4_to_h8(20'000);
  net.sim.run();
  EXPECT_LT(net.at_h8.size(), 20'000u);
  EXPECT_GT(net.at_h8.size(), 19'000u);  // ~1% gone
}

TEST(Fig7Topology, UnroutablePacketsAreCountedNotCrashed) {
  lg::LgConfig cfg;
  Fig7 net(cfg);
  net::Packet p;
  p.dst = 99;  // no route anywhere
  net.sw4.ingress(std::move(p));
  net.sim.run();
  EXPECT_EQ(net.sw4.dropped_no_route(), 1);
}

}  // namespace
}  // namespace lgsim
