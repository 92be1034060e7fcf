// Transport-over-testbed tests: TCP (DCTCP/CUBIC/BBR) and RDMA RC across the
// protected link, with and without LinkGuardian. These validate the
// transport reactions the paper's FCT experiments rest on: RTO on tail loss,
// SACK fast retransmit on mid-flow loss, ECN response, go-back-N on
// reordering, and full masking when LinkGuardian is enabled.
#include <gtest/gtest.h>

#include <memory>

#include "net/loss_model.h"
#include "transport/path.h"
#include "transport/rdma.h"
#include "transport/tcp.h"

namespace lgsim::transport {
namespace {

struct TcpFixture {
  Simulator sim;
  PathConfig pc;
  std::unique_ptr<TestbedPath> path;
  std::unique_ptr<TcpSender> snd;
  std::unique_ptr<TcpReceiver> rcv;
  SimTime fct = -1;

  explicit TcpFixture(TcpCc cc = TcpCc::kDctcp) {
    pc.rate = gbps(100);
    pc.host_delay = usec(12);
    pc.link.rate = gbps(100);
    pc.lg.actual_loss_rate = 1e-3;  // 2 retx copies when enabled
    if (cc == TcpCc::kDctcp) {
      pc.link.ecn_threshold_bytes = 100'000;
    }
    cfg.cc = cc;
  }

  void build(bool enable_lg) {
    path = std::make_unique<TestbedPath>(sim, pc);
    snd = std::make_unique<TcpSender>(
        sim, cfg, 1, [this](net::Packet&& p) { path->send_from_a(std::move(p)); },
        [this](SimTime t) { fct = t; });
    rcv = std::make_unique<TcpReceiver>(
        1, [this](net::Packet&& p) { path->send_from_b(std::move(p)); });
    path->set_sink_at_b([this](net::Packet&& p) { rcv->on_data(p); });
    path->set_sink_at_a([this](net::Packet&& p) { snd->on_ack(p); });
    if (enable_lg) path->link().enable_lg();
  }

  void drop(std::vector<std::uint64_t> idx) {
    path->link().set_loss_model(std::make_unique<net::ScriptedLoss>(std::move(idx)));
  }

  void run_flow(std::int64_t bytes, SimTime limit = sec(2)) {
    snd->start(bytes);
    sim.run(limit);
  }

  TcpConfig cfg;
};

TEST(TcpPath, SinglePacketFlowCompletesInOneRtt) {
  TcpFixture f;
  f.build(/*lg=*/false);
  f.run_flow(143);
  ASSERT_GE(f.fct, 0);
  // ~30 us RTT testbed: FCT within [20, 45] us.
  EXPECT_GT(f.fct, usec(20));
  EXPECT_LT(f.fct, usec(45));
  EXPECT_EQ(f.snd->stats().rtos, 0);
  EXPECT_EQ(f.snd->stats().retransmissions, 0);
}

TEST(TcpPath, MultiPacketFlowCompletesCleanly) {
  TcpFixture f;
  f.build(false);
  f.run_flow(24'387);
  ASSERT_GE(f.fct, 0);
  EXPECT_LT(f.fct, usec(100));
  EXPECT_EQ(f.snd->stats().retransmissions, 0);
  EXPECT_EQ(f.rcv->bytes_received(), 24'387);
}

TEST(TcpPath, TailLossOfSinglePacketFlowCostsAnRto) {
  TcpFixture f;
  f.build(false);
  f.drop({0});  // the only data packet, first transmission
  f.run_flow(143);
  ASSERT_GE(f.fct, 0);
  // Recovery needs a timeout (TLP is ineffective with no RTT sample /
  // flight of one): millisecond scale, ~50x the no-loss FCT.
  EXPECT_GT(f.fct, msec(1));
  EXPECT_LT(f.fct, msec(10));
  EXPECT_GE(f.snd->stats().rtos + f.snd->stats().tlp_probes, 1);
}

TEST(TcpPath, MidFlowLossRecoversBySackWithoutRto) {
  TcpFixture f;
  f.build(false);
  f.drop({2});  // third segment of a 17-segment flow
  f.run_flow(24'387);
  ASSERT_GE(f.fct, 0);
  EXPECT_EQ(f.snd->stats().rtos, 0);
  EXPECT_GE(f.snd->stats().fast_retransmits, 1);
  EXPECT_GE(f.snd->stats().cwnd_reductions, 1);
  EXPECT_TRUE(f.snd->stats().sacked_over_2mss);
  // Fast recovery adds ~1 RTT, not a timeout: well under a millisecond.
  EXPECT_LT(f.fct, usec(200));
}

TEST(TcpPath, TailLossOfMultiPacketFlowTriggersTimeoutScaleRecovery) {
  TcpFixture f;
  f.build(false);
  f.drop({16});  // last segment of the 17-segment flow
  f.run_flow(24'387);
  ASSERT_GE(f.fct, 0);
  EXPECT_GT(f.fct, msec(1));  // TLP/RTO scale
}

TEST(TcpPath, LinkGuardianMasksTailLoss) {
  TcpFixture f;
  f.build(/*lg=*/true);
  f.drop({0});
  f.run_flow(143);
  ASSERT_GE(f.fct, 0);
  // Indistinguishable from no loss: LG recovers below the RTT.
  EXPECT_LT(f.fct, usec(60));
  EXPECT_EQ(f.snd->stats().rtos, 0);
  EXPECT_EQ(f.snd->stats().tlp_probes, 0);
  EXPECT_EQ(f.snd->stats().retransmissions, 0);  // no end-to-end retx
}

TEST(TcpPath, LinkGuardianMasksMidFlowLossInOrder) {
  TcpFixture f;
  f.build(true);
  f.drop({5});
  f.run_flow(24'387);
  ASSERT_GE(f.fct, 0);
  EXPECT_LT(f.fct, usec(120));
  EXPECT_EQ(f.snd->stats().retransmissions, 0);
  EXPECT_EQ(f.snd->stats().cwnd_reductions, 0);
  EXPECT_FALSE(f.snd->stats().ever_sacked);  // order preserved: no SACKs
}

TEST(TcpPath, LinkGuardianNbMidFlowLossMayReorderButAvoidsRto) {
  TcpFixture f;
  f.pc.lg.preserve_order = false;
  f.build(true);
  f.drop({5});
  f.run_flow(24'387);
  ASSERT_GE(f.fct, 0);
  EXPECT_EQ(f.snd->stats().rtos, 0);
  EXPECT_LT(f.fct, usec(200));
  EXPECT_EQ(f.snd->stats().retransmissions, 0);  // LG retransmitted, not TCP
}

TEST(TcpPath, DctcpEcnKeepsQueueNearThreshold) {
  TcpFixture f;
  // Make the protected link the bottleneck (100G NIC into a 25G link) so the
  // standing queue forms at the switch egress where ECN marks.
  f.pc.link.rate = gbps(25);
  f.pc.link.ecn_threshold_bytes = 100'000;
  f.build(false);
  f.run_flow(20'000'000, msec(10));
  EXPECT_GE(f.snd->stats().ecn_cwnd_reductions, 1);
  // The normal-queue depth stays in the vicinity of the marking threshold
  // rather than filling the 2 MB buffer.
  EXPECT_LT(f.path->link().forward_port().queue_bytes(f.path->link().normal_queue()),
            600'000);
}

TEST(TcpPath, CubicFillsBufferAndRecoversFromCongestionLoss) {
  TcpFixture f(TcpCc::kCubic);
  f.pc.link.rate = gbps(25);               // bottleneck at the switch egress
  f.pc.link.normal_queue_bytes = 400'000;  // small buffer -> tail drops
  f.build(false);
  f.run_flow(50'000'000, msec(20));
  EXPECT_GE(f.snd->stats().cwnd_reductions, 1);
  EXPECT_GE(f.snd->stats().fast_retransmits, 1);
  EXPECT_GT(f.rcv->bytes_received(), 10'000'000);  // still makes progress
}

TEST(TcpPath, BbrIsLossAgnostic) {
  TcpFixture f(TcpCc::kBbr);
  f.build(false);
  f.path->link().set_loss_model(
      std::make_unique<net::BernoulliLoss>(1e-3, Rng(5)));
  f.run_flow(5'000'000, msec(100));
  ASSERT_GE(f.fct, 0);
  // Despite 1e-3 loss, BBR keeps sending: goodput-dominated completion,
  // not RTO-dominated. 5 MB at ~100G is ~0.4 ms + recovery tails.
  EXPECT_LT(f.fct, msec(50));
  EXPECT_GE(f.snd->stats().retransmissions, 1);
}

struct RdmaFixture {
  Simulator sim;
  PathConfig pc;
  std::unique_ptr<TestbedPath> path;
  std::unique_ptr<RdmaSender> snd;
  std::unique_ptr<RdmaReceiver> rcv;
  SimTime fct = -1;

  RdmaFixture() {
    pc.rate = gbps(100);
    pc.host_delay = usec(2);  // NIC-terminated: no kernel stack
    pc.link.rate = gbps(100);
    pc.lg.actual_loss_rate = 1e-3;
  }

  void build(bool enable_lg) {
    path = std::make_unique<TestbedPath>(sim, pc);
    snd = std::make_unique<RdmaSender>(
        sim, 7, [this](net::Packet&& p) { path->send_from_a(std::move(p)); },
        [this](SimTime t) { fct = t; });
    rcv = std::make_unique<RdmaReceiver>(
        7, [this](net::Packet&& p) { path->send_from_b(std::move(p)); });
    path->set_sink_at_b([this](net::Packet&& p) { rcv->on_data(p); });
    path->set_sink_at_a([this](net::Packet&& p) { snd->on_transport(p); });
    if (enable_lg) path->link().enable_lg();
  }

  void drop(std::vector<std::uint64_t> idx) {
    path->link().set_loss_model(std::make_unique<net::ScriptedLoss>(std::move(idx)));
  }
};

TEST(RdmaPath, WriteCompletesNoLoss) {
  RdmaFixture f;
  f.build(false);
  f.snd->start(143);
  f.sim.run(sec(1));
  ASSERT_GE(f.fct, 0);
  EXPECT_LT(f.fct, usec(15));
  EXPECT_EQ(f.snd->stats().rtos, 0);
}

TEST(RdmaPath, MessageOf24387BytesIs17Packets) {
  RdmaFixture f;
  f.build(false);
  f.snd->start(24'387);
  f.sim.run(sec(1));
  ASSERT_GE(f.fct, 0);
  EXPECT_EQ(f.snd->stats().packets_sent, 17);
  EXPECT_EQ(f.rcv->packets_delivered(), 17);
}

TEST(RdmaPath, TailLossCostsRto) {
  RdmaFixture f;
  f.build(false);
  f.drop({16});
  f.snd->start(24'387);
  f.sim.run(sec(1));
  ASSERT_GE(f.fct, 0);
  EXPECT_GE(f.fct, msec(1));
  EXPECT_GE(f.snd->stats().rtos, 1);
}

TEST(RdmaPath, MidLossTriggersGoBackN) {
  RdmaFixture f;
  f.build(false);
  f.drop({5});
  f.snd->start(24'387);
  f.sim.run(sec(1));
  ASSERT_GE(f.fct, 0);
  EXPECT_GE(f.snd->stats().go_back_n_events, 1);
  EXPECT_GE(f.snd->stats().retransmissions, 1);
  EXPECT_EQ(f.snd->stats().rtos, 0);  // NAK-based, no timeout
  EXPECT_GE(f.rcv->ooo_dropped(), 1);
}

TEST(RdmaPath, LinkGuardianMasksLossCompletely) {
  RdmaFixture f;
  f.build(true);
  f.drop({5});
  f.snd->start(24'387);
  f.sim.run(sec(1));
  ASSERT_GE(f.fct, 0);
  EXPECT_LT(f.fct, usec(30));
  EXPECT_EQ(f.snd->stats().go_back_n_events, 0);
  EXPECT_EQ(f.snd->stats().retransmissions, 0);
  EXPECT_EQ(f.snd->stats().rtos, 0);
}

TEST(RdmaPath, LinkGuardianNbReorderingStillCausesGoBackN) {
  RdmaFixture f;
  f.pc.lg.preserve_order = false;
  f.build(true);
  f.drop({5});
  f.snd->start(24'387);
  f.sim.run(sec(1));
  ASSERT_GE(f.fct, 0);
  // The out-of-order LG retransmission hits RDMA's zero reordering
  // tolerance: go-back-N fires even though the link recovered the packet.
  EXPECT_GE(f.snd->stats().go_back_n_events, 1);
  EXPECT_EQ(f.snd->stats().rtos, 0);  // but the RTO is still avoided
}

TEST(RdmaPath, LinkGuardianNbStillSavesTailRto) {
  RdmaFixture f;
  f.pc.lg.preserve_order = false;
  f.build(true);
  f.drop({16});  // tail packet: recovery is in-order even in NB mode
  f.snd->start(24'387);
  f.sim.run(sec(1));
  ASSERT_GE(f.fct, 0);
  EXPECT_LT(f.fct, usec(40));
  EXPECT_EQ(f.snd->stats().rtos, 0);
  EXPECT_EQ(f.snd->stats().go_back_n_events, 0);
}

}  // namespace
}  // namespace lgsim::transport
