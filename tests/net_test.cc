#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/loss_model.h"
#include "net/packet.h"
#include "net/pipeline.h"
#include "net/port.h"
#include "obs/metrics.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "util/stats.h"

namespace lgsim::net {
namespace {

Packet data_pkt(std::int32_t frame_bytes, std::uint64_t uid = 0) {
  Packet p;
  p.kind = PktKind::kData;
  p.frame_bytes = frame_bytes;
  p.uid = uid;
  return p;
}

struct Collector {
  std::vector<Packet> pkts;
  std::vector<SimTime> times;
  EgressPort::DeliverFn fn(Simulator& sim) {
    return [this, &sim](Packet&& p) {
      pkts.push_back(std::move(p));
      times.push_back(sim.now());
    };
  }
};

TEST(EgressPort, SerializationAndPropagationDelay) {
  Simulator sim;
  EgressPort port(sim, "p", gbps(100), nsec(100));
  const int q = port.add_queue();
  Collector sink;
  port.set_deliver(sink.fn(sim));
  port.enqueue(q, data_pkt(1518));
  sim.run();
  ASSERT_EQ(sink.pkts.size(), 1u);
  // (1518 + 20) * 8 / 100G = 123.04 ns (truncated; the carry accumulates)
  // + 100 ns propagation.
  EXPECT_EQ(sink.times[0], 223);
}

TEST(EgressPort, BackToBackFramesAreSpacedBySerialization) {
  Simulator sim;
  EgressPort port(sim, "p", gbps(10), 0);
  const int q = port.add_queue();
  Collector sink;
  port.set_deliver(sink.fn(sim));
  port.enqueue(q, data_pkt(1518, 1));
  port.enqueue(q, data_pkt(1518, 2));
  sim.run();
  ASSERT_EQ(sink.pkts.size(), 2u);
  // 1538 B at 10G = 1230.4 ns; frame spacing stays within 1 ns of exact and
  // never drifts (sub-ns carry).
  EXPECT_NEAR(static_cast<double>(sink.times[1] - sink.times[0]), 1230.4, 1.0);
  EXPECT_NEAR(static_cast<double>(sink.times[1]), 2460.8, 1.0);
}

TEST(EgressPort, StrictPriorityPreempts) {
  Simulator sim;
  EgressPort port(sim, "p", gbps(10), 0);
  const int hi = port.add_queue();
  const int lo = port.add_queue();
  Collector sink;
  port.set_deliver(sink.fn(sim));
  // Fill low priority first; then a high-priority frame arrives while the
  // first low frame is serializing. It must jump ahead of the second.
  port.enqueue(lo, data_pkt(1500, 1));
  port.enqueue(lo, data_pkt(1500, 2));
  sim.schedule_at(10, [&] { port.enqueue(hi, data_pkt(100, 99)); });
  sim.run();
  ASSERT_EQ(sink.pkts.size(), 3u);
  EXPECT_EQ(sink.pkts[0].uid, 1u);
  EXPECT_EQ(sink.pkts[1].uid, 99u);
  EXPECT_EQ(sink.pkts[2].uid, 2u);
}

TEST(EgressPort, ByteLimitDropsTail) {
  Simulator sim;
  EgressPort port(sim, "p", gbps(10), 0);
  const int q = port.add_queue({.byte_limit = 3000});
  Collector sink;
  port.set_deliver(sink.fn(sim));
  // First is immediately taken out of the queue into serialization, so three
  // more fit 1500+1500; the fourth enqueue overflows.
  EXPECT_TRUE(port.enqueue(q, data_pkt(1500, 1)));
  EXPECT_TRUE(port.enqueue(q, data_pkt(1500, 2)));
  EXPECT_TRUE(port.enqueue(q, data_pkt(1500, 3)));
  EXPECT_FALSE(port.enqueue(q, data_pkt(1500, 4)));
  EXPECT_EQ(port.queue_counters(q).drop_frames, 1);
  sim.run();
  EXPECT_EQ(sink.pkts.size(), 3u);
}

TEST(EgressPort, QueueCountersConserve) {
  Simulator sim;
  EgressPort port(sim, "p", gbps(10), 0);
  const int q = port.add_queue({.byte_limit = 3000});
  Collector sink;
  port.set_deliver(sink.fn(sim));
  ScriptedLoss loss({2});  // corrupt the 3rd transmitted frame
  port.set_loss_model(&loss);

  EXPECT_TRUE(port.enqueue(q, data_pkt(1500, 1)));  // dequeued immediately
  EXPECT_TRUE(port.enqueue(q, data_pkt(1500, 2)));
  EXPECT_TRUE(port.enqueue(q, data_pkt(1400, 3)));
  EXPECT_FALSE(port.enqueue(q, data_pkt(1500, 4)));  // 2900 + 1500 > limit

  // Mid-flight conservation: accepted == dequeued + still in the fifo, for
  // both frames and bytes; drops live in their own counters.
  const EgressPort::QueueCounters& c = port.queue_counters(q);
  EXPECT_EQ(c.enq_frames,
            c.deq_frames + static_cast<std::int64_t>(port.queue_frames(q)));
  EXPECT_EQ(c.enq_bytes, c.deq_bytes + port.queue_bytes(q));
  EXPECT_EQ(c.enq_frames + c.drop_frames, 4);  // everything offered
  EXPECT_EQ(c.drop_frames, 1);
  EXPECT_EQ(c.drop_bytes, 1500);

  sim.run();

  // Fully drained: the invariant collapses to enq == deq, and every
  // transmitted frame was either corrupted on the wire or delivered.
  EXPECT_EQ(c.enq_frames, c.deq_frames);
  EXPECT_EQ(c.enq_bytes, c.deq_bytes);
  EXPECT_EQ(c.tx_frames, 3);
  EXPECT_EQ(port.counters().tx_frames, 3);
  EXPECT_EQ(port.counters().corrupted_frames, 1);
  EXPECT_EQ(port.counters().corrupted_frames + port.counters().delivered_frames,
            port.counters().tx_frames);

  obs::MetricsRegistry m;
  port.export_metrics(m);
  EXPECT_EQ(m.counter("port.p.q0.enq_frames"), 3);
  EXPECT_EQ(m.counter("port.p.q0.drop_frames"), 1);
  EXPECT_EQ(m.counter("port.p.q0.drop_bytes"), 1500);
  EXPECT_EQ(m.counter("port.p.q0.deq_frames"), 3);
  EXPECT_EQ(m.counter("port.p.q0.queued_frames"), 0);
  EXPECT_EQ(m.counter("port.p.corrupted_frames"), 1);
  EXPECT_EQ(m.counter("port.p.delivered_frames"), 2);
}

TEST(EgressPort, PauseHoldsQueueAndResumeReleases) {
  Simulator sim;
  EgressPort port(sim, "p", gbps(10), 0);
  const int hi = port.add_queue();
  const int lo = port.add_queue();
  Collector sink;
  port.set_deliver(sink.fn(sim));
  port.pause_queue(hi);
  port.enqueue(hi, data_pkt(100, 1));
  port.enqueue(lo, data_pkt(100, 2));
  sim.schedule_at(usec(5), [&] { port.resume_queue(hi); });
  sim.run();
  ASSERT_EQ(sink.pkts.size(), 2u);
  // Low priority went first because high was paused.
  EXPECT_EQ(sink.pkts[0].uid, 2u);
  EXPECT_EQ(sink.pkts[1].uid, 1u);
  EXPECT_GE(sink.times[1], usec(5));
}

TEST(EgressPort, EcnMarksAboveThreshold) {
  Simulator sim;
  EgressPort port(sim, "p", gbps(10), 0);
  const int q = port.add_queue({.ecn_threshold = 2000});
  Collector sink;
  port.set_deliver(sink.fn(sim));
  port.enqueue(q, data_pkt(1500, 1));  // immediately serialized, queue empty
  port.enqueue(q, data_pkt(1500, 2));  // queue depth 0 -> no mark
  port.enqueue(q, data_pkt(1500, 3));  // depth 1500 -> no mark
  port.enqueue(q, data_pkt(1500, 4));  // depth 3000 > 2000 -> mark
  sim.run();
  ASSERT_EQ(sink.pkts.size(), 4u);
  EXPECT_FALSE(sink.pkts[1].tcp.ce);
  EXPECT_FALSE(sink.pkts[2].tcp.ce);
  EXPECT_TRUE(sink.pkts[3].tcp.ce);
  EXPECT_EQ(port.queue_counters(q).ecn_marked, 1);
}

TEST(EgressPort, TransmitHookCanMutate) {
  Simulator sim;
  EgressPort port(sim, "p", gbps(100), 0);
  const int q = port.add_queue();
  port.set_transmit_hook([](Packet& p, int) { p.lg_ack.valid = true; });
  Collector sink;
  port.set_deliver(sink.fn(sim));
  port.enqueue(q, data_pkt(100));
  sim.run();
  ASSERT_EQ(sink.pkts.size(), 1u);
  EXPECT_TRUE(sink.pkts[0].lg_ack.valid);
}

// Frames live in the port's pool slots from enqueue to delivery. One port
// with a byte-limited queue, a paused queue and a queue the transmit hook
// re-arms by enqueue (as LinkGuardian re-arms its dummy queue), and a hook
// that stamps each frame in its slot: every delivered frame carries its
// stamp, each queue stays FIFO, the conservation counters hold, and a tail
// drop takes no slot.
TEST(EgressPort, QueuedFramesLiveInPoolSlotsUntilDelivery) {
  Simulator sim;
  EgressPort port(sim, "p", gbps(10), nsec(100));
  const int limited = port.add_queue({.byte_limit = 3000});
  const int paused = port.add_queue();
  const int fill = port.add_queue();
  std::uint16_t stamps = 0;
  std::uint64_t next_fill = 21;
  port.set_transmit_hook([&](Packet& p, int q) {
    p.lg_ack.valid = true;
    p.lg_ack.latest_rx_seq = stamps++;  // transmission order
    if (q == fill && next_fill <= 24) {
      Packet d = make_control(PktKind::kLgDummy);
      d.uid = next_fill++;
      port.enqueue(fill, std::move(d));
    }
  });
  Collector sink;
  port.set_deliver(sink.fn(sim));

  // uid 1 starts serializing at once; 2 and 3 fill the 3000-byte queue.
  for (std::uint64_t uid = 1; uid <= 3; ++uid)
    EXPECT_TRUE(port.enqueue(limited, data_pkt(1500, uid)));
  const std::size_t slots = port.pool_capacity();
  EXPECT_EQ(slots, 3u);
  EXPECT_FALSE(port.enqueue(limited, data_pkt(1500, 4)));  // tail drop
  EXPECT_EQ(port.pool_capacity(), slots) << "a tail drop must not take a slot";

  port.pause_queue(paused);
  port.enqueue(paused, data_pkt(500, 11));
  port.enqueue(paused, data_pkt(500, 12));
  Packet seed = make_control(PktKind::kLgDummy);
  seed.uid = 20;
  port.enqueue(fill, seed);  // the const& overload copies into a slot
  sim.schedule_at(usec(5), [&] { port.resume_queue(paused); });
  sim.run();

  const std::vector<std::uint64_t> order = {1, 2, 3, 20, 21, 22, 23, 24, 11, 12};
  ASSERT_EQ(sink.pkts.size(), order.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(sink.pkts[i].uid, order[i]) << "delivery " << i;
    EXPECT_TRUE(sink.pkts[i].lg_ack.valid) << "delivery " << i;
    EXPECT_EQ(sink.pkts[i].lg_ack.latest_rx_seq, i) << "delivery " << i;
  }
  EXPECT_GE(sink.times[8], usec(5));  // the paused queue waited for resume

  for (int q : {limited, paused, fill}) {
    const EgressPort::QueueCounters& c = port.queue_counters(q);
    EXPECT_EQ(c.enq_frames,
              c.deq_frames + static_cast<std::int64_t>(port.queue_frames(q)));
    EXPECT_EQ(c.enq_bytes, c.deq_bytes + port.queue_bytes(q));
    EXPECT_EQ(c.deq_frames, c.tx_frames);
  }
  EXPECT_EQ(port.queue_counters(limited).enq_frames, 3);
  EXPECT_EQ(port.queue_counters(limited).drop_frames, 1);
  EXPECT_EQ(port.queue_counters(paused).enq_frames, 2);
  EXPECT_EQ(port.queue_counters(fill).enq_frames, 5);  // 1 seeded + 4 re-armed
  EXPECT_EQ(port.counters().delivered_frames, 10);
  // Slots are recycled: the pool never held more than the peak in flight.
  EXPECT_LE(port.pool_capacity(), 7u);
}

TEST(EgressPort, LossModelDropsFrames) {
  Simulator sim;
  EgressPort port(sim, "p", gbps(100), 0);
  const int q = port.add_queue();
  ScriptedLoss loss({1, 3});  // drop 2nd and 4th frames
  port.set_loss_model(&loss);
  Collector sink;
  port.set_deliver(sink.fn(sim));
  for (int i = 0; i < 5; ++i) port.enqueue(q, data_pkt(100, i));
  sim.run();
  ASSERT_EQ(sink.pkts.size(), 3u);
  EXPECT_EQ(sink.pkts[0].uid, 0u);
  EXPECT_EQ(sink.pkts[1].uid, 2u);
  EXPECT_EQ(sink.pkts[2].uid, 4u);
  EXPECT_EQ(port.counters().corrupted_frames, 2);
  EXPECT_EQ(port.counters().delivered_frames, 3);
  // Every dequeued frame either reached the peer or died on the wire.
  const auto& c = port.counters();
  EXPECT_EQ(port.queue_counters(q).deq_frames,
            c.delivered_frames + c.corrupted_frames);
}

TEST(BernoulliLoss, MatchesConfiguredRate) {
  Rng rng(99);
  BernoulliLoss loss(0.01, rng);
  Packet p;
  int lost = 0;
  const int n = 1'000'000;
  for (int i = 0; i < n; ++i)
    if (loss.lose(0, p)) ++lost;
  EXPECT_NEAR(static_cast<double>(lost) / n, 0.01, 0.001);
}

TEST(GilbertElliottLoss, RateAndBurstiness) {
  const double rate = 0.01;
  const double mean_burst = 1.5;
  GilbertElliottLoss loss(GilbertElliottLoss::for_rate(rate, mean_burst), Rng(7));
  Packet p;
  const int n = 3'000'000;
  int lost = 0;
  int bursts = 0;
  int run = 0;
  lgsim::CountHistogram burst_hist;
  for (int i = 0; i < n; ++i) {
    if (loss.lose(0, p)) {
      ++lost;
      ++run;
    } else {
      if (run > 0) {
        ++bursts;
        burst_hist.add(run);
      }
      run = 0;
    }
  }
  EXPECT_NEAR(static_cast<double>(lost) / n, rate, rate * 0.1);
  const double avg_burst = static_cast<double>(lost) / bursts;
  EXPECT_NEAR(avg_burst, mean_burst, 0.15);
  // Single losses dominate; bursts beyond 5 are very rare (Fig. 20 shape).
  EXPECT_GT(burst_hist.cdf_at(1), 0.6);
  EXPECT_GT(burst_hist.cdf_at(5), 0.995);
}

TEST(PipelineDelay, AddsFixedLatency) {
  Simulator sim;
  std::vector<SimTime> arrivals;
  PipelineDelay pipe(sim, nsec(400), [&](Packet&&) { arrivals.push_back(sim.now()); });
  sim.schedule_at(100, [&] { pipe.accept(Packet{}); });
  sim.run();
  ASSERT_EQ(arrivals.size(), 1u);
  EXPECT_EQ(arrivals[0], 500);
}

}  // namespace
}  // namespace lgsim::net
