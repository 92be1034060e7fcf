// Switch egress port: strict-priority queues feeding a serializing link.
//
// This is the component LinkGuardian builds on. A port owns N FIFO queues in
// strictly decreasing priority (index 0 highest). Each queue can be
// byte-limited, PFC-paused independently and ECN-marking. LinkGuardian's
// dummy-packet and explicit-ACK queues (§3.1, §3.2) are plain queues of
// strictly lowest priority, so they transmit exactly when every other queue
// is empty; their owners re-arm them with enqueue.
//
// Frames leave the port after their serialization time at the port rate, then
// experience the propagation delay, then an optional corruption loss roll
// (modelling the receiving MAC dropping bad-FCS frames), and finally reach
// the delivery callback (the peer's ingress).
//
// A frame is moved once per port: enqueue moves it into a slot of the port's
// PacketPool (after the byte-limit check, so a tail drop takes no slot), the
// queues hold slot pointers, and the transmit hook, the serialization and
// propagation legs and the delivery callback all work on that slot. The slot
// is released on a corruption drop, when there is no delivery callback, and
// after delivery.
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "net/loss_model.h"
#include "net/packet.h"
#include "net/packet_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/simulator.h"
#include "util/ring.h"
#include "util/units.h"

namespace lgsim::net {

class EgressPort {
 public:
  using DeliverFn = std::function<void(Packet&&)>;
  /// Invoked when a frame starts serializing; may mutate the frame (this is
  /// how LinkGuardian piggybacks the freshest ACK info on reverse traffic).
  using TransmitHook = std::function<void(Packet&, int queue)>;

  struct QueueOpts {
    std::int64_t byte_limit = INT64_MAX;
    /// If >= 0: set CE on kData packets enqueued while queue depth exceeds
    /// this many bytes (DCTCP-style instantaneous marking).
    std::int64_t ecn_threshold = -1;
  };

  /// Per-priority-queue accounting. Conservation invariant (asserted in
  /// net_test.cc): enq_frames == deq_frames + frames in the fifo, and
  /// enq_bytes == deq_bytes + queued bytes — enqueues either dequeue toward
  /// the wire or are still queued; tail drops are counted separately and
  /// never consume queue state.
  struct QueueCounters {
    std::int64_t enq_frames = 0;    // accepted into the fifo
    std::int64_t enq_bytes = 0;     // frame bytes accepted
    std::int64_t drop_frames = 0;   // tail drops from byte limit
    std::int64_t drop_bytes = 0;
    std::int64_t deq_frames = 0;    // left the fifo toward the serializer
    std::int64_t deq_bytes = 0;     // frame bytes at dequeue (pre-hook size)
    std::int64_t tx_frames = 0;
    std::int64_t tx_bytes = 0;      // wire bytes
    std::int64_t ecn_marked = 0;
  };

  struct PortCounters {
    std::int64_t tx_frames = 0;
    std::int64_t tx_wire_bytes = 0;
    std::int64_t corrupted_frames = 0;  // dropped by the peer MAC
    std::int64_t delivered_frames = 0;
  };

 private:
  struct Queue {
    QueueOpts opts;
    util::RingQueue<Packet*> fifo;  // slots of pool_, oldest first
    std::int64_t bytes = 0;
    bool paused = false;
    QueueCounters counters;
  };

 public:
  EgressPort(Simulator& sim, std::string name, BitRate rate, SimTime prop_delay)
      : sim_(sim),
        name_(std::move(name)),
        rate_(rate),
        prop_delay_(prop_delay),
        trace_actor_(obs::intern_actor(name_)) {}

  EgressPort(const EgressPort&) = delete;
  EgressPort& operator=(const EgressPort&) = delete;

  /// Adds a queue at the next (lower) priority level; returns its index.
  int add_queue(QueueOpts opts) {
    queues_.emplace_back();
    queues_.back().opts = opts;
    return static_cast<int>(queues_.size()) - 1;
  }
  int add_queue() { return add_queue(QueueOpts{}); }

  void set_deliver(DeliverFn fn) { deliver_ = std::move(fn); }
  void set_loss_model(LossModel* model) { loss_ = model; }
  void set_transmit_hook(TransmitHook hook) { on_transmit_ = std::move(hook); }

  /// Enqueue into queue `q`. Returns false (and counts a drop) on overflow.
  bool enqueue(int q, Packet&& p) {
    Queue& que = queues_.at(q);
    if (!admit(que, q, p)) return false;
    push(que, q, pool_.acquire(std::move(p)));
    return true;
  }
  /// Enqueue a copy of `p` (a frame sent more than once, e.g. retx copies).
  bool enqueue(int q, const Packet& p) {
    Queue& que = queues_.at(q);
    if (!admit(que, q, p)) return false;
    push(que, q, pool_.acquire(p));
    return true;
  }

  /// PFC-style pause/resume of a single queue. A frame already being
  /// serialized completes; the queue simply stops being scheduled.
  void pause_queue(int q) { queues_.at(q).paused = true; }
  void resume_queue(int q) {
    queues_.at(q).paused = false;
    maybe_start_tx();
  }
  bool queue_paused(int q) const { return queues_.at(q).paused; }

  std::int64_t queue_bytes(int q) const { return queues_.at(q).bytes; }
  std::size_t queue_frames(int q) const { return queues_.at(q).fifo.size(); }

  /// Pool slots ever created: the most frames the port has held at once
  /// (queued, serializing or propagating). A tail drop takes no slot.
  std::size_t pool_capacity() const { return pool_.capacity(); }

  const std::string& name() const { return name_; }

  const QueueCounters& queue_counters(int q) const { return queues_.at(q).counters; }
  const PortCounters& counters() const { return counters_; }

  /// Pushes the port- and per-queue counters into a metrics registry under
  /// `port.<name>` / `port.<name>.q<i>`.
  void export_metrics(obs::MetricsRegistry& m) const {
    const std::string base = "port." + name_;
    m.counter(base + ".tx_frames") = counters_.tx_frames;
    m.counter(base + ".tx_wire_bytes") = counters_.tx_wire_bytes;
    m.counter(base + ".corrupted_frames") = counters_.corrupted_frames;
    m.counter(base + ".delivered_frames") = counters_.delivered_frames;
    for (std::size_t i = 0; i < queues_.size(); ++i) {
      const QueueCounters& c = queues_[i].counters;
      const std::string q = base + ".q" + std::to_string(i);
      m.counter(q + ".enq_frames") = c.enq_frames;
      m.counter(q + ".enq_bytes") = c.enq_bytes;
      m.counter(q + ".drop_frames") = c.drop_frames;
      m.counter(q + ".drop_bytes") = c.drop_bytes;
      m.counter(q + ".deq_frames") = c.deq_frames;
      m.counter(q + ".deq_bytes") = c.deq_bytes;
      m.counter(q + ".tx_frames") = c.tx_frames;
      m.counter(q + ".tx_bytes") = c.tx_bytes;
      m.counter(q + ".ecn_marked") = c.ecn_marked;
      m.counter(q + ".queued_frames") =
          static_cast<std::int64_t>(queues_[i].fifo.size());
      m.counter(q + ".queued_bytes") = queues_[i].bytes;
    }
  }

 private:
  void maybe_start_tx() {
    if (busy_) return;
    const int q = pick_queue();
    if (q < 0) return;
    start_tx(q);
  }

  int pick_queue() const {
    for (std::size_t i = 0; i < queues_.size(); ++i)
      if (!queues_[i].paused && !queues_[i].fifo.empty()) return static_cast<int>(i);
    return -1;
  }

  /// The byte-limit check: counts and traces a tail drop.
  bool admit(Queue& que, int q, const Packet& p) {
    if (que.bytes + p.frame_bytes <= que.opts.byte_limit) return true;
    ++que.counters.drop_frames;
    que.counters.drop_bytes += p.frame_bytes;
    obs::emit(sim_.now(), obs::Cat::kPort, obs::Kind::kDrop, trace_actor_,
              p.frame_bytes, static_cast<std::int64_t>(p.uid),
              static_cast<std::uint16_t>(q));
    return false;
  }

  void push(Queue& que, int q, Packet* slot) {
    Packet& p = *slot;
    if (que.opts.ecn_threshold >= 0 && p.kind == PktKind::kData &&
        que.bytes > que.opts.ecn_threshold) {
      p.tcp.ce = true;
      ++que.counters.ecn_marked;
    }
    que.bytes += p.frame_bytes;
    ++que.counters.enq_frames;
    que.counters.enq_bytes += p.frame_bytes;
    obs::emit(sim_.now(), obs::Cat::kPort, obs::Kind::kEnqueue, trace_actor_,
              p.frame_bytes, static_cast<std::int64_t>(p.uid),
              static_cast<std::uint16_t>(q));
    que.fifo.push_back(slot);
    maybe_start_tx();
  }

  void start_tx(int qi) {
    Queue& q = queues_[qi];
    Packet* slot = q.fifo.front();
    q.fifo.pop_front();
    Packet& p = *slot;
    q.bytes -= p.frame_bytes;
    ++q.counters.deq_frames;
    q.counters.deq_bytes += p.frame_bytes;
    obs::emit(sim_.now(), obs::Cat::kPort, obs::Kind::kDequeue, trace_actor_,
              p.frame_bytes, static_cast<std::int64_t>(p.uid),
              static_cast<std::uint16_t>(qi));
    busy_ = true;

    // The hook runs first: it may mutate the frame (LinkGuardian stamps its
    // header at egress), which changes the bytes that serialize.
    if (on_transmit_) on_transmit_(p, qi);

    // Serialization with sub-nanosecond carry: rounding each frame up would
    // systematically under-run the line rate (~0.8% at 100G for MTU frames).
    const __int128 bits_scaled =
        static_cast<__int128>(p.wire_bytes()) * 8 * kNsecPerSec + frac_carry_;
    const SimTime tx = static_cast<SimTime>(bits_scaled / rate_);
    frac_carry_ = static_cast<std::int64_t>(bits_scaled % rate_);
    ++q.counters.tx_frames;
    q.counters.tx_bytes += p.wire_bytes();
    ++counters_.tx_frames;
    counters_.tx_wire_bytes += p.wire_bytes();

    // The frame stays in its slot for the serialization + propagation chain;
    // the kernel closures capture only {this, slot} and stay inside
    // InlineCallback's inline buffer (no per-event heap allocation).
    auto done = [this, slot] {
      busy_ = false;
      finish_tx(slot);
      maybe_start_tx();
    };
    static_assert(sizeof(done) <= sim::InlineCallback::kInlineBytes);
    sim_.schedule_in(tx, std::move(done));
  }

  void finish_tx(Packet* slot) {
    const Packet& p = *slot;
    const bool lost = loss_ != nullptr && loss_->lose(sim_.now(), p);
    if (lost) {
      ++counters_.corrupted_frames;
      obs::emit(sim_.now(), obs::Cat::kPort, obs::Kind::kCorrupt, trace_actor_,
                p.frame_bytes, static_cast<std::int64_t>(p.uid));
      pool_.release(slot);
      return;  // the peer MAC drops corrupted frames silently
    }
    ++counters_.delivered_frames;
    obs::emit(sim_.now(), obs::Cat::kPort, obs::Kind::kDeliver, trace_actor_,
              p.frame_bytes, static_cast<std::int64_t>(p.uid));
    if (!deliver_) {
      pool_.release(slot);
      return;
    }
    auto arrive = [this, slot] {
      deliver_(std::move(*slot));
      pool_.release(slot);
    };
    static_assert(sizeof(arrive) <= sim::InlineCallback::kInlineBytes);
    sim_.schedule_in(prop_delay_, std::move(arrive));
  }

  Simulator& sim_;
  std::string name_;
  BitRate rate_;
  SimTime prop_delay_;
  std::vector<Queue> queues_;
  DeliverFn deliver_;
  LossModel* loss_ = nullptr;
  TransmitHook on_transmit_;
  PacketPool pool_;  // every frame the port holds: queued, on the wire, in flight
  bool busy_ = false;
  std::int64_t frac_carry_ = 0;  // sub-ns serialization remainder (x rate)
  PortCounters counters_;
  std::uint32_t trace_actor_ = 0;  // interned at construction (run's sink)
};

}  // namespace lgsim::net
