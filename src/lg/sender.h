// LinkGuardian sender-switch logic (§3, §3.4, §3.5, Appendix A.2).
//
// The sender owns the protected link's egress port with three strict-priority
// queues: retransmissions (highest), normal traffic (PFC-pausable), and dummy
// packets (lowest). Every protected packet is stamped with a 16-bit seqNo +
// era bit and a copy is buffered. Buffering is modelled after the Tofino
// implementation's recirculation loop: a buffered copy becomes *actionable*
// only at its next recirculation-loop boundary, which reproduces both the
// measured 2-6 us retransmission delay (Fig. 19) and the recirculation
// overhead accounting (Table 4) without simulating each loop traversal as an
// event.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>

#include "lg/config.h"
#include "lg/seqno.h"
#include "net/packet.h"
#include "net/port.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "util/ring.h"

namespace lgsim::lg {

class LgSender {
 public:
  struct Stats {
    std::int64_t protected_sent = 0;       // original protected data packets
    std::int64_t retx_requests = 0;        // distinct seqNos requested
    std::int64_t retx_copies_sent = 0;     // total copies enqueued
    std::int64_t unknown_retx_requests = 0;// request raced with buffer free
    std::int64_t dropped_requests = 0;     // gap wider than reTxReqs registers
    std::int64_t acks_received = 0;
    std::int64_t pauses_received = 0;
    std::int64_t resumes_received = 0;
    std::int64_t dummies_armed = 0;        // dummy bursts triggered
    std::int64_t recirc_loops = 0;         // total loop traversals (Table 4)
    std::int64_t recirc_loop_bytes = 0;
  };

  /// `port` must already have the three queues created, identified by the
  /// given indices with retx_q < normal_q < dummy_q in priority order.
  LgSender(Simulator& sim, const LgConfig& cfg, net::EgressPort& port,
           int retx_q, int normal_q, int dummy_q);

  LgSender(const LgSender&) = delete;
  LgSender& operator=(const LgSender&) = delete;

  /// Activate protection (control plane, §3.6). Resets sequence state.
  void enable();
  /// Deactivate; flushes the Tx buffer.
  void disable();
  bool enabled() const { return enabled_; }

  /// Datapath entry: a packet to transmit on this link. When protection is
  /// enabled, stamps the LinkGuardian header and buffers a copy; otherwise
  /// passes straight to the normal queue.
  void send(net::Packet&& p);

  /// Reverse-direction control input: cumulative ACKs (explicit or
  /// piggybacked), loss notifications and PFC pause/resume frames.
  void handle_reverse(const net::Packet& p);

  /// Current Tx buffer occupancy in frame bytes.
  std::int64_t tx_buffer_bytes() const { return buffer_bytes_; }
  std::int64_t tx_buffer_pkts() const { return static_cast<std::int64_t>(buffer_.size()); }

  const Stats& stats() const { return stats_; }
  Stats& mutable_stats() { return stats_; }

  /// The virtual (64-bit) sequence number that will be assigned next.
  std::int64_t next_virtual_seq() const { return next_v_; }

 private:
  struct Buffered {
    net::Packet copy;
    SimTime enqueued_at = 0;
    SimTime loop_phase = 0;  // position within the recirculation loop
    bool retx_requested = false;
  };

  SeqEra to_wire(std::int64_t v) const;
  std::int64_t resolve_virtual(SeqEra wire, std::int64_t reference) const;

  void on_transmit(net::Packet& p, int queue);
  void protect_at_egress(net::Packet& p);
  void arm_dummies();
  net::Packet make_dummy() const;
  void advance_latest_rx(std::int64_t v);
  void schedule_loop_check(std::int64_t v, const Buffered& b);
  void run_loop_check(std::int64_t v);
  void account_free(std::int64_t v, const Buffered& b);

  Simulator& sim_;
  const LgConfig& cfg_;
  net::EgressPort& port_;
  const int retx_q_;
  const int normal_q_;
  const int dummy_q_;

  bool enabled_ = false;
  std::uint32_t enable_gen_ = 0;  // enable() count: tags scheduled loop checks
  std::int64_t next_v_ = 0;       // next virtual seq to assign
  std::int64_t latest_rx_v_ = -1; // sender's copy of receiver's latestRxSeqNo
  // Lowest seqNo whose loop check may still be unscheduled: every buffered
  // copy below it has its check scheduled, none at or above it does. Copies
  // are only ever added at next_v_ >= sched_lo_, so an ACK advance need only
  // walk up from here.
  std::int64_t sched_lo_ = 0;
  util::SeqRing<Buffered> buffer_;  // Tx buffer, indexed by virtual seqNo
  std::int64_t buffer_bytes_ = 0;
  Rng jitter_;
  Stats stats_;
  std::uint32_t trace_actor_ = 0;  // obs actor id, interned at construction
};

}  // namespace lgsim::lg
