// LinkGuardian receiver-switch logic (§3.1-§3.3, §3.5, Appendix A.1).
//
// The receiver watches the protected link's ingress for gaps in the sequence
// numbers, notifies the sender of losses through a high-priority reverse
// queue, keeps the sender's latestRxSeqNo fresh through piggybacked and
// explicit self-replenishing ACKs, and — in the default ordered mode —
// holds out-of-order packets in a recirculation-based reordering buffer
// released strictly in sequence (Algorithm 1), throttling the sender through
// PFC backpressure when the buffer grows (Algorithm 2). A per-gap
// ackNoTimeout (quantized to the switch timer-packet period) prevents
// indefinite stalls when every retransmitted copy is lost.
#pragma once

#include <cstdint>
#include <functional>
#include <variant>

#include "lg/config.h"
#include "lg/seqno.h"
#include "net/packet.h"
#include "net/port.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "util/ring.h"
#include "util/stats.h"

namespace lgsim::lg {

class LgReceiver {
 public:
  struct Stats {
    std::int64_t protected_rx = 0;     // protected data frames received
    std::int64_t retx_rx = 0;          // of which retransmitted copies
    std::int64_t dummy_rx = 0;
    std::int64_t unprotected_rx = 0;
    std::int64_t gaps_detected = 0;    // loss events (contiguous runs)
    std::int64_t reported_lost = 0;    // individual seqNos notified
    std::int64_t notifs_sent = 0;
    std::int64_t dup_dropped = 0;
    std::int64_t late_retx = 0;        // retx arrived after timeout skip
    std::int64_t recovered = 0;        // losses healed by retransmission
    std::int64_t timeouts = 0;         // ackNoTimeout fired (ordered mode)
    std::int64_t expired = 0;          // unrecovered losses (NB bookkeeping)
    std::int64_t effectively_lost = 0; // losses visible to the endpoints
    std::int64_t forwarded = 0;
    std::int64_t forwarded_bytes = 0;  // frame bytes after header strip
    std::int64_t reorder_buffered = 0;
    std::int64_t reorder_drops = 0;    // reordering-buffer overflow
    std::int64_t pauses_sent = 0;
    std::int64_t resumes_sent = 0;
    std::int64_t acks_armed = 0;
    std::int64_t recirc_loops = 0;     // reorder-buffer loop traversals
    std::int64_t recirc_loop_bytes = 0;
    lgsim::PercentileTracker retx_delay_us;       // Fig. 19
  };

  using ForwardFn = std::function<void(net::Packet&&)>;

  /// `rev_port` is the reverse-direction egress port (receiver -> sender)
  /// with three queues: ctrl_q (loss notifications + PFC, highest priority),
  /// rev_normal_q (regular reverse traffic, gets piggybacked ACKs), and
  /// ack_q (self-replenishing explicit ACKs, lowest priority).
  LgReceiver(Simulator& sim, const LgConfig& cfg, net::EgressPort& rev_port,
             int ctrl_q, int rev_normal_q, int ack_q);

  LgReceiver(const LgReceiver&) = delete;
  LgReceiver& operator=(const LgReceiver&) = delete;

  void set_forward_sink(ForwardFn fn) { forward_ = std::move(fn); }

  void enable();
  void disable();
  bool enabled() const { return enabled_; }

  /// Live ordered <-> NB switch (AutoFallback): cfg_.preserve_order is read
  /// per frame, but the reordering state needs an explicit handoff when the
  /// mode flips on a running link — ordered -> NB releases the reordering
  /// buffer in sequence order (and lifts backpressure) so nothing is
  /// stranded; NB -> ordered restarts ordering at the next new frame.
  /// Sequence state is preserved, so in-flight frames keep resolving
  /// correctly (no era reset, unlike a disable()/enable() cycle).
  void on_mode_change();

  /// Frames arriving from the protected (corrupting) link.
  void receive(net::Packet&& p);

  /// Reverse-direction traffic from upstream of the receiver switch; ACK
  /// info is piggybacked onto it at serialization time.
  void send_reverse(net::Packet p);

  /// PFC backpressure currently asserted toward the sender (Algorithm 2).
  bool backpressured() const { return bp_paused_; }

  std::int64_t reorder_buffer_bytes() const { return buffer_bytes_; }
  std::int64_t reorder_buffer_pkts() const { return static_cast<std::int64_t>(buffer_.size()); }

  const Stats& stats() const { return stats_; }
  Stats& mutable_stats() { return stats_; }

 private:
  struct Buffered {
    net::Packet pkt;
    SimTime entered_at = 0;
    SimTime loop_phase = 0;  // where in the recirculation loop it sits
  };

  SeqEra to_wire(std::int64_t v) const;
  std::int64_t resolve_virtual(SeqEra wire) const;

  void handle_protected(net::Packet&& p);
  void handle_dummy(const net::Packet& p);
  void detect_gap(std::int64_t from, std::int64_t to);
  void send_notification(std::int64_t from, std::int64_t count);
  void arm_timeout(std::int64_t v);
  void on_timeout(std::int64_t v);
  void forward_now(net::Packet&& p);
  void advance_ack_no();
  void schedule_release();
  void backpressure_check();
  void send_resume();
  void send_pfc(bool pause);
  void arm_pfc_refresh();
  void ensure_explicit_ack();
  void stamp_ack(net::Packet& p);
  SimTime quantize_up(SimTime t) const;

  Simulator& sim_;
  const LgConfig& cfg_;
  net::EgressPort& rev_port_;
  const int ctrl_q_;
  const int rev_normal_q_;
  const int ack_q_;

  ForwardFn forward_;
  bool enabled_ = false;
  std::int64_t latest_rx_v_ = -1;
  std::int64_t ack_no_v_ = 0;
  // All three are indexed by virtual seqNo.
  util::SeqRing<SimTime> outstanding_;        // missing seq -> detect time
  util::SeqRing<std::monostate> skipped_;     // timed-out holes ahead of ackNo
  util::SeqRing<Buffered> buffer_;            // reordering buffer
  std::int64_t buffer_bytes_ = 0;
  bool bp_paused_ = false;
  bool pfc_refresh_armed_ = false;
  int resume_repeats_ = 0;
  bool release_pending_ = false;
  SimTime last_release_ = -1;
  Rng jitter_;
  Stats stats_;
  std::uint32_t trace_actor_ = 0;  // obs actor id, interned at construction
};

}  // namespace lgsim::lg
