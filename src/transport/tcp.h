// Packet-level TCP model: one sender/receiver pair per flow.
//
// This models the transport *reactions* that the paper's FCT experiments
// depend on, following the kernel behaviour the paper cites:
//  - segment-aligned SACK scoreboard with fast retransmit after >= 3 MSS of
//    SACKed bytes above a hole (equivalently 3 dupacks, RFC 6675); the
//    associated cwnd reduction happens at most once per recovery episode —
//    this is exactly the ">2 MSS SACKed => cwnd cut" criterion used by the
//    paper's Fig. 13 flow classification;
//  - a RACK-TLP-style tail-loss probe (PTO ~ 2*SRTT + worst-case delayed-ACK
//    slack) and a classic RTO with exponential backoff, floored at
//    RTOmin = 1 ms like the testbed;
//  - three congestion controllers: DCTCP (ECN fraction alpha), CUBIC
//    (loss-based, beta 0.7) and a simplified BBR (rate-based, loss-agnostic).
//
// Flows complete when every byte has been cumulatively ACKed at the sender,
// which is what the testbed's application-level timestamping measures.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "net/packet.h"
#include "sim/simulator.h"
#include "util/units.h"

namespace lgsim::transport {

enum class TcpCc : std::uint8_t { kDctcp, kCubic, kBbr };

// Fixed stack parameters: the testbed hosts run stock kernel TCP, so these
// are constants of the model, not per-experiment knobs.
inline constexpr std::int32_t kTcpMss = 1448;  // payload bytes per segment
/// Ethernet + IP + TCP(+timestamps) + FCS bytes per frame: payload + 70
/// gives the classic 1518 B frame for an MSS of 1448.
inline constexpr std::int32_t kTcpHeaderBytes = 70;
inline constexpr double kTcpInitCwndSegs = 10.0;
inline constexpr SimTime kTcpRtoMin = msec(1);
/// Worst-case delayed-ACK slack added to the RACK-TLP probe timeout (RFC 8985
/// uses WCDelAckT; Linux adds 2 ms when pacing the probe).
inline constexpr SimTime kTcpTlpSlack = msec(2);
/// DCTCP alpha gain (kernel default 1/16).
inline constexpr double kDctcpG = 0.0625;
inline constexpr double kCubicC = 0.4;
inline constexpr double kCubicBeta = 0.7;
/// BBR steady-state pacing gain applied to the measured bottleneck rate.
inline constexpr double kBbrPacingMargin = 1.0;
/// Receive-window / rmem cap on the congestion window (bytes). Keeps
/// long-running flows bounded the way kernel autotuning does.
inline constexpr double kTcpMaxCwndBytes = 1'500'000;

/// DCTCP is the only ECN-capable controller.
struct TcpConfig {
  TcpCc cc = TcpCc::kDctcp;
};

struct TcpSenderStats {
  std::int64_t segments_sent = 0;      // first transmissions
  std::int64_t retransmissions = 0;    // end-to-end retransmissions
  std::int64_t fast_retransmits = 0;
  std::int64_t tlp_probes = 0;
  std::int64_t rtos = 0;
  std::int64_t cwnd_reductions = 0;    // recovery episodes entered
  std::int64_t ecn_cwnd_reductions = 0;
  std::int64_t max_sacked_bytes = 0;   // max SACKed bytes seen above a hole
  bool ever_sacked = false;            // any SACK block received
  bool sacked_over_2mss = false;       // Fig. 13: ">2 MSS SACKed" condition
  bool sacked_over_2mss_before_done = false;  // ...while data was still pending
  std::int64_t pending_bytes_at_first_cut = -1;  // Fig. 13 group C vs D
  bool reordering_seen = false;        // RACK observed out-of-order delivery
};

class TcpSender {
 public:
  using SendFn = std::function<void(net::Packet&&)>;
  using DoneFn = std::function<void(SimTime fct)>;

  TcpSender(Simulator& sim, const TcpConfig& cfg, std::uint32_t flow_id,
            SendFn send, DoneFn done);

  /// Start transmitting `bytes`. The flow is complete once every byte has
  /// been cumulatively ACKed.
  void start(std::int64_t bytes);

  /// Return the sender to its pristine state so the object can be reused for
  /// the next trial of an FCT experiment (with a fresh flow id, so straggler
  /// packets of a previous trial are ignored). Outstanding timer events are
  /// invalidated via an epoch bump (they check the epoch and bail).
  void reset(std::uint32_t new_flow_id);

  /// Deliver an ACK from the network.
  void on_ack(const net::Packet& ack);

  bool done() const { return done_; }
  double cwnd_bytes() const { return cwnd_; }
  const TcpSenderStats& stats() const { return stats_; }
  std::uint32_t flow_id() const { return flow_id_; }
  /// Bytes not yet handed to the network for the first time.
  std::int64_t pending_tx_bytes() const;

 private:
  enum class SegState : std::uint8_t { kUnsent, kInflight, kSacked, kAcked, kLost };

  std::int32_t seg_payload(std::int64_t seg) const;
  std::int64_t seg_of_byte(std::int64_t byte) const { return byte / kTcpMss; }
  void transmit_segment(std::int64_t seg, bool is_retx);
  void try_send();
  void send_window();
  std::int64_t inflight_bytes() const;
  void process_sack(const net::Packet& ack);
  void detect_losses();
  void enter_recovery(bool from_ecn);
  void on_rtt_sample(SimTime rtt);
  SimTime current_rto() const;
  void arm_timers();
  void schedule_tlp_event(SimTime at);
  void schedule_rto_event(SimTime at);
  void on_tlp_timer();
  void on_rto_timer();
  void cc_on_ack(std::int64_t newly_acked, bool any_ece);
  void cc_on_loss();
  void check_done();
  SimTime pacing_interval(std::int64_t bytes) const;

  Simulator& sim_;
  TcpConfig cfg_;
  std::uint32_t flow_id_;
  SendFn send_;
  DoneFn done_cb_;

  std::int64_t flow_bytes_ = 0;
  std::int64_t n_segs_ = 0;
  std::vector<SegState> segs_;      // ring-indexed per-segment state
  std::vector<SimTime> sent_at_;    // ring-indexed first/last send time
  std::vector<std::uint64_t> retx_flag_;  // ring-indexed bitmap (Karn)
  std::int64_t inflight_ = 0;       // bytes out, neither acked nor sacked/lost
  std::int64_t lost_count_ = 0;     // segments currently marked kLost
  std::int64_t sacked_count_ = 0;   // segments currently marked kSacked
  std::int64_t seg_una_ = 0;   // first unacked segment
  std::int64_t seg_nxt_ = 0;   // next never-sent segment
  bool done_ = false;
  SimTime start_time_ = 0;

  // Congestion state.
  double cwnd_ = 0.0;           // bytes
  double ssthresh_ = 1e18;
  bool in_recovery_ = false;
  std::int64_t recovery_point_ = 0;  // recovery ends when seg_una_ passes it
  // DCTCP.
  double dctcp_alpha_ = 1.0;
  std::int64_t dctcp_acked_ = 0;
  std::int64_t dctcp_marked_ = 0;
  std::int64_t dctcp_window_end_ = 0;  // segment index ending the observation window
  bool dctcp_cut_this_window_ = false;
  // CUBIC.
  double cubic_wmax_ = 0.0;
  SimTime cubic_epoch_start_ = -1;
  // BBR (simplified).
  double bbr_btlbw_ = 0.0;        // bytes/sec estimate
  SimTime bbr_min_rtt_ = 0;
  bool bbr_filled_pipe_ = false;
  double bbr_full_bw_ = 0.0;
  int bbr_full_bw_rounds_ = 0;
  std::int64_t bbr_delivered_ = 0;
  SimTime bbr_delivered_time_ = 0;
  bool pacing_armed_ = false;

  // RACK reordering adaptation (RFC 8985 §7.1): once the connection has
  // observed genuine reordering (a SACKed hole filled by the original
  // transmission), the reordering window opens to srtt/4 and dupack-count
  // loss detection is deferred by it. Long-running connections over a
  // LinkGuardianNB link learn this after the first event — the reason the
  // paper's iperf CUBIC sees no cwnd cuts (Table 3) while fresh short flows
  // still cut (Fig. 13).
  bool reordering_seen_ = false;

  // RTT estimation.
  SimTime srtt_ = 0;
  SimTime rttvar_ = 0;
  bool have_rtt_ = false;

  // Timers. Deadline-based with lazy re-arming: updating a deadline is O(1)
  // and a single pending heap event per timer sleeps until the (possibly
  // moved) deadline — no cancellation on the per-ACK fast path.
  SimTime tlp_deadline_ = -1;
  SimTime rto_deadline_ = -1;
  bool tlp_event_pending_ = false;
  bool rto_event_pending_ = false;
  int rto_backoff_ = 0;
  bool tlp_outstanding_ = false;
  std::uint32_t epoch_ = 0;  // invalidates timer events across reset()

  TcpSenderStats stats_;
};

/// TCP receiver: cumulative ACK + up to 3 SACK blocks + per-packet ECN echo
/// (DCTCP-style immediate CE reflection, no delayed ACKs).
class TcpReceiver {
 public:
  using SendFn = std::function<void(net::Packet&&)>;

  TcpReceiver(std::uint32_t flow_id, SendFn send_ack);

  void on_data(const net::Packet& data);

  /// Reset for reuse across FCT trials; data for other flow ids is ignored.
  void reset(std::uint32_t new_flow_id) {
    flow_id_ = new_flow_id;
    rcv_nxt_ = 0;
    ooo_.clear();
    bytes_received_ = 0;
    ooo_segments_ = 0;
  }

  std::int64_t bytes_received() const { return bytes_received_; }
  std::int64_t acks_sent() const { return acks_sent_; }
  std::int64_t out_of_order_segments() const { return ooo_segments_; }

 private:
  std::uint32_t flow_id_;
  SendFn send_ack_;
  std::int64_t rcv_nxt_ = 0;                 // next expected byte
  std::vector<std::pair<std::int64_t, std::int64_t>> ooo_;  // sorted ranges
  std::int64_t bytes_received_ = 0;
  std::int64_t acks_sent_ = 0;
  std::int64_t ooo_segments_ = 0;
};

}  // namespace lgsim::transport
