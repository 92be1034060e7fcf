// RoCEv2 RC (reliable connection) model with go-back-N recovery.
//
// Mirrors the NIC-based reliable delivery the paper evaluates
// (RDMA_WRITE over CX5/CX6 NICs, §4): the receiver only accepts the
// expected PSN; an out-of-order arrival elicits a single NAK carrying the
// expected PSN and everything until then is dropped, so the sender rewinds
// and retransmits from that PSN (go-back-N). There is no reordering
// tolerance — which is exactly why LinkGuardianNB gives RDMA little benefit
// beyond avoiding the ~1 ms RTO for tail losses (Fig. 11c).
#pragma once

#include <cstdint>
#include <functional>

#include "net/packet.h"
#include "sim/simulator.h"
#include "util/units.h"

namespace lgsim::transport {

// Fixed NIC parameters (CX5/CX6, the NICs the paper's RDMA runs use).
/// Payload bytes per packet. 1440 reproduces the paper's "24,387 B =
/// 17 packets" with a 1500 B path MTU.
inline constexpr std::int32_t kRdmaPayload = 1440;
/// Eth + IP + UDP + BTH(+RETH) + ICRC + FCS overhead per frame.
inline constexpr std::int32_t kRdmaHeaderBytes = 78;
/// NIC retransmission timeout (the paper measured ~1 ms on CX5/CX6).
inline constexpr SimTime kRdmaRto = msec(1);
/// Max outstanding packets (send window). BDP at 100G/30us is ~260 MTU
/// packets; the NIC effectively keeps the wire full.
inline constexpr std::int64_t kRdmaWindowPkts = 512;

struct RdmaSenderStats {
  std::int64_t packets_sent = 0;
  std::int64_t retransmissions = 0;
  std::int64_t go_back_n_events = 0;  // NAK-triggered rewinds
  std::int64_t rtos = 0;
};

class RdmaSender {
 public:
  using SendFn = std::function<void(net::Packet&&)>;
  using DoneFn = std::function<void(SimTime fct)>;

  RdmaSender(Simulator& sim, std::uint32_t qp, SendFn send, DoneFn done);

  /// Post one RDMA_WRITE of `bytes`; completes when the last PSN is ACKed.
  void start(std::int64_t bytes);

  /// Reset for reuse in back-to-back FCT trials with a fresh QP id
  /// (invalidates stale timers; stragglers from the old QP are ignored).
  void reset(std::uint32_t new_qp);

  /// ACK/NAK arriving from the responder.
  void on_transport(const net::Packet& p);

  bool done() const { return done_; }
  const RdmaSenderStats& stats() const { return stats_; }

 private:
  std::int32_t pkt_payload(std::int64_t psn) const;
  void transmit(std::int64_t psn, bool retx);
  void send_window();
  void arm_rto();
  void schedule_rto_event(SimTime at);
  void on_rto();
  void check_done();

  Simulator& sim_;
  std::uint32_t qp_;
  SendFn send_;
  DoneFn done_cb_;

  std::int64_t msg_bytes_ = 0;
  std::int64_t n_pkts_ = 0;
  std::int64_t snd_una_ = 0;  // first unacked PSN
  std::int64_t snd_nxt_ = 0;  // next PSN to send
  std::int64_t high_water_ = 0;  // highest PSN ever sent + 1 (retx accounting)
  bool done_ = false;
  SimTime start_time_ = 0;
  SimTime rto_deadline_ = -1;
  bool rto_event_pending_ = false;
  std::uint32_t epoch_ = 0;
  RdmaSenderStats stats_;
};

class RdmaReceiver {
 public:
  using SendFn = std::function<void(net::Packet&&)>;

  RdmaReceiver(std::uint32_t qp, SendFn send);

  void on_data(const net::Packet& p);

  /// Reset for reuse across FCT trials; packets for other QPs are ignored.
  void reset(std::uint32_t new_qp) {
    qp_ = new_qp;
    expected_psn_ = 0;
    nak_outstanding_ = false;
    delivered_ = 0;
    naks_sent_ = 0;
    ooo_dropped_ = 0;
  }

  std::int64_t packets_delivered() const { return delivered_; }
  std::int64_t naks_sent() const { return naks_sent_; }
  std::int64_t ooo_dropped() const { return ooo_dropped_; }

 private:
  void send_ack(bool nack, std::int64_t psn);

  std::uint32_t qp_;
  SendFn send_;
  std::int64_t expected_psn_ = 0;
  bool nak_outstanding_ = false;  // RC sends one NAK per OOO episode
  std::int64_t delivered_ = 0;
  std::int64_t naks_sent_ = 0;
  std::int64_t ooo_dropped_ = 0;
};

}  // namespace lgsim::transport
