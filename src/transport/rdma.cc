#include "transport/rdma.h"

#include <algorithm>
#include <cassert>

#include "obs/trace.h"

namespace lgsim::transport {

RdmaSender::RdmaSender(Simulator& sim, std::uint32_t qp, SendFn send,
                       DoneFn done)
    : sim_(sim), qp_(qp), send_(std::move(send)), done_cb_(std::move(done)) {}

std::int32_t RdmaSender::pkt_payload(std::int64_t psn) const {
  if (psn + 1 < n_pkts_) return kRdmaPayload;
  return static_cast<std::int32_t>(msg_bytes_ - (n_pkts_ - 1) * kRdmaPayload);
}

void RdmaSender::start(std::int64_t bytes) {
  assert(bytes > 0);
  msg_bytes_ = bytes;
  n_pkts_ = (bytes + kRdmaPayload - 1) / kRdmaPayload;
  start_time_ = sim_.now();
  obs::emit(sim_.now(), obs::Cat::kTransport, obs::Kind::kFlowStart,
            obs::intern_actor("rdma"), bytes, qp_);
  send_window();
  arm_rto();
}

void RdmaSender::transmit(std::int64_t psn, bool retx) {
  net::Packet p;
  p.kind = net::PktKind::kData;
  p.rdma.valid = true;
  p.rdma.qp = qp_;
  p.rdma.op = net::RdmaOp::kData;
  p.rdma.psn = psn;
  p.rdma.last = (psn + 1 == n_pkts_);
  p.frame_bytes = pkt_payload(psn) + kRdmaHeaderBytes;
  p.uid = static_cast<std::uint64_t>(psn);
  if (retx) {
    ++stats_.retransmissions;
  } else {
    ++stats_.packets_sent;
  }
  send_(std::move(p));
}

void RdmaSender::send_window() {
  while (snd_nxt_ < n_pkts_ && snd_nxt_ - snd_una_ < kRdmaWindowPkts) {
    transmit(snd_nxt_, /*retx=*/snd_nxt_ < high_water_);
    ++snd_nxt_;
    if (snd_nxt_ > high_water_) high_water_ = snd_nxt_;
  }
}

void RdmaSender::on_transport(const net::Packet& p) {
  if (done_ || !p.rdma.valid || p.rdma.qp != qp_) return;
  if (p.rdma.op == net::RdmaOp::kAck) {
    // Cumulative: psn is the highest in-order PSN received.
    if (p.rdma.psn + 1 > snd_una_) {
      snd_una_ = p.rdma.psn + 1;
      arm_rto();
    }
  } else if (p.rdma.op == net::RdmaOp::kNack) {
    // Sequence error: rewind to the responder's expected PSN (go-back-N).
    const std::int64_t exp = p.rdma.psn;
    if (exp >= snd_una_ && exp < snd_nxt_) {
      ++stats_.go_back_n_events;
      snd_una_ = std::max(snd_una_, exp);
      snd_nxt_ = snd_una_;
      arm_rto();
    }
  }
  send_window();
  check_done();
}

void RdmaSender::arm_rto() {
  if (snd_una_ >= n_pkts_) {
    rto_deadline_ = -1;
    return;
  }
  rto_deadline_ = sim_.now() + kRdmaRto;
  schedule_rto_event(rto_deadline_);
}

void RdmaSender::schedule_rto_event(SimTime at) {
  if (rto_event_pending_) return;
  rto_event_pending_ = true;
  sim_.schedule_at(at, [this, ep = epoch_] {
    if (ep != epoch_) return;
    rto_event_pending_ = false;
    if (rto_deadline_ < 0 || done_) return;
    if (sim_.now() < rto_deadline_) {
      schedule_rto_event(rto_deadline_);
      return;
    }
    on_rto();
  });
}

void RdmaSender::on_rto() {
  rto_deadline_ = -1;
  if (done_) return;
  ++stats_.rtos;
  // Go-back-N from the last acknowledged packet.
  snd_nxt_ = snd_una_;
  send_window();
  arm_rto();
}

void RdmaSender::check_done() {
  if (done_ || snd_una_ < n_pkts_) return;
  done_ = true;
  rto_deadline_ = -1;
  obs::emit(sim_.now(), obs::Cat::kTransport, obs::Kind::kFlowEnd,
            obs::intern_actor("rdma"), sim_.now() - start_time_, qp_);
  if (done_cb_) done_cb_(sim_.now() - start_time_);
}

void RdmaSender::reset(std::uint32_t new_qp) {
  ++epoch_;
  qp_ = new_qp;
  msg_bytes_ = n_pkts_ = 0;
  snd_una_ = snd_nxt_ = high_water_ = 0;
  done_ = false;
  rto_deadline_ = -1;
  rto_event_pending_ = false;
  stats_ = RdmaSenderStats{};
}

RdmaReceiver::RdmaReceiver(std::uint32_t qp, SendFn send)
    : qp_(qp), send_(std::move(send)) {}

void RdmaReceiver::on_data(const net::Packet& p) {
  if (!p.rdma.valid || p.rdma.op != net::RdmaOp::kData || p.rdma.qp != qp_)
    return;
  if (p.rdma.psn == expected_psn_) {
    ++expected_psn_;
    ++delivered_;
    nak_outstanding_ = false;
    send_ack(/*nack=*/false, expected_psn_ - 1);
    return;
  }
  if (p.rdma.psn > expected_psn_) {
    ++ooo_dropped_;
    // One NAK per out-of-order episode (RC "sequence error" semantics).
    if (!nak_outstanding_) {
      nak_outstanding_ = true;
      ++naks_sent_;
      send_ack(/*nack=*/true, expected_psn_);
    }
    return;
  }
  // Duplicate of an already-delivered packet: re-ACK the current state.
  send_ack(/*nack=*/false, expected_psn_ - 1);
}

void RdmaReceiver::send_ack(bool nack, std::int64_t psn) {
  net::Packet a;
  a.kind = net::PktKind::kTransportAck;
  a.frame_bytes = 64;
  a.rdma.valid = true;
  a.rdma.qp = qp_;
  a.rdma.op = nack ? net::RdmaOp::kNack : net::RdmaOp::kAck;
  a.rdma.psn = psn;
  send_(std::move(a));
}

}  // namespace lgsim::transport
