#include "lg/sender.h"

#include <algorithm>
#include <cassert>

#include "obs/trace.h"

namespace lgsim::lg {

LgSender::LgSender(Simulator& sim, const LgConfig& cfg, net::EgressPort& port,
                   net::EgressPort::QueueOpts normal)
    : sim_(sim),
      cfg_(cfg),
      port_(port),
      buffer_(cfg, cfg.jitter_seed),
      trace_actor_(obs::intern_actor("lg/" + port.name() + "/snd")) {
  port_.add_queue({});
  port_.add_queue(normal);
  [[maybe_unused]] const int dummy_q = port_.add_queue({});
  assert(dummy_q == kDummyQ && "the port must have no queues yet");
  port_.set_transmit_hook([this](net::Packet& p, int q) { on_transmit(p, q); });
}

void LgSender::enable() {
  enabled_ = true;
  ++enable_gen_;
  next_v_ = 0;
  latest_rx_v_ = -1;
  sched_lo_ = 0;
  buffer_.clear();
  // If the link is idle at activation time, arm a dummy burst so that a
  // single-packet flow arriving later is not the only frame that could
  // reveal its own loss.
  arm_dummies();
}

void LgSender::disable() {
  enabled_ = false;
  buffer_.clear();
  if (port_.queue_paused(kNormalQ)) port_.resume_queue(kNormalQ);
}

void LgSender::send(net::Packet&& p) {
  // Protection is applied at egress (on_transmit): if the normal queue drops
  // this packet to congestion, no sequence number is consumed — LinkGuardian
  // masks corruption loss on the wire, not congestion loss in the queue,
  // exactly like the Tofino implementation where the header is added and the
  // copy mirrored in the egress pipeline.
  port_.enqueue(kNormalQ, std::move(p));
}

void LgSender::protect_at_egress(net::Packet& p) {
  const std::int64_t v = next_v_++;
  const SeqEra wire = to_wire(v);
  p.lg.valid = true;
  p.lg.seq = wire.seq;
  p.lg.era = wire.era;
  p.lg.retransmitted = false;
  p.frame_bytes += kLgHeaderBytes;  // 3-byte LinkGuardian data header

  buffer_.insert(v, p, sim_.now());  // egress mirroring: park a copy
  ++stats_.protected_sent;
}

void LgSender::handle_reverse(const net::Packet& p) {
  // Only LinkGuardian's receiver sends PFC frames on this link. disable()
  // lifts the pause locally, and a pause still on the reverse fiber must not
  // re-impose it: nothing would resume it once the receiver stops
  // refreshing.
  if (!enabled_) return;
  if (p.pfc.valid) {
    if (p.pfc.pause) {
      ++stats_.pauses_received;
      obs::emit(sim_.now(), obs::Cat::kPfc, obs::Kind::kPause, trace_actor_,
                stats_.pauses_received, 0, /*aux=received*/ 1);
      port_.pause_queue(kNormalQ);
    } else {
      ++stats_.resumes_received;
      obs::emit(sim_.now(), obs::Cat::kPfc, obs::Kind::kResume, trace_actor_,
                stats_.resumes_received, 0, /*aux=received*/ 1);
      port_.resume_queue(kNormalQ);
    }
  }

  // A loss notification both updates latestRxSeqNo and marks reTxReqs. The
  // marks must land before the loop checks triggered by the latestRx advance,
  // so process them first. Wire seqNos resolve against latestRxSeqNo, or
  // before the first ACK against the last seqNo sent.
  const std::int64_t reference = latest_rx_v_ >= 0 ? latest_rx_v_ : next_v_ - 1;
  if (p.lg_notif.valid) {
    const std::int64_t first = from_wire(
        SeqEra{p.lg_notif.first_missing, p.lg_notif.first_missing_era},
        reference);
    // The hardware provisions kMaxConsecutiveRetx one-bit reTxReqs
    // registers; a wider gap can only mark that many (§3.5).
    const int markable =
        std::min<std::int64_t>(p.lg_notif.count, kMaxConsecutiveRetx);
    obs::emit(sim_.now(), obs::Cat::kLg, obs::Kind::kLossNotif, trace_actor_,
              first, markable, /*aux=received*/ 1);
    if (p.lg_notif.count > markable)
      stats_.dropped_requests += p.lg_notif.count - markable;
    for (int i = 0; i < markable; ++i) {
      const std::int64_t v = first + i;
      RecircBuffer::Entry* e = buffer_.find(v);
      if (e == nullptr) {
        ++stats_.unknown_retx_requests;
        continue;
      }
      if (!e->retx_requested) {
        e->retx_requested = true;
        ++stats_.retx_requests;
      }
    }
  }

  if (p.lg_ack.valid) {
    ++stats_.acks_received;
    const std::int64_t v =
        from_wire(SeqEra{p.lg_ack.latest_rx_seq, p.lg_ack.era}, reference);
    obs::emit(sim_.now(), obs::Cat::kLg, obs::Kind::kAck, trace_actor_, v,
              latest_rx_v_, /*aux=received*/ 1);
    advance_latest_rx(v);
  }
}

void LgSender::advance_latest_rx(std::int64_t v) {
  if (v <= latest_rx_v_) return;
  latest_rx_v_ = v;
  // Every buffered copy with seqNo <= latestRxSeqNo becomes actionable at its
  // next recirculation-loop boundary: retransmit if requested, drop otherwise
  // (Fig. 18). Copies below sched_lo_ are already scheduled and no copy
  // exists at or above next_v_ yet, so the walk schedules each copy exactly
  // once. The clamp leaves copies sent after a stale, over-reaching ACK
  // (one that follows disable()/enable()) for the next advance, exactly as a
  // rescan from the lowest seqNo would.
  const std::int64_t last = std::min(v, next_v_ - 1);
  buffer_.for_each_in(sched_lo_, last,
                      [this](std::int64_t k, const RecircBuffer::Entry& e) {
                        schedule_loop_check(k, e);
                      });
  sched_lo_ = std::max(sched_lo_, last + 1);
}

void LgSender::schedule_loop_check(std::int64_t v, const RecircBuffer::Entry& e) {
  // enable() restarts seqNos at 0: a check from an earlier era names a copy
  // of the current one and must not free it.
  sim_.schedule_at(buffer_.next_pass(e, sim_.now()), [this, v, gen = enable_gen_] {
    if (gen == enable_gen_) run_loop_check(v);
  });
}

void LgSender::run_loop_check(std::int64_t v) {
  RecircBuffer::Entry* e = buffer_.take(v, sim_.now(), stats_.recirc_loops);
  if (e == nullptr) return;
  if (e->retx_requested) {
    // Retransmit N copies through the highest-priority queue. The Tofino
    // uses the multicast primitive to emit all copies in one pass. Each
    // enqueue copies the taken frame into a port slot; the transmit hook it
    // may run inserts nothing into the Tx buffer for retx-queue frames, so
    // the frame is marked and read in place.
    const int n = cfg_.n_retx_copies();
    obs::emit(sim_.now(), obs::Cat::kLg, obs::Kind::kRetx, trace_actor_, v, n);
    e->pkt.lg.retransmitted = true;
    for (int i = 0; i < n; ++i) port_.enqueue(kRetxQ, e->pkt);
    stats_.retx_copies_sent += n;
  }
  obs::emit(sim_.now(), obs::Cat::kLg, obs::Kind::kBufferRelease, trace_actor_,
            v, buffer_.bytes(), /*aux=tx buffer*/ 0);
}

void LgSender::on_transmit(net::Packet& p, int queue) {
  if (!enabled_) return;
  if (queue == kNormalQ && p.kind == net::PktKind::kData && !p.lg.valid) {
    protect_at_egress(p);
  }
  if (!cfg_.tail_loss_detection) return;
  // A dummy reads the seqNo register as it leaves the pipeline, so even a
  // dummy armed before newer data went out reveals the newest tail.
  if (queue == kDummyQ && p.kind == net::PktKind::kLgDummy && next_v_ > 0) {
    const SeqEra wire = to_wire(next_v_ - 1);
    p.lg.seq = wire.seq;
    p.lg.era = wire.era;
    return;
  }
  // Tail-loss handling (§3.2): when the normal queue drains, arm a burst of
  // dummy packets carrying the last assigned seqNo so the receiver can detect
  // the loss of the final data packet without any timeout.
  if (queue == kNormalQ && p.kind == net::PktKind::kData &&
      port_.queue_frames(kNormalQ) == 0) {
    arm_dummies();
  }
}

void LgSender::arm_dummies() {
  if (!enabled_ || !cfg_.tail_loss_detection) return;
  if (next_v_ == 0) return;  // nothing sent yet; nothing to reveal
  if (port_.queue_frames(kDummyQ) > 0) return;
  ++stats_.dummies_armed;
  // Multiple copies guard against the dummy itself being corrupted (§5
  // "Handling bursty losses"): copies = retx copies + 1.
  const int copies = cfg_.n_retx_copies() + 1;
  for (int i = 0; i < copies; ++i) port_.enqueue(kDummyQ, make_dummy());
}

net::Packet LgSender::make_dummy() const {
  net::Packet d = net::make_control(net::PktKind::kLgDummy);
  const std::int64_t last = next_v_ - 1;
  const SeqEra wire = to_wire(last);
  d.lg.valid = true;
  d.lg.seq = wire.seq;
  d.lg.era = wire.era;
  return d;
}

}  // namespace lgsim::lg
