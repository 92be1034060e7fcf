#include "lg/sender.h"

#include <algorithm>
#include <cassert>

#include "obs/trace.h"

namespace lgsim::lg {

LgSender::LgSender(Simulator& sim, const LgConfig& cfg, net::EgressPort& port,
                   int retx_q, int normal_q, int dummy_q)
    : sim_(sim),
      cfg_(cfg),
      port_(port),
      retx_q_(retx_q),
      normal_q_(normal_q),
      dummy_q_(dummy_q),
      jitter_(cfg.jitter_seed),
      trace_actor_(obs::intern_actor("lg/" + port.name() + "/snd")) {
  port_.set_transmit_hook([this](net::Packet& p, int q) { on_transmit(p, q); });
}

void LgSender::enable() {
  enabled_ = true;
  ++enable_gen_;
  next_v_ = 0;
  latest_rx_v_ = -1;
  sched_lo_ = 0;
  buffer_.clear();
  buffer_bytes_ = 0;
  // If the link is idle at activation time, arm a dummy burst so that a
  // single-packet flow arriving later is not the only frame that could
  // reveal its own loss.
  arm_dummies();
}

void LgSender::disable() {
  enabled_ = false;
  buffer_.clear();
  buffer_bytes_ = 0;
  if (port_.queue_paused(normal_q_)) port_.resume_queue(normal_q_);
}

SeqEra LgSender::to_wire(std::int64_t v) const {
  return SeqEra{static_cast<std::uint16_t>(v & 0xFFFF),
                static_cast<std::uint8_t>((v >> 16) & 1)};
}

std::int64_t LgSender::resolve_virtual(SeqEra wire, std::int64_t reference) const {
  if (reference < 0) {
    // Nothing referenced yet: the wire value must be near the start.
    const std::int32_t d = seq_distance(wire, seq_before_first());
    return d - 1;  // seq 0 era 0 -> d == 1 -> virtual 0
  }
  return reference + seq_distance(wire, to_wire(reference));
}

void LgSender::send(net::Packet&& p) {
  // Protection is applied at egress (on_transmit): if the normal queue drops
  // this packet to congestion, no sequence number is consumed — LinkGuardian
  // masks corruption loss on the wire, not congestion loss in the queue,
  // exactly like the Tofino implementation where the header is added and the
  // copy mirrored in the egress pipeline.
  port_.enqueue(normal_q_, std::move(p));
}

void LgSender::protect_at_egress(net::Packet& p) {
  const std::int64_t v = next_v_++;
  const SeqEra wire = to_wire(v);
  p.lg.valid = true;
  p.lg.seq = wire.seq;
  p.lg.era = wire.era;
  p.lg.retransmitted = false;
  p.frame_bytes += kLgHeaderBytes;  // 3-byte LinkGuardian data header

  // Egress mirroring: buffer the stamped copy, filled in place. The slot may
  // be recycled, so every field is assigned.
  Buffered& b = buffer_.claim(v);
  b.copy = p;
  b.enqueued_at = sim_.now();
  b.loop_phase = static_cast<SimTime>(
      jitter_.uniform_int(static_cast<std::uint64_t>(cfg_.recirc_loop)));
  b.retx_requested = false;
  buffer_bytes_ += p.frame_bytes;

  ++stats_.protected_sent;
}

void LgSender::handle_reverse(const net::Packet& p) {
  if (p.pfc.valid) {
    if (p.pfc.pause) {
      ++stats_.pauses_received;
      obs::emit(sim_.now(), obs::Cat::kPfc, obs::Kind::kPause, trace_actor_,
                stats_.pauses_received, 0, /*aux=received*/ 1);
      port_.pause_queue(normal_q_);
    } else {
      ++stats_.resumes_received;
      obs::emit(sim_.now(), obs::Cat::kPfc, obs::Kind::kResume, trace_actor_,
                stats_.resumes_received, 0, /*aux=received*/ 1);
      port_.resume_queue(normal_q_);
    }
  }
  if (!enabled_) return;

  // A loss notification both updates latestRxSeqNo and marks reTxReqs. The
  // marks must land before the loop checks triggered by the latestRx advance,
  // so process them first.
  if (p.lg_notif.valid) {
    const std::int64_t first =
        resolve_virtual(SeqEra{p.lg_notif.first_missing, p.lg_notif.first_missing_era},
                        latest_rx_v_ >= 0 ? latest_rx_v_ : next_v_ - 1);
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
      Buffered* b = buffer_.find(v);
      if (b == nullptr) {
        ++stats_.unknown_retx_requests;
        continue;
      }
      if (!b->retx_requested) {
        b->retx_requested = true;
        ++stats_.retx_requests;
      }
    }
  }

  if (p.lg_ack.valid) {
    ++stats_.acks_received;
    const std::int64_t v = resolve_virtual(
        SeqEra{p.lg_ack.latest_rx_seq, p.lg_ack.era},
        latest_rx_v_ >= 0 ? latest_rx_v_ : next_v_ - 1);
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
  buffer_.for_each_in(sched_lo_, last, [this](std::int64_t k, Buffered& b) {
    schedule_loop_check(k, b);
  });
  sched_lo_ = std::max(sched_lo_, last + 1);
}

void LgSender::schedule_loop_check(std::int64_t v, const Buffered& b) {
  // Next pass of this copy through the recirculation loop, strictly after
  // now; the per-packet phase models where in the loop the copy sits.
  const SimTime anchor = b.enqueued_at + b.loop_phase;
  const SimTime k =
      anchor > sim_.now() ? 0 : (sim_.now() - anchor) / cfg_.recirc_loop + 1;
  const SimTime when = anchor + k * cfg_.recirc_loop;
  // enable() restarts seqNos at 0: a check from an earlier era names a copy
  // of the current one and must not free it.
  sim_.schedule_at(when, [this, v, gen = enable_gen_] {
    if (gen == enable_gen_) run_loop_check(v);
  });
}

void LgSender::run_loop_check(std::int64_t v) {
  Buffered* b = buffer_.find(v);
  if (b == nullptr) return;
  account_free(v, *b);
  buffer_bytes_ -= b->copy.frame_bytes;
  if (b->retx_requested) {
    // Retransmit N copies through the highest-priority queue. The Tofino
    // uses the multicast primitive to emit all copies in one pass. Each
    // enqueue copies the buffered frame into a port slot; the transmit hook
    // it may run leaves the Tx buffer alone for retx-queue frames. The copy
    // is freed right below, so it is marked in place.
    const int n = cfg_.n_retx_copies();
    obs::emit(sim_.now(), obs::Cat::kLg, obs::Kind::kRetx, trace_actor_, v, n);
    b->copy.lg.retransmitted = true;
    for (int i = 0; i < n; ++i) port_.enqueue(retx_q_, b->copy);
    stats_.retx_copies_sent += n;
  }
  obs::emit(sim_.now(), obs::Cat::kLg, obs::Kind::kBufferRelease, trace_actor_,
            v, buffer_bytes_, /*aux=tx buffer*/ 0);
  buffer_.erase(v);
}

void LgSender::account_free(std::int64_t /*v*/, const Buffered& b) {
  const SimTime lifetime = sim_.now() - b.enqueued_at;
  const std::int64_t loops = lifetime / cfg_.recirc_loop + 1;
  stats_.recirc_loops += loops;
  stats_.recirc_loop_bytes += loops * b.copy.frame_bytes;
}

void LgSender::on_transmit(net::Packet& p, int queue) {
  if (!enabled_) return;
  if (queue == normal_q_ && p.kind == net::PktKind::kData && !p.lg.valid) {
    protect_at_egress(p);
  }
  if (!cfg_.tail_loss_detection) return;
  // A dummy reads the seqNo register as it leaves the pipeline, so even a
  // dummy armed before newer data went out reveals the newest tail.
  if (queue == dummy_q_ && p.kind == net::PktKind::kLgDummy && next_v_ > 0) {
    const SeqEra wire = to_wire(next_v_ - 1);
    p.lg.seq = wire.seq;
    p.lg.era = wire.era;
    return;
  }
  // Tail-loss handling (§3.2): when the normal queue drains, arm a burst of
  // dummy packets carrying the last assigned seqNo so the receiver can detect
  // the loss of the final data packet without any timeout.
  if (queue == normal_q_ && p.kind == net::PktKind::kData &&
      port_.queue_frames(normal_q_) == 0) {
    arm_dummies();
  }
}

void LgSender::arm_dummies() {
  if (!enabled_ || !cfg_.tail_loss_detection) return;
  if (next_v_ == 0) return;  // nothing sent yet; nothing to reveal
  if (port_.queue_frames(dummy_q_) > 0) return;
  ++stats_.dummies_armed;
  // Multiple copies guard against the dummy itself being corrupted (§5
  // "Handling bursty losses"): copies = retx copies + 1.
  const int copies = cfg_.n_retx_copies() + 1;
  for (int i = 0; i < copies; ++i) port_.enqueue(dummy_q_, make_dummy());
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
