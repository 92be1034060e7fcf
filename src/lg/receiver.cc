#include "lg/receiver.h"

#include <algorithm>
#include <cassert>

#include "obs/trace.h"

namespace lgsim::lg {

LgReceiver::LgReceiver(Simulator& sim, const LgConfig& cfg,
                       net::EgressPort& rev_port,
                       net::EgressPort::QueueOpts normal)
    : sim_(sim),
      cfg_(cfg),
      rev_port_(rev_port),
      buffer_(cfg, cfg.jitter_seed ^ 0x9e3779b97f4a7c15ULL),
      trace_actor_(obs::intern_actor("lg/" + rev_port.name() + "/rcv")) {
  rev_port_.add_queue({});
  rev_port_.add_queue(normal);
  [[maybe_unused]] const int ack_q = rev_port_.add_queue({});
  assert(ack_q == kAckQ && "the port must have no queues yet");
  // Piggyback the freshest cumulative ACK on every reverse frame as it starts
  // serializing (§3.1). Explicit ACK packets get the same stamp.
  rev_port_.set_transmit_hook([this](net::Packet& p, int q) {
    if (q == kRevNormalQ || q == kAckQ) stamp_ack(p);
  });
}

void LgReceiver::enable() {
  enabled_ = true;
  ++enable_gen_;
  latest_rx_v_ = -1;
  ack_no_v_ = 0;
  outstanding_.clear();
  skipped_.clear();
  buffer_.clear();
  bp_paused_ = false;
  release_pending_ = false;
  last_release_ = -1;
}

void LgReceiver::disable() {
  enabled_ = false;
  // Flush the reordering buffer in sequence order so nothing is stranded.
  buffer_.for_each([this](std::int64_t, RecircBuffer::Entry& e) {
    forward_now(std::move(e.pkt));
  });
  buffer_.clear();
  outstanding_.clear();
  skipped_.clear();
  if (bp_paused_) {
    net::Packet r = net::make_control(net::PktKind::kPfcResume);
    r.pfc.valid = true;
    r.pfc.pause = false;
    rev_port_.enqueue(kCtrlQ, std::move(r));
    bp_paused_ = false;
  }
}

void LgReceiver::on_mode_change() {
  if (!enabled_) return;
  if (!cfg_.preserve_order) {
    // Ordered -> NB: release the reordering buffer in sequence order — NB
    // forwards out of order from here on, so anything left buffered would be
    // stranded forever. Holes stop gating delivery but stay outstanding_, so
    // a retransmitted copy still counts as recovered, not duplicate.
    buffer_.for_each([this](std::int64_t v, RecircBuffer::Entry& e) {
      obs::emit(sim_.now(), obs::Cat::kLg, obs::Kind::kBufferRelease,
                trace_actor_, v, 0, /*aux=mode flush*/ 2);
      forward_now(std::move(e.pkt));
    });
    buffer_.clear();
    skipped_.clear();
    ack_no_v_ = latest_rx_v_ + 1;
    // Lift backpressure exactly as Algorithm 2 does, control copies and
    // resume repeats included: the sender's pause never expires on its own,
    // so a single lost resume frame would stall the normal queue for good.
    if (bp_paused_) send_resume();
  } else {
    // NB -> ordered: everything at or below latestRxSeqNo was already
    // forwarded (or expired) out of order; ordering restarts from the next
    // new sequence number. Unrecovered NB-era holes expire through their
    // already-armed timeouts.
    ack_no_v_ = latest_rx_v_ + 1;
    skipped_.clear();
  }
}

SimTime LgReceiver::quantize_up(SimTime t) const {
  // Timekeeping on the switch runs off the packet-generator timer stream
  // (10 Mpps in the paper); deadlines land on the next timer tick.
  const SimTime p = kTimerPeriod;
  if (p <= 1) return t;
  return (t + p - 1) / p * p;
}

void LgReceiver::receive(net::Packet&& p) {
  if (!enabled_ || !p.lg.valid) {
    ++stats_.unprotected_rx;
    if (p.kind == net::PktKind::kLgDummy) return;  // stale dummy after disable
    if (forward_) forward_(std::move(p));
    return;
  }
  if (p.kind == net::PktKind::kLgDummy) {
    handle_dummy(p);
    return;
  }
  handle_protected(std::move(p));
}

void LgReceiver::handle_dummy(const net::Packet& p) {
  ++stats_.dummy_rx;
  const std::int64_t v_last = from_wire(SeqEra{p.lg.seq, p.lg.era}, latest_rx_v_);
  if (v_last > latest_rx_v_) {
    // Everything between the previous latestRxSeqNo and the dummy's seqNo was
    // transmitted and lost: this is a (possibly multi-packet) tail loss.
    const std::int64_t from = latest_rx_v_ + 1;
    latest_rx_v_ = v_last;
    detect_gap(from, v_last);
    ensure_explicit_ack();
  }
}

void LgReceiver::handle_protected(net::Packet&& p) {
  ++stats_.protected_rx;
  if (p.lg.retransmitted) ++stats_.retx_rx;

  const std::int64_t v = from_wire(SeqEra{p.lg.seq, p.lg.era}, latest_rx_v_);
  const std::int64_t old_latest = latest_rx_v_;

  if (v > old_latest) {
    latest_rx_v_ = v;
    if (v > old_latest + 1) {
      // Gap in the sequence numbers: packets (old_latest+1 .. v-1) were lost.
      detect_gap(old_latest + 1, v - 1);
    }
    ensure_explicit_ack();
  }

  bool was_outstanding = false;
  SimTime hole_detected_at = 0;
  if (const SimTime* detected = outstanding_.find(v)) {
    was_outstanding = true;
    hole_detected_at = *detected;
    outstanding_.erase(v);
  }
  // Recovery is credited only where the packet is actually accepted: a retx
  // that fills a hole ackNo already moved past (live NB -> ordered switch)
  // is an endpoint-visible loss, not a recovery.
  const auto credit_recovery = [&] {
    ++stats_.recovered;
    stats_.retx_delay_us.add(to_usec(sim_.now() - hole_detected_at));
    obs::emit(sim_.now(), obs::Cat::kLg, obs::Kind::kRecover, trace_actor_, v,
              sim_.now() - hole_detected_at);
  };

  if (!cfg_.preserve_order) {
    // LinkGuardianNB: forward out of order; de-duplicate retransmitted
    // copies (a copy is a duplicate iff its seqNo is not a hole).
    if (v <= old_latest && !was_outstanding) {
      ++stats_.dup_dropped;
      return;
    }
    if (was_outstanding) credit_recovery();
    forward_now(std::move(p));
    return;
  }

  // Algorithm 1: de-duplication & in-order recovery. De-duplication comes
  // first: a retransmitted copy whose original is already sitting in the
  // reordering buffer must be dropped even if ackNo has just reached it
  // (the buffered original is what the pending release will forward).
  if (v >= ack_no_v_ &&
      (buffer_.contains(v) || skipped_.contains(v))) {
    ++stats_.dup_dropped;
    return;
  }
  if (v == ack_no_v_) {
    if (was_outstanding) credit_recovery();
    forward_now(std::move(p));
    ++ack_no_v_;
    advance_ack_no();
    return;
  }
  if (v > ack_no_v_) {
    if (buffer_.bytes() + p.frame_bytes > cfg_.recirc_buffer_bytes) {
      // The recirculation buffer overflowed (this is what Fig. 9b shows when
      // backpressure is disabled) — the packet is lost to the endpoints.
      ++stats_.reorder_drops;
      ++stats_.effectively_lost;
      obs::emit(sim_.now(), obs::Cat::kLg, obs::Kind::kDrop, trace_actor_, v,
                buffer_.bytes());
      // The hole it leaves will be skipped by the ackNo timeout machinery:
      // mark it skipped immediately so the stream is not stalled forever.
      skipped_.emplace(v, {});
      advance_ack_no();
      return;
    }
    if (was_outstanding) credit_recovery();
    ++stats_.reorder_buffered;
    buffer_.insert(v, std::move(p), sim_.now());
    backpressure_check();
    advance_ack_no();
    return;
  }
  // v < ack_no_v_: duplicate, or a retransmission arriving after ackNo
  // already moved past its hole. The latter is only reachable through a live
  // NB -> ordered switch (ordered-mode ackNo passes a hole exclusively by
  // erasing it from outstanding_ first); the original was never forwarded
  // and in-order delivery can no longer include it, so it is counted as an
  // endpoint-visible loss rather than a recovery.
  if (was_outstanding) {
    ++stats_.late_retx;
    ++stats_.effectively_lost;
    obs::emit(sim_.now(), obs::Cat::kLg, obs::Kind::kDrop, trace_actor_, v,
              0, /*aux=stranded retx*/ 2);
  }
  ++stats_.dup_dropped;
}

void LgReceiver::detect_gap(std::int64_t from, std::int64_t to) {
  ++stats_.gaps_detected;
  const std::int64_t count = to - from + 1;
  stats_.reported_lost += count;
  obs::emit(sim_.now(), obs::Cat::kLg, obs::Kind::kGapDetect, trace_actor_,
            from, to);
  for (std::int64_t v = from; v <= to; ++v) {
    outstanding_.emplace(v, sim_.now());
    arm_timeout(v);
  }
  send_notification(from, count);
}

void LgReceiver::send_notification(std::int64_t from, std::int64_t count) {
  obs::emit(sim_.now(), obs::Cat::kLg, obs::Kind::kLossNotif, trace_actor_,
            from, count, /*aux=sent*/ 0);
  for (int c = 0; c < cfg_.loss_notif_copies; ++c) {
    net::Packet n = net::make_control(net::PktKind::kLgLossNotif);
    const SeqEra wire = to_wire(from);
    n.lg_notif.valid = true;
    n.lg_notif.first_missing = wire.seq;
    n.lg_notif.first_missing_era = wire.era;
    n.lg_notif.count = static_cast<std::uint16_t>(std::min<std::int64_t>(count, 0xFFFF));
    stamp_ack(n);  // carries latestRxSeqNo as well (§A.1)
    rev_port_.enqueue(kCtrlQ, std::move(n));
    ++stats_.notifs_sent;
  }
}

void LgReceiver::arm_timeout(std::int64_t v) {
  const SimTime deadline = quantize_up(sim_.now() + cfg_.ack_no_timeout);
  // enable() restarts seqNos at 0: a timeout from an earlier era names a
  // hole of the current one and must not expire it.
  sim_.schedule_at(deadline, [this, v, gen = enable_gen_] {
    if (gen == enable_gen_) on_timeout(v);
  });
}

void LgReceiver::on_timeout(std::int64_t v) {
  if (!outstanding_.erase(v)) return;  // recovered in time
  ++stats_.effectively_lost;
  if (!cfg_.preserve_order) {
    // NB mode has no ackNo to stall; this is bookkeeping of an unrecovered
    // loss that the endpoint transport must now deal with.
    ++stats_.expired;
    return;
  }
  ++stats_.timeouts;
  obs::emit(sim_.now(), obs::Cat::kLg, obs::Kind::kTimeout, trace_actor_, v);
  // Ignore the lost packet and move on (§3.5 "Preventing transmission
  // stalls"): the hole is skipped and any buffered successors drain. A hole
  // already behind ackNo (an NB-era timeout firing after a live switch back
  // to ordered mode) needs no skip marker — ackNo never revisits it.
  if (v >= ack_no_v_) skipped_.emplace(v, {});
  advance_ack_no();
}

void LgReceiver::forward_now(net::Packet&& p) {
  p.frame_bytes -= kLgHeaderBytes;
  p.lg.valid = false;
  ++stats_.forwarded;
  stats_.forwarded_bytes += p.frame_bytes;
  if (forward_) forward_(std::move(p));
}

void LgReceiver::advance_ack_no() {
  if (release_pending_) return;  // the in-flight release continues the chain
  while (skipped_.erase(ack_no_v_)) ++ack_no_v_;
  if (buffer_.contains(ack_no_v_)) schedule_release();
}

void LgReceiver::schedule_release() {
  const RecircBuffer::Entry* head = buffer_.find(ack_no_v_);
  assert(head != nullptr);
  const SimTime spacing =
      serialization_time(head->pkt.wire_bytes(), kRecircDrainRate);
  // The head of a fresh drain waits for its next pass through the
  // recirculation loop (its position in the loop is the random per-packet
  // phase); once the chain is flowing, buffered packets are spread through
  // the loop and releases stream at the drain rate (§3.3: "the
  // recirculation-based buffer drains at 100G").
  const bool chain_idle =
      last_release_ < 0 || sim_.now() - last_release_ > cfg_.recirc_loop;
  const SimTime when = chain_idle
                           ? buffer_.next_pass(*head, sim_.now())
                           : std::max(sim_.now(), last_release_ + spacing);
  release_pending_ = true;
  // A release from an earlier era is void: enable() cleared release_pending_,
  // and the current era runs its own chain.
  sim_.schedule_at(when, [this, gen = enable_gen_] {
    if (gen != enable_gen_) return;
    release_pending_ = false;
    RecircBuffer::Entry* released =
        buffer_.take(ack_no_v_, sim_.now(), stats_.recirc_loops);
    if (released == nullptr) {
      // The head moved while this release was in flight (e.g. an
      // ackNoTimeout skipped it); restart the advance logic so buffered
      // successors are not stranded.
      if (enabled_) advance_ack_no();
      return;
    }
    last_release_ = sim_.now();
    obs::emit(sim_.now(), obs::Cat::kLg, obs::Kind::kBufferRelease,
              trace_actor_, ack_no_v_, buffer_.bytes(), /*aux=rx buffer*/ 1);
    // Forwarding inserts nothing, so the frame is forwarded from its slot.
    forward_now(std::move(released->pkt));
    ++ack_no_v_;
    backpressure_check();
    advance_ack_no();
  });
}

void LgReceiver::backpressure_check() {
  if (!cfg_.backpressure || !cfg_.preserve_order) return;
  // Algorithm 2. curr_state is bp_paused_.
  if (buffer_.bytes() >= cfg_.pause_threshold && !bp_paused_) {
    bp_paused_ = true;
    ++stats_.pauses_sent;
    obs::emit(sim_.now(), obs::Cat::kPfc, obs::Kind::kPause, trace_actor_,
              buffer_.bytes(), 0, /*aux=sent*/ 0);
    send_pfc(true);
    arm_pfc_refresh();
  } else if (buffer_.bytes() <= cfg_.resume_threshold && bp_paused_) {
    send_resume();
  }
}

void LgReceiver::send_resume() {
  bp_paused_ = false;
  ++stats_.resumes_sent;
  obs::emit(sim_.now(), obs::Cat::kPfc, obs::Kind::kResume, trace_actor_,
            buffer_.bytes(), 0, /*aux=sent*/ 0);
  send_pfc(false);
  // Repeat the resume a few refresh periods (the timer-packet stream keeps
  // carrying the state on hardware) so a corrupted resume frame cannot
  // deadlock the sender under bidirectional corruption.
  resume_repeats_ = 4;
  arm_pfc_refresh();
}

void LgReceiver::send_pfc(bool pause) {
  for (int c = 0; c < cfg_.control_copies; ++c) {
    net::Packet f = net::make_control(pause ? net::PktKind::kPfcPause
                                            : net::PktKind::kPfcResume);
    f.pfc.valid = true;
    f.pfc.pause = pause;
    rev_port_.enqueue(kCtrlQ, std::move(f));
  }
}

void LgReceiver::arm_pfc_refresh() {
  if (pfc_refresh_armed_) return;
  pfc_refresh_armed_ = true;
  sim_.schedule_in(kPfcRefreshPeriod, [this] {
    pfc_refresh_armed_ = false;
    if (!enabled_ || !cfg_.backpressure) return;
    if (bp_paused_) {
      send_pfc(true);
      arm_pfc_refresh();
    } else if (resume_repeats_ > 0) {
      --resume_repeats_;
      send_pfc(false);
      arm_pfc_refresh();
    }
  });
}

void LgReceiver::ensure_explicit_ack() {
  // One explicit minimum-size ACK is kept in the strictly-lowest-priority
  // queue whenever there is fresh ACK state to convey; it transmits the
  // moment the reverse link has nothing better to send and is re-armed on
  // the next advance (§3.1). The header contents are stamped at serialization
  // time, so a queued ACK always carries the freshest latestRxSeqNo.
  if (rev_port_.queue_frames(kAckQ) > 0) return;
  ++stats_.acks_armed;
  for (int c = 0; c < cfg_.control_copies; ++c) {
    net::Packet a = net::make_control(net::PktKind::kLgAck);
    rev_port_.enqueue(kAckQ, std::move(a));
  }
}

void LgReceiver::stamp_ack(net::Packet& p) {
  if (!enabled_ || latest_rx_v_ < 0) return;
  const SeqEra wire = to_wire(latest_rx_v_);
  p.lg_ack.valid = true;
  p.lg_ack.latest_rx_seq = wire.seq;
  p.lg_ack.era = wire.era;
}

void LgReceiver::send_reverse(net::Packet&& p) {
  rev_port_.enqueue(kRevNormalQ, std::move(p));
}

}  // namespace lgsim::lg
