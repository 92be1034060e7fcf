#include "transport/tcp.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "obs/trace.h"

namespace lgsim::transport {

namespace {
// Ring capacity for per-segment state. The in-flight window of any modelled
// flow (bounded by cwnd and switch buffers) is far below this, so state can
// be recycled as seg_una advances — this keeps arbitrarily long iperf-style
// flows at O(window) memory.
constexpr std::int64_t kRing = 1 << 16;
constexpr std::int64_t kRingMask = kRing - 1;
}  // namespace

// ---------------------------------------------------------------------------
// Sender
// ---------------------------------------------------------------------------

TcpSender::TcpSender(Simulator& sim, const TcpConfig& cfg, std::uint32_t flow_id,
                     SendFn send, DoneFn done)
    : sim_(sim),
      cfg_(cfg),
      flow_id_(flow_id),
      send_(std::move(send)),
      done_cb_(std::move(done)) {
  segs_.assign(kRing, SegState::kUnsent);
  sent_at_.assign(kRing, 0);
  retx_flag_.assign(kRing / 64, 0);
}

std::int32_t TcpSender::seg_payload(std::int64_t seg) const {
  if (seg + 1 < n_segs_) return kTcpMss;
  return static_cast<std::int32_t>(flow_bytes_ - (n_segs_ - 1) * kTcpMss);
}

std::int64_t TcpSender::pending_tx_bytes() const {
  if (seg_nxt_ >= n_segs_) return 0;
  return flow_bytes_ - seg_nxt_ * kTcpMss;
}

std::int64_t TcpSender::inflight_bytes() const { return inflight_; }

void TcpSender::start(std::int64_t bytes) {
  assert(bytes > 0);
  flow_bytes_ = bytes;
  n_segs_ = (bytes + kTcpMss - 1) / kTcpMss;
  start_time_ = sim_.now();
  obs::emit(sim_.now(), obs::Cat::kTransport, obs::Kind::kFlowStart,
            obs::intern_actor("tcp"), bytes, flow_id_);
  cwnd_ = kTcpInitCwndSegs * kTcpMss;
  dctcp_window_end_ = 0;
  try_send();
  arm_timers();
}

void TcpSender::transmit_segment(std::int64_t seg, bool is_retx) {
  net::Packet p;
  p.kind = net::PktKind::kData;
  p.tcp.valid = true;
  p.tcp.flow = flow_id_;
  p.tcp.seq = seg * kTcpMss;
  p.tcp.payload = seg_payload(seg);
  p.tcp.fin = (seg + 1 == n_segs_);
  p.frame_bytes = p.tcp.payload + kTcpHeaderBytes;
  p.uid = static_cast<std::uint64_t>(seg);

  SegState& st = segs_[seg & kRingMask];
  if (st != SegState::kInflight) inflight_ += p.tcp.payload;
  if (st == SegState::kLost) --lost_count_;
  st = SegState::kInflight;
  sent_at_[seg & kRingMask] = sim_.now();
  if (is_retx) {
    retx_flag_[(seg & kRingMask) >> 6] |= 1ull << (seg & 63);
    ++stats_.retransmissions;
  } else {
    retx_flag_[(seg & kRingMask) >> 6] &= ~(1ull << (seg & 63));
    ++stats_.segments_sent;
  }
  send_(std::move(p));
}

SimTime TcpSender::pacing_interval(std::int64_t bytes) const {
  double rate;  // bytes per second
  if (bbr_filled_pipe_ && bbr_btlbw_ > 0) {
    rate = bbr_btlbw_ * kBbrPacingMargin;
  } else {
    // Startup: pace at 2.885x the current estimate (or an aggressive initial
    // guess from the initial window over the RTT hint).
    const double base = bbr_btlbw_ > 0 ? bbr_btlbw_
                                       : cwnd_ / (30e-6);  // ~init_cwnd / 30us
    rate = 2.885 * base;
  }
  if (rate <= 0) return usec(1);
  return static_cast<SimTime>(static_cast<double>(bytes) * 1e9 / rate) + 1;
}

void TcpSender::try_send() {
  if (done_) return;
  if (cfg_.cc == TcpCc::kBbr) {
    if (pacing_armed_) return;
    // One segment per pacing tick.
    std::int64_t seg = -1;
    if (lost_count_ > 0) {
      for (std::int64_t s = seg_una_; s < seg_nxt_; ++s) {
        if (segs_[s & kRingMask] == SegState::kLost) {
          seg = s;
          break;
        }
      }
    }
    if (seg < 0 && seg_nxt_ < n_segs_ &&
        inflight_bytes() + kTcpMss <= static_cast<std::int64_t>(cwnd_)) {
      seg = seg_nxt_++;
    }
    if (seg < 0) return;
    const bool is_retx = segs_[seg & kRingMask] == SegState::kLost;
    transmit_segment(seg, is_retx);
    pacing_armed_ = true;
    sim_.schedule_in(pacing_interval(seg_payload(seg) + kTcpHeaderBytes), [this] {
      pacing_armed_ = false;
      try_send();
    });
    return;
  }
  send_window();
}

void TcpSender::send_window() {
  // Retransmit marked-lost segments first, then new data, while cwnd allows.
  bool sent = true;
  while (sent) {
    sent = false;
    if (inflight_bytes() + kTcpMss > static_cast<std::int64_t>(std::max(cwnd_, 1.0 * kTcpMss)))
      return;
    if (lost_count_ > 0) {
      for (std::int64_t s = seg_una_; s < seg_nxt_; ++s) {
        if (segs_[s & kRingMask] == SegState::kLost) {
          transmit_segment(s, /*is_retx=*/true);
          sent = true;
          break;
        }
      }
    }
    if (sent) continue;
    if (seg_nxt_ < n_segs_) {
      transmit_segment(seg_nxt_++, /*is_retx=*/false);
      sent = true;
    }
  }
}

void TcpSender::on_rtt_sample(SimTime rtt) {
  if (!have_rtt_) {
    srtt_ = rtt;
    rttvar_ = rtt / 2;
    have_rtt_ = true;
  } else {
    const SimTime err = std::abs(srtt_ - rtt);
    rttvar_ = (3 * rttvar_ + err) / 4;
    srtt_ = (7 * srtt_ + rtt) / 8;
  }
  if (bbr_min_rtt_ == 0 || rtt < bbr_min_rtt_) bbr_min_rtt_ = rtt;
}

void TcpSender::on_ack(const net::Packet& ack) {
  if (done_ || !ack.tcp.valid || ack.tcp.flow != flow_id_) return;
  const bool any_ece = ack.tcp.ece;

  // 1. SACK scoreboard update.
  for (int i = 0; i < ack.tcp.n_sack; ++i) {
    const auto& blk = ack.tcp.sack[i];
    stats_.ever_sacked = true;
    for (std::int64_t b = blk.start; b < blk.end; b += kTcpMss) {
      const std::int64_t s = seg_of_byte(b);
      if (s < seg_una_ || s >= seg_nxt_) continue;
      SegState& st = segs_[s & kRingMask];
      if (st == SegState::kInflight) {
        inflight_ -= seg_payload(s);
        st = SegState::kSacked;
        ++sacked_count_;
      } else if (st == SegState::kLost) {
        st = SegState::kSacked;
        --lost_count_;
        ++sacked_count_;
      }
    }
  }

  // 2. Cumulative ACK advance. A segment is acked when every one of its
  // bytes is covered; the final segment is shorter than the MSS, so it is
  // acked exactly when the whole flow is.
  std::int64_t ack_seg = std::min(ack.tcp.ack / kTcpMss, n_segs_ - 1);
  if (ack.tcp.ack >= flow_bytes_) ack_seg = n_segs_;
  std::int64_t newly_acked = 0;
  SimTime rtt_sample = -1;
  while (seg_una_ < ack_seg && seg_una_ < n_segs_) {
    SegState& st = segs_[seg_una_ & kRingMask];
    if (st == SegState::kInflight) inflight_ -= seg_payload(seg_una_);
    if (st == SegState::kSacked) --sacked_count_;
    if (st == SegState::kLost) --lost_count_;
    if (st != SegState::kAcked) newly_acked += seg_payload(seg_una_);
    // Karn's algorithm: only never-retransmitted segments give RTT samples.
    const bool was_retx =
        (retx_flag_[(seg_una_ & kRingMask) >> 6] >> (seg_una_ & 63)) & 1;
    if (!was_retx && st != SegState::kAcked)
      rtt_sample = sim_.now() - sent_at_[seg_una_ & kRingMask];
    // RACK reordering detection: the cumulative ACK is filling this hole
    // with its *original* transmission while newer data was already SACKed
    // above it — the path (or a link-local retransmitter) reorders.
    if (!was_retx && st == SegState::kInflight && sacked_count_ > 0 &&
        !reordering_seen_) {
      reordering_seen_ = true;
      stats_.reordering_seen = true;
    }
    st = SegState::kAcked;
    // Recycle the ring slot far behind us.
    segs_[(seg_una_ + kRing - 1) & kRingMask] = SegState::kUnsent;
    ++seg_una_;
  }
  if (rtt_sample >= 0) on_rtt_sample(rtt_sample);
  if (newly_acked > 0) {
    rto_backoff_ = 0;
    tlp_outstanding_ = false;
    bbr_delivered_ += newly_acked;
  }

  // 3. Recovery bookkeeping.
  if (in_recovery_ && seg_una_ >= recovery_point_) in_recovery_ = false;

  // 4. Congestion control.
  cc_on_ack(newly_acked, any_ece);

  // 5. SACK-based loss detection (fast retransmit).
  detect_losses();

  arm_timers();
  try_send();
  check_done();
}

void TcpSender::detect_losses() {
  if (sacked_count_ == 0) return;  // nothing SACKed: no scan needed
  // RFC 6675-style: a segment is lost once >= 3 MSS of SACKed bytes sit
  // above it. Scan the window from seg_una_ to the highest SACKed segment.
  std::int64_t highest_sacked = -1;
  for (std::int64_t s = seg_nxt_ - 1; s >= seg_una_; --s) {
    if (segs_[s & kRingMask] == SegState::kSacked) {
      highest_sacked = s;
      break;
    }
  }
  if (highest_sacked < 0) return;

  // Bytes SACKed above each hole; walk backwards accumulating.
  std::int64_t sacked_above = 0;
  std::vector<std::int64_t> to_retx;
  for (std::int64_t s = highest_sacked; s >= seg_una_; --s) {
    const SegState st = segs_[s & kRingMask];
    if (st == SegState::kSacked) {
      sacked_above += seg_payload(s);
      continue;
    }
    if (st == SegState::kInflight && sacked_above >= 3 * kTcpMss) {
      // RACK-style time gate: only declare a transmission lost once it is at
      // least a smoothed RTT old (plus the adaptive reordering window once
      // the connection has seen reordering). This prevents re-marking the
      // same hole on every SACK while its retransmission is in flight, and
      // keeps out-of-order link-local retransmissions from triggering
      // spurious cwnd cuts on connections that learned the path reorders.
      const SimTime reo_wnd = reordering_seen_ ? srtt_ / 4 : 0;
      const SimTime age = sim_.now() - sent_at_[s & kRingMask];
      if (age > std::max<SimTime>(srtt_ + reo_wnd, usec(5)))
        to_retx.push_back(s);
    }
  }
  stats_.max_sacked_bytes = std::max(stats_.max_sacked_bytes, sacked_above);
  if (sacked_above > 2 * kTcpMss) {
    stats_.sacked_over_2mss = true;
    if (pending_tx_bytes() > 0) stats_.sacked_over_2mss_before_done = true;
  }
  if (to_retx.empty()) return;

  if (!in_recovery_) {
    enter_recovery(/*from_ecn=*/false);
    if (stats_.pending_bytes_at_first_cut < 0)
      stats_.pending_bytes_at_first_cut = pending_tx_bytes();
  }
  for (auto it = to_retx.rbegin(); it != to_retx.rend(); ++it) {
    if (segs_[*it & kRingMask] != SegState::kInflight) continue;
    inflight_ -= seg_payload(*it);
    segs_[*it & kRingMask] = SegState::kLost;
    ++lost_count_;
    ++stats_.fast_retransmits;
  }
}

void TcpSender::enter_recovery(bool from_ecn) {
  in_recovery_ = true;
  recovery_point_ = seg_nxt_;
  ++stats_.cwnd_reductions;
  if (from_ecn) ++stats_.ecn_cwnd_reductions;
  cc_on_loss();
}

void TcpSender::cc_on_loss() {
  switch (cfg_.cc) {
    case TcpCc::kDctcp:
      // Packet loss (not ECN): halve like Reno.
      ssthresh_ = std::max(cwnd_ / 2, 2.0 * kTcpMss);
      cwnd_ = ssthresh_;
      break;
    case TcpCc::kCubic:
      cubic_wmax_ = cwnd_;
      ssthresh_ = std::max(cwnd_ * kCubicBeta, 2.0 * kTcpMss);
      cwnd_ = ssthresh_;
      cubic_epoch_start_ = -1;
      break;
    case TcpCc::kBbr:
      break;  // loss-agnostic
  }
}

void TcpSender::cc_on_ack(std::int64_t newly_acked, bool any_ece) {
  if (newly_acked <= 0 && !any_ece) return;
  struct ClampGuard {
    TcpSender* s;
    ~ClampGuard() { s->cwnd_ = std::min(s->cwnd_, kTcpMaxCwndBytes); }
  } clamp{this};
  switch (cfg_.cc) {
    case TcpCc::kDctcp: {
      // DCTCP is the only ECN-capable controller.
      dctcp_acked_ += newly_acked;
      if (any_ece) dctcp_marked_ += std::max<std::int64_t>(newly_acked, kTcpMss);
      if (any_ece && !dctcp_cut_this_window_) {
        // React once per window of data (RFC 8257 §3.3).
        dctcp_cut_this_window_ = true;
        cwnd_ = std::max(cwnd_ * (1.0 - dctcp_alpha_ / 2.0), 2.0 * kTcpMss);
        ++stats_.ecn_cwnd_reductions;
      }
      if (seg_una_ >= dctcp_window_end_) {
        if (dctcp_acked_ > 0) {
          const double f =
              std::min(1.0, static_cast<double>(dctcp_marked_) /
                                static_cast<double>(dctcp_acked_));
          dctcp_alpha_ = (1.0 - kDctcpG) * dctcp_alpha_ + kDctcpG * f;
        }
        dctcp_acked_ = dctcp_marked_ = 0;
        dctcp_cut_this_window_ = false;
        dctcp_window_end_ = seg_nxt_;
      }
      if (in_recovery_) break;
      if (cwnd_ < ssthresh_) {
        cwnd_ += newly_acked;  // slow start
      } else {
        cwnd_ += static_cast<double>(kTcpMss) * newly_acked / cwnd_;
      }
      break;
    }
    case TcpCc::kCubic: {
      if (in_recovery_) break;
      if (cwnd_ < ssthresh_) {
        cwnd_ += newly_acked;
        break;
      }
      if (cubic_epoch_start_ < 0) cubic_epoch_start_ = sim_.now();
      const double t = to_sec(sim_.now() - cubic_epoch_start_);
      const double wmax_seg = cubic_wmax_ / kTcpMss;
      const double k = std::cbrt(wmax_seg * (1.0 - kCubicBeta) / kCubicC);
      const double target_seg = kCubicC * std::pow(t - k, 3.0) + wmax_seg;
      const double target = std::max(target_seg * kTcpMss, cwnd_ + 0.01 * kTcpMss);
      // Approach the cubic target gradually (per-ACK).
      cwnd_ += std::max(0.0, (target - cwnd_)) *
               (static_cast<double>(newly_acked) / std::max(cwnd_, 1.0));
      break;
    }
    case TcpCc::kBbr: {
      // Delivery-rate estimation, one sample per ~RTT.
      if (bbr_delivered_time_ == 0) bbr_delivered_time_ = sim_.now();
      const SimTime span = sim_.now() - bbr_delivered_time_;
      const SimTime round = std::max<SimTime>(srtt_, usec(10));
      if (span >= round) {
        const double rate = static_cast<double>(bbr_delivered_) * 1e9 /
                            static_cast<double>(span);
        bbr_delivered_ = 0;
        bbr_delivered_time_ = sim_.now();
        if (rate > bbr_btlbw_) bbr_btlbw_ = rate;
        if (!bbr_filled_pipe_) {
          if (rate > bbr_full_bw_ * 1.25) {
            bbr_full_bw_ = rate;
            bbr_full_bw_rounds_ = 0;
          } else if (++bbr_full_bw_rounds_ >= 3) {
            bbr_filled_pipe_ = true;
          }
        }
      }
      const double bdp = bbr_btlbw_ * to_sec(std::max<SimTime>(bbr_min_rtt_, usec(1)));
      cwnd_ = std::max(2.0 * bdp, 4.0 * kTcpMss);
      break;
    }
  }
}

SimTime TcpSender::current_rto() const {
  const SimTime base =
      std::max(kTcpRtoMin, have_rtt_ ? srtt_ + 4 * rttvar_ : kTcpRtoMin);
  return base << std::min(rto_backoff_, 10);
}

void TcpSender::arm_timers() {
  if (done_) {
    tlp_deadline_ = rto_deadline_ = -1;
    return;
  }
  if (seg_una_ >= n_segs_) {
    tlp_deadline_ = rto_deadline_ = -1;
    return;
  }
  rto_deadline_ = sim_.now() + current_rto();
  schedule_rto_event(rto_deadline_);
  if (!tlp_outstanding_ && !in_recovery_ && have_rtt_ &&
      inflight_bytes() > 0) {
    tlp_deadline_ = sim_.now() + std::min(2 * srtt_ + kTcpTlpSlack, current_rto());
    schedule_tlp_event(tlp_deadline_);
  } else {
    tlp_deadline_ = -1;
  }
}

void TcpSender::schedule_tlp_event(SimTime at) {
  if (tlp_event_pending_) return;  // the pending event will chase the deadline
  tlp_event_pending_ = true;
  sim_.schedule_at(at, [this, ep = epoch_] {
    if (ep != epoch_) return;
    tlp_event_pending_ = false;
    if (tlp_deadline_ < 0 || done_) return;
    if (sim_.now() < tlp_deadline_) {
      schedule_tlp_event(tlp_deadline_);
      return;
    }
    on_tlp_timer();
  });
}

void TcpSender::schedule_rto_event(SimTime at) {
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
    on_rto_timer();
  });
}

void TcpSender::on_tlp_timer() {
  tlp_deadline_ = -1;
  if (done_) return;
  // Probe with the highest-sequence unacked segment (RFC 8985 §7.3).
  std::int64_t probe = -1;
  for (std::int64_t s = seg_nxt_ - 1; s >= seg_una_; --s) {
    const SegState st = segs_[s & kRingMask];
    if (st == SegState::kInflight || st == SegState::kLost) {
      probe = s;
      break;
    }
  }
  if (probe < 0) return;
  ++stats_.tlp_probes;
  tlp_outstanding_ = true;
  if (segs_[probe & kRingMask] == SegState::kInflight)
    inflight_ -= seg_payload(probe);
  if (segs_[probe & kRingMask] != SegState::kLost) ++lost_count_;
  segs_[probe & kRingMask] = SegState::kLost;
  transmit_segment(probe, /*is_retx=*/true);
  arm_timers();
}

void TcpSender::on_rto_timer() {
  rto_deadline_ = -1;
  if (done_) return;
  ++stats_.rtos;
  ++rto_backoff_;
  // Everything outstanding is presumed lost; go back to slow start.
  for (std::int64_t s = seg_una_; s < seg_nxt_; ++s) {
    SegState& st = segs_[s & kRingMask];
    if (st == SegState::kInflight) {
      inflight_ -= seg_payload(s);
      st = SegState::kLost;
      ++lost_count_;
    } else if (st == SegState::kSacked) {
      st = SegState::kLost;  // conservative: forget SACK info on RTO
      --sacked_count_;
      ++lost_count_;
    }
  }
  ssthresh_ = std::max(cwnd_ / 2, 2.0 * kTcpMss);
  cwnd_ = 1.0 * kTcpMss;
  in_recovery_ = false;
  if (seg_una_ < seg_nxt_) {
    transmit_segment(seg_una_, /*is_retx=*/true);
  }
  arm_timers();
}

void TcpSender::check_done() {
  if (done_ || seg_una_ < n_segs_) return;
  done_ = true;
  tlp_deadline_ = rto_deadline_ = -1;
  obs::emit(sim_.now(), obs::Cat::kTransport, obs::Kind::kFlowEnd,
            obs::intern_actor("tcp"), sim_.now() - start_time_, flow_id_);
  if (done_cb_) done_cb_(sim_.now() - start_time_);
}

void TcpSender::reset(std::uint32_t new_flow_id) {
  ++epoch_;
  flow_id_ = new_flow_id;
  // Clear only the ring slots a finished flow can have touched.
  const std::int64_t used = std::min<std::int64_t>(n_segs_, kRing);
  std::fill(segs_.begin(), segs_.begin() + used, SegState::kUnsent);
  std::fill(retx_flag_.begin(), retx_flag_.begin() + (used + 63) / 64, 0ull);
  flow_bytes_ = n_segs_ = 0;
  inflight_ = 0;
  lost_count_ = sacked_count_ = 0;
  seg_una_ = seg_nxt_ = 0;
  done_ = false;
  cwnd_ = 0;
  ssthresh_ = 1e18;
  in_recovery_ = false;
  recovery_point_ = 0;
  dctcp_alpha_ = 1.0;
  dctcp_acked_ = dctcp_marked_ = 0;
  dctcp_window_end_ = 0;
  dctcp_cut_this_window_ = false;
  cubic_wmax_ = 0;
  cubic_epoch_start_ = -1;
  bbr_btlbw_ = 0;
  bbr_min_rtt_ = 0;
  bbr_filled_pipe_ = false;
  bbr_full_bw_ = 0;
  bbr_full_bw_rounds_ = 0;
  bbr_delivered_ = 0;
  bbr_delivered_time_ = 0;
  pacing_armed_ = false;
  srtt_ = rttvar_ = 0;
  have_rtt_ = false;
  tlp_deadline_ = rto_deadline_ = -1;
  tlp_event_pending_ = rto_event_pending_ = false;
  rto_backoff_ = 0;
  tlp_outstanding_ = false;
  reordering_seen_ = false;
  stats_ = TcpSenderStats{};
}

// ---------------------------------------------------------------------------
// Receiver
// ---------------------------------------------------------------------------

TcpReceiver::TcpReceiver(std::uint32_t flow_id, SendFn send_ack)
    : flow_id_(flow_id), send_ack_(std::move(send_ack)) {}

void TcpReceiver::on_data(const net::Packet& data) {
  if (!data.tcp.valid || data.tcp.payload <= 0) return;
  if (data.tcp.flow != flow_id_) return;  // straggler from a previous trial
  const std::int64_t lo = data.tcp.seq;
  const std::int64_t hi = lo + data.tcp.payload;
  bytes_received_ += data.tcp.payload;

  if (lo <= rcv_nxt_) {
    rcv_nxt_ = std::max(rcv_nxt_, hi);
    // Consume any out-of-order ranges that are now contiguous.
    while (!ooo_.empty() && ooo_.front().first <= rcv_nxt_) {
      rcv_nxt_ = std::max(rcv_nxt_, ooo_.front().second);
      ooo_.erase(ooo_.begin());
    }
  } else {
    ++ooo_segments_;
    // Insert/merge [lo, hi) into the sorted out-of-order list.
    auto it = ooo_.begin();
    while (it != ooo_.end() && it->second < lo) ++it;
    if (it == ooo_.end() || hi < it->first) {
      ooo_.insert(it, {lo, hi});
    } else {
      it->first = std::min(it->first, lo);
      it->second = std::max(it->second, hi);
      auto next = std::next(it);
      while (next != ooo_.end() && next->first <= it->second) {
        it->second = std::max(it->second, next->second);
        next = ooo_.erase(next);
      }
    }
  }

  net::Packet ack;
  ack.kind = net::PktKind::kTransportAck;
  ack.frame_bytes = kTcpHeaderBytes;
  ack.tcp.valid = true;
  ack.tcp.flow = flow_id_;
  ack.tcp.ack = rcv_nxt_;
  ack.tcp.payload = 0;
  // Immediate per-packet CE echo (DCTCP-style; the sender ignores it unless
  // ECN-capable).
  ack.tcp.ece = data.tcp.ce;
  ack.tcp.n_sack = static_cast<std::uint8_t>(std::min<std::size_t>(ooo_.size(), 3));
  for (int i = 0; i < ack.tcp.n_sack; ++i) {
    ack.tcp.sack[i].start = ooo_[i].first;
    ack.tcp.sack[i].end = ooo_[i].second;
  }
  ++acks_sent_;
  send_ack_(std::move(ack));
}

}  // namespace lgsim::transport
