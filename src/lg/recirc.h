// The recirculation-loop buffer (§3, §3.3, Appendix B.1).
//
// On the Tofino, the sender's Tx buffer and the receiver's reordering buffer
// are the same mechanism: frames parked on a recirculation loop. A parked
// frame can be acted on only at its next pass through the loop — the
// dominant part of the measured 2-6 us retransmission delay (Fig. 19) — and
// every pass costs one pipeline traversal (Table 4). RecircBuffer models that
// without an event per pass: each entry records when it entered and a random
// phase (where in the loop it sits), from which next_pass() computes its next
// pass and take() the number of passes it made.
#pragma once

#include <cstdint>
#include <utility>

#include "lg/config.h"
#include "net/packet.h"
#include "sim/random.h"
#include "util/ring.h"
#include "util/units.h"

namespace lgsim::lg {

class RecircBuffer {
 public:
  struct Entry {
    net::Packet pkt;
    SimTime entered_at = 0;
    SimTime loop_phase = 0;        // position within the recirculation loop
    bool retx_requested = false;   // reTxReqs bit (sender only)
  };

  /// Reads cfg.recirc_loop on every call; `seed` drives the phase draws.
  RecircBuffer(const LgConfig& cfg, std::uint64_t seed)
      : cfg_(cfg), jitter_(seed) {}

  /// Parks `pkt` at virtual seqNo v (absent) and draws its loop phase. The
  /// slot may be recycled, so every field is assigned. Pass a const Packet&
  /// to park a mirror copy, a Packet&& to park the frame itself.
  template <typename P>
  Entry& insert(std::int64_t v, P&& pkt, SimTime now) {
    Entry& e = ring_.claim(v);
    e.pkt = std::forward<P>(pkt);
    e.entered_at = now;
    e.loop_phase = static_cast<SimTime>(
        jitter_.uniform_int(static_cast<std::uint64_t>(cfg_.recirc_loop)));
    e.retx_requested = false;
    bytes_ += e.pkt.frame_bytes;
    return e;
  }

  /// The entry's next pass through the loop, strictly after now.
  SimTime next_pass(const Entry& e, SimTime now) const {
    const SimTime anchor = e.entered_at + e.loop_phase;
    const SimTime k =
        anchor > now ? 0 : (now - anchor) / cfg_.recirc_loop + 1;
    return anchor + k * cfg_.recirc_loop;
  }

  /// Removes v and adds the loop passes it made by `now` to `loops`; nullptr
  /// if v is absent. The returned entry stays readable until the next insert.
  Entry* take(std::int64_t v, SimTime now, std::int64_t& loops) {
    Entry* e = ring_.find(v);
    if (e == nullptr) return nullptr;
    ring_.erase(v);
    bytes_ -= e->pkt.frame_bytes;
    loops += (now - e->entered_at) / cfg_.recirc_loop + 1;
    return e;
  }

  /// Frame bytes parked.
  std::int64_t bytes() const { return bytes_; }
  std::size_t size() const { return ring_.size(); }
  bool contains(std::int64_t v) const { return ring_.contains(v); }
  Entry* find(std::int64_t v) { return ring_.find(v); }
  template <typename F>
  void for_each_in(std::int64_t first, std::int64_t last, F&& f) {
    ring_.for_each_in(first, last, std::forward<F>(f));
  }
  template <typename F>
  void for_each(F&& f) {
    ring_.for_each(std::forward<F>(f));
  }
  void clear() {
    ring_.clear();
    bytes_ = 0;
  }

 private:
  const LgConfig& cfg_;
  util::SeqRing<Entry> ring_;  // indexed by virtual seqNo
  std::int64_t bytes_ = 0;
  Rng jitter_;
};

}  // namespace lgsim::lg
