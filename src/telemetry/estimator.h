// Probe-based per-link loss estimation (the LinkStat idea, ROADMAP item 4).
//
// A LinkProber (probe.h) on the upstream switch emits minimum-size probe
// frames with a 16-bit sequence number every `period` through the same
// egress queue / fiber / loss chain the data takes. This estimator runs on
// the downstream switch: it remembers the last `window` distinct probe
// seqNos in a slot array (slot = seq & (window-1), the click linkstat
// layout) and computes the loss rate over a sliding TAU as
//
//     loss = 1 - (distinct probes received in (now - tau, now])
//                / (probes the schedule says were emitted in that interval)
//
// The emission schedule is recovered from the probes themselves: every probe
// carries its seqNo and emission timestamp, and the prober is driven by a
// PeriodicTask, so `sent_at - seq * period` is an exact, constant origin.
// No clock exchange and no oracle access to the sender is needed; a probe
// stall on the sender shifts the recovered origin forward, which the
// cumulative counters below absorb monotonically.
//
// Determinism contract: the estimator draws no random numbers and performs
// no steady-state allocation (the slot array is sized once in the
// constructor), so attaching one to a cell changes nothing about the cell's
// RNG stream — harness::run_grid byte-identity across LGSIM_BENCH_JOBS is
// preserved (tests/telemetry_off_test.cc pins both properties).
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "util/units.h"

namespace lgsim::telemetry {

/// A windowed loss-rate estimate with its evidence attached. `known` is
/// false until the estimator has seen at least one probe (no schedule -> no
/// denominator); consumers must treat unknown as "no information", never as
/// "0% loss".
struct LossEstimate {
  double rate = 0.0;        // estimated loss fraction in the window, [0, 1]
  bool known = false;       // false: no probe ever seen, nothing to report
  std::int64_t samples = 0; // distinct probes received inside the window
  std::int64_t expected = 0;// probes the schedule emitted inside the window
  SimTime age = -1;         // now - last probe receipt (-1: never received)
};

struct EstimatorConfig {
  /// Sliding window the loss rate is computed over (click's TAU).
  SimTime tau = msec(2);
  /// The prober's emission period; must match the sending LinkProber.
  SimTime period = usec(10);
  /// Distinct sequence numbers remembered (click's WINDOW). Rounded up to a
  /// power of two; must cover at least tau / period or in-window probes
  /// would evict each other.
  std::int64_t window = 512;
};

class SeqWindowEstimator {
 public:
  explicit SeqWindowEstimator(const EstimatorConfig& cfg) : cfg_(cfg) {
    std::int64_t w = 1;
    while (w < cfg_.window) w <<= 1;
    slots_.assign(static_cast<std::size_t>(w), Slot{});
    mask_ = static_cast<std::uint64_t>(w - 1);
  }

  /// Record one received probe. `seq` is the 16-bit wire sequence number,
  /// `sent_at` the emission timestamp the probe carries, `now` the receive
  /// time. Duplicates (same seq, same emission) are counted and ignored;
  /// reordered arrivals land in their slot like any other.
  void on_probe(std::uint16_t seq, SimTime sent_at, SimTime now) {
    // Unwrap the 16-bit seq against the newest virtual seq seen so far
    // (nearest-representative: probes can only be ~window apart in flight,
    // far below the 32k ambiguity radius).
    std::int64_t v;
    if (last_v_ < 0) {
      v = seq;
    } else {
      const auto d = static_cast<std::int16_t>(
          seq - static_cast<std::uint16_t>(last_v_));
      v = last_v_ + d;
    }
    if (v > last_v_) last_v_ = v;

    Slot& s = slots_[static_cast<std::uint64_t>(v) & mask_];
    if (s.valid && s.virt == v) {
      ++duplicates_;
      return;
    }
    s.valid = true;
    s.virt = v;
    s.sent_at = sent_at;
    ++received_;
    last_rx_at_ = now;
    // Exact schedule recovery: emissions happen at origin + v * period.
    // A sender-side stall freezes seq while time advances, so the origin
    // can only move forward; keep the newest.
    const SimTime origin = sent_at - v * cfg_.period;
    if (!origin_known_ || origin > origin_) {
      origin_ = origin;
      origin_known_ = true;
    }
  }

  /// The sliding-window estimate at `now`.
  LossEstimate estimate(SimTime now) const {
    LossEstimate e;
    if (!origin_known_) return e;  // never saw a probe: unknown, not 0%
    e.age = last_rx_at_ >= 0 ? now - last_rx_at_ : -1;
    e.expected = expected_in(now - cfg_.tau, now);
    for (const Slot& s : slots_) {
      if (s.valid && s.sent_at > now - cfg_.tau && s.sent_at <= now)
        ++e.samples;
    }
    if (e.expected <= 0) return e;  // schedule says nothing was sent yet
    e.known = true;
    const double r = 1.0 - static_cast<double>(std::min(e.samples, e.expected)) /
                               static_cast<double>(e.expected);
    e.rate = std::clamp(r, 0.0, 1.0);
    return e;
  }

  /// Cumulative counters in the framesRxOk / framesRxAll shape corruptd
  /// polls (probe units). Both are monotone by construction: a sender stall
  /// shifts the recovered origin forward, which would shrink the naive
  /// expected count, so the cumulative view is clamped to never move
  /// backwards (the stall window simply stops contributing probes).
  std::int64_t cum_expected(SimTime now) const {
    // Sequence-gap accounting: a tick counts as expected only once a probe
    // with that or a later sequence number has *arrived* (<= last_v_ + 1).
    // Pure schedule extrapolation would keep accruing expectations through
    // silence — but the receiver cannot tell a wedged prober from a dead
    // wire, and treating "no evidence" as 100% loss false-activates on a
    // probe stall. The cap defers instead: losses inside a gap are charged
    // when the next probe lands (at most one inter-arrival later under
    // partial loss; a total blackout is charged in full on recovery).
    //
    // Just as important: this makes ok and all advance *atomically at probe
    // arrival*. Any scheme where all comes from the wall clock while ok
    // comes from arrivals carries a small in-flight skew between the two,
    // and that skew turns into phantom loss the moment window composition
    // changes (a sample evicted while a stall has frozen one counter). The
    // schedule bound stays only as a sanity cap: a probe arrives after its
    // own emission tick, so by_time >= by_seq on an in-order wire and the
    // min is inert unless a corrupted timestamp says otherwise.
    const std::int64_t by_seq = last_v_ + 1;  // 0 until the first probe
    const std::int64_t by_time =
        origin_known_ ? expected_in(origin_ - 1, now) : 0;
    const std::int64_t naive = std::min(by_seq, by_time);
    if (naive > cum_expected_hwm_) cum_expected_hwm_ = naive;
    return cum_expected_hwm_;
  }
  std::int64_t cum_received() const {
    // Deliberately NOT clamped against cum_expected: a poller reads ok and
    // all at slightly different effective times (ok now, all behind the
    // in-flight guard), so ok may transiently exceed all by the few probes
    // on the wire. That offset is identical at both ends of a sliding
    // window and cancels out of any windowed rate; a clamp instead would
    // couple this counter to when cum_expected() was last *evaluated*,
    // making ok-deltas go negative right after all-deltas jump — which
    // reads as phantom loss.
    return received_;
  }

  std::int64_t received() const { return received_; }
  std::int64_t duplicates() const { return duplicates_; }
  bool schedule_known() const { return origin_known_; }
  SimTime origin() const { return origin_; }
  const EstimatorConfig& config() const { return cfg_; }
  std::int64_t window_slots() const {
    return static_cast<std::int64_t>(slots_.size());
  }

 private:
  struct Slot {
    std::int64_t virt = 0;   // unwrapped sequence number
    SimTime sent_at = 0;
    bool valid = false;
  };

  /// Emission ticks with origin + k * period in (after, upto], k >= 0.
  std::int64_t expected_in(SimTime after, SimTime upto) const {
    if (upto < origin_) return 0;
    const std::int64_t hi = (upto - origin_) / cfg_.period;  // last tick index
    std::int64_t lo = 0;  // first tick index strictly after `after`
    if (after >= origin_) lo = (after - origin_) / cfg_.period + 1;
    return hi >= lo ? hi - lo + 1 : 0;
  }

  EstimatorConfig cfg_;
  std::vector<Slot> slots_;
  std::uint64_t mask_ = 0;
  std::int64_t last_v_ = -1;          // newest unwrapped seq seen
  std::int64_t received_ = 0;         // distinct probes received (cumulative)
  std::int64_t duplicates_ = 0;
  SimTime last_rx_at_ = -1;
  SimTime origin_ = 0;                // recovered emission schedule origin
  bool origin_known_ = false;
  mutable std::int64_t cum_expected_hwm_ = 0;  // monotone clamp (see above)
};

}  // namespace lgsim::telemetry
