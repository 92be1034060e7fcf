// Discrete-event simulation kernel.
//
// A single-threaded event loop ordered by (time, sequence). The sequence
// number makes scheduling stable: events scheduled earlier at the same
// timestamp run first, which the protocol logic relies on (e.g. a loss
// notification enqueued before an ACK at the same instant is delivered
// first).
//
// Hot-path design (see DESIGN.md "Event kernel"):
//
//   * Callbacks live in slot-indexed event records (`InlineCallback`, 64-byte
//     inline storage, no heap fallback), recycled through a freelist. The
//     scheduling fast path is one placement-construction into a recycled
//     slot; the steady state allocates nothing.
//   * The ready queue is two sorted lanes of 24-byte POD entries
//     {time, seq, id}: a run lane (a ring) and an owned 4-ary heap. In a
//     packet workload some far-future event (a horizon stop, a periodic
//     task's next fire, a host-delay pipeline) nearly always sits at the
//     run lane's back, and most new events land a few places behind the
//     earliest pending one. So a new event
//       - that is not before the lane's back is appended in O(1);
//       - that belongs within the lane's first kNearScan entries is inserted
//         there (found by a scan from the front, at most kNearScan entries);
//       - otherwise goes to the heap.
//     Pop takes the smaller of the two lane heads, so the global (time, seq)
//     order is exactly that of a single priority queue. Sifts move PODs
//     (memcpy), never callables. See DESIGN.md §9 for the measured share of
//     events each rule takes.
//   * Cancellation is O(1): an `EventId` encodes {slot, generation}; cancel
//     destroys the callback immediately and bumps the slot generation, so
//     the stale queue entry is recognized (generation mismatch) and skipped
//     when it surfaces. Ids are never logically reused: a recycled slot gets
//     a fresh generation, so a stale id can never match a later event.
//
// Counter semantics are kept bit-compatible with the original lazy-deletion
// kernel (these counters are exported into trace goldens): `cancel_backlog`
// grows by one per cancel request and shrinks when the cancelled entry pops
// out of the queue, so a stale cancel (the event already fired) inflates the
// backlog forever, exactly as the old remembered-id list did; and
// `cancelled_skipped` counts entries discarded at pop time.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "sim/event.h"
#include "util/ring.h"
#include "util/units.h"

namespace lgsim {

class Simulator {
 public:
  using Callback = sim::InlineCallback;

  /// Opaque handle for cancellation. Zero is "no event". Encodes
  /// {generation:40, slot:24}; generations start at 1 so a valid id is never
  /// zero, and a slot's generation skips the all-zero pattern on wraparound.
  using EventId = std::uint64_t;

  /// Event-loop internals surfaced for observability (obs::MetricsRegistry).
  /// `cancelled_skipped` counts events actually discarded at pop time, which
  /// can lag `cancel_requests`; the difference that never drains is the
  /// backlog of cancels whose events already fired.
  struct Counters {
    std::uint64_t scheduled = 0;
    std::uint64_t executed = 0;
    std::uint64_t cancel_requests = 0;
    std::uint64_t cancelled_skipped = 0;
    std::uint64_t peak_heap_depth = 0;
  };

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime now() const { return now_; }

  /// Schedule `cb` to run at absolute time `t` (must be >= now()). The
  /// callable is constructed directly into a recycled event slot; it must
  /// fit InlineCallback's inline buffer (compile-time enforced).
  template <typename F>
  EventId schedule_at(SimTime t, F&& cb) {
    std::uint32_t s;
    if (!free_slots_.empty()) {
      s = free_slots_.back();
      free_slots_.pop_back();
    } else {
      s = slot_count_++;
      if (s > kSlotMask) slot_overflow();
      if ((s & kChunkMask) == 0)
        chunks_.push_back(std::make_unique<Slot[]>(kChunkSize));
    }
    Slot& slot = slot_ref(s);
    slot.cb.emplace(std::forward<F>(cb));
    const EventId id = make_id(s, slot.gen);
    const Entry e{t, seq_++, id};
    enqueue(e);
    ++pending_;
    ++counters_.scheduled;
    // Peak depth counts both lanes: the same entry set a single priority
    // queue would hold (this counter is exported into trace goldens).
    const std::uint64_t depth = heap_.size() + run_.size();
    if (depth > counters_.peak_heap_depth) counters_.peak_heap_depth = depth;
    return id;
  }

  /// Schedule `cb` to run `delay` ns from now.
  template <typename F>
  EventId schedule_in(SimTime delay, F&& cb) {
    return schedule_at(now_ + delay, std::forward<F>(cb));
  }

  /// Cancel a previously scheduled event. Safe to call with an id that has
  /// already fired or been cancelled (no-op: a recycled slot carries a fresh
  /// generation, so a stale id can never match a later event). O(1): the
  /// callback is destroyed immediately and the slot recycled; the queue entry
  /// is skipped when it reaches the front.
  ///
  /// Interaction with the (time, sequence) ordering contract: events at the
  /// same timestamp run in schedule order, so a callback can only cancel
  /// same-timestamp events that were scheduled *after* the currently running
  /// one; events scheduled earlier at that timestamp have already fired and
  /// cancelling them is a no-op. See sim_test.cc (Cancel* tests).
  void cancel(EventId id) {
    if (id == 0) return;
    ++counters_.cancel_requests;
    ++cancel_backlog_;
    const std::uint32_t s = slot_of(id);
    if (s < slot_count_) {
      Slot& slot = slot_ref(s);
      if (gen_matches(slot.gen, id)) {
        slot.cb.reset();
        bump_gen(slot);
        free_slots_.push_back(s);
      }
    }
  }

  /// Run until the event queue is empty or `until` is reached (inclusive of
  /// events at exactly `until`). Returns number of events executed.
  std::uint64_t run(SimTime until = INT64_MAX) {
    std::uint64_t executed = 0;
    Entry ev{};
    while (pop_due(until, ev))
      if (dispatch(ev)) ++executed;
    // When asked to run "until T", the clock reflects that T was reached even
    // if events remain scheduled beyond it.
    if (now_ < until && until != INT64_MAX) now_ = until;
    return executed;
  }

  /// Execute exactly one event if available. Returns false when idle.
  bool step() {
    Entry ev{};
    while (pop_due(INT64_MAX, ev))
      if (dispatch(ev)) return true;
    return false;
  }

  bool idle() const { return pending_ == 0; }
  std::uint64_t total_executed() const { return total_executed_; }

  /// Events currently queued (including not-yet-skipped cancellations).
  std::uint64_t pending() const { return pending_; }
  /// Cancel requests whose queue entry has not yet drained. Stale cancels
  /// (the event already fired) never drain, mirroring the original lazy
  /// remembered-id list this counter came from.
  std::size_t cancel_backlog() const { return cancel_backlog_; }

  Counters counters() const {
    Counters c = counters_;
    c.executed = total_executed_;
    return c;
  }

  /// Pushes the event-loop counters into a metrics registry under `prefix`.
  void export_metrics(obs::MetricsRegistry& m,
                      const std::string& prefix = "sim") const {
    const Counters c = counters();
    m.counter(prefix + ".events_scheduled") = static_cast<std::int64_t>(c.scheduled);
    m.counter(prefix + ".events_executed") = static_cast<std::int64_t>(c.executed);
    m.counter(prefix + ".cancel_requests") = static_cast<std::int64_t>(c.cancel_requests);
    m.counter(prefix + ".cancelled_skipped") = static_cast<std::int64_t>(c.cancelled_skipped);
    m.counter(prefix + ".peak_heap_depth") = static_cast<std::int64_t>(c.peak_heap_depth);
    m.counter(prefix + ".cancel_backlog") = static_cast<std::int64_t>(cancel_backlog_);
    m.counter(prefix + ".pending") = static_cast<std::int64_t>(pending_);
  }

 private:
  static constexpr int kSlotBits = 24;
  static constexpr std::uint32_t kSlotMask = (1u << kSlotBits) - 1;
  static constexpr std::uint64_t kGenMask = (std::uint64_t{1} << 40) - 1;

  static EventId make_id(std::uint32_t slot, std::uint64_t gen) {
    return ((gen & kGenMask) << kSlotBits) | slot;
  }
  static std::uint32_t slot_of(EventId id) {
    return static_cast<std::uint32_t>(id) & kSlotMask;
  }
  static bool gen_matches(std::uint64_t slot_gen, EventId id) {
    return (slot_gen & kGenMask) == (id >> kSlotBits);
  }

  /// Slot-indexed event record. `gen` advances each time the slot is retired
  /// (fired or cancelled), invalidating outstanding ids that point at it.
  /// Slots live in fixed-size chunks so their addresses are stable: arena
  /// growth allocates a new chunk and never relocates engaged callbacks.
  struct Slot {
    std::uint64_t gen = 1;
    Callback cb;
  };

  static constexpr int kChunkShift = 9;  // 512 slots per chunk
  static constexpr std::uint32_t kChunkSize = 1u << kChunkShift;
  static constexpr std::uint32_t kChunkMask = kChunkSize - 1;

  Slot& slot_ref(std::uint32_t s) {
    return chunks_[s >> kChunkShift][s & kChunkMask];
  }

  static void bump_gen(Slot& slot) {
    ++slot.gen;
    // Skip the masked all-zero generation: make_id(0, gen) must never
    // produce the reserved "no event" id 0.
    if ((slot.gen & kGenMask) == 0) slot.gen = 1;
  }

  /// 24-byte POD queue entry; the callable stays in its slot.
  struct Entry {
    SimTime time;
    std::uint64_t seq;
    EventId id;
  };

  static bool before(const Entry& a, const Entry& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }

  /// How many run-lane entries, counted from the front, an insert may scan.
  /// Bounding it keeps an insert O(1): the unbounded sorted lane made
  /// ascending batches quadratic.
  static constexpr std::size_t kNearScan = 32;

  /// Files `e` into one of the two sorted lanes. `e` carries the largest
  /// sequence number so far, so it sorts after every entry at its own time:
  /// its place in the run lane is behind every entry with time <= e.time.
  void enqueue(const Entry& e) {
    const std::size_t n = run_.size();
    // Not before the lane's back: extend the sorted run in O(1).
    if (n == 0 || run_.back().time <= e.time) {
      run_.push_back(e);
      return;
    }
    // Not before the K-th entry: the heap takes it.
    if (n > kNearScan && run_.at(kNearScan - 1).time <= e.time) {
      heap_push(e);
      return;
    }
    // Within the first min(n, K) entries, and before the back: scan for the
    // first entry later than e and insert in front of it.
    std::size_t k = 0;
    while (run_.at(k).time <= e.time) ++k;
    run_.insert_at(k, e);
  }

  /// Pops the globally next entry, the smaller of the two lane heads, into
  /// `out` if its time is <= until. False when the queue is empty or the
  /// next entry is later than `until`.
  bool pop_due(SimTime until, Entry& out) {
    if (!run_.empty() && (heap_.empty() || before(run_.front(), heap_[0]))) {
      if (run_.front().time > until) return false;
      out = run_.front();
      run_.pop_front();
      return true;
    }
    if (heap_.empty() || heap_[0].time > until) return false;
    out = heap_pop();
    return true;
  }

  /// Runs a popped entry's callback, or discards it when it was cancelled.
  /// Returns whether the callback ran.
  bool dispatch(const Entry& ev) {
    --pending_;
    const std::uint32_t s = slot_of(ev.id);
    Slot& slot = slot_ref(s);
    if (!gen_matches(slot.gen, ev.id)) {
      ++counters_.cancelled_skipped;
      --cancel_backlog_;
      return false;
    }
    now_ = ev.time;
    // The chunked arena gives slots stable addresses, so the callback is
    // consumed in place even though it may schedule new events (arena
    // growth adds chunks, never moves them). The generation is bumped
    // *before* invoking so a cancel of the running event's own id from
    // inside the callback is recognized as stale.
    bump_gen(slot);
    slot.cb.consume();
    free_slots_.push_back(s);
    ++total_executed_;
    return true;
  }

  void heap_push(Entry e) {
    heap_.push_back(e);
    std::size_t i = heap_.size() - 1;
    while (i > 0) {
      const std::size_t parent = (i - 1) >> 2;
      if (!before(e, heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = e;
  }

  Entry heap_pop() {
    const Entry top = heap_[0];
    const Entry last = heap_.back();
    heap_.pop_back();
    const std::size_t n = heap_.size();
    if (n > 0) {
      std::size_t i = 0;
      for (;;) {
        const std::size_t c0 = 4 * i + 1;
        if (c0 >= n) break;
        std::size_t m = c0;
        const std::size_t end = c0 + 4 < n ? c0 + 4 : n;
        for (std::size_t c = c0 + 1; c < end; ++c)
          if (before(heap_[c], heap_[m])) m = c;
        if (!before(heap_[m], last)) break;
        heap_[i] = heap_[m];
        i = m;
      }
      heap_[i] = last;
    }
    return top;
  }

  [[noreturn]] static void slot_overflow() {
    std::fprintf(stderr,
                 "Simulator: more than %u concurrent events — slot index "
                 "space exhausted\n",
                 kSlotMask + 1);
    std::abort();
  }

  SimTime now_ = 0;
  std::uint64_t seq_ = 1;
  std::uint64_t pending_ = 0;
  std::uint64_t total_executed_ = 0;
  std::size_t cancel_backlog_ = 0;
  util::RingQueue<Entry> run_;  // sorted run lane: appends + near-head inserts
  std::vector<Entry> heap_;     // events that land more than K entries back
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::uint32_t slot_count_ = 0;
  std::vector<std::uint32_t> free_slots_;
  Counters counters_;
};

/// Re-arming periodic task (used for timer packets, counter polling, meters).
/// The user callback is stored once; each period re-arms by scheduling a
/// two-pointer closure, so a running task allocates nothing per fire.
class PeriodicTask {
 public:
  PeriodicTask(Simulator& sim, SimTime period, std::function<void(SimTime)> fn)
      : sim_(sim), period_(period), fn_(std::move(fn)) {}

  /// A task destroyed while armed cancels its fire event: the scheduled
  /// closure captures `this`, so letting it outlive the task is a
  /// use-after-free (the bug AutoFallback used to hit by rebuilding its task
  /// per start()).
  ~PeriodicTask() { sim_.cancel(pending_); }
  PeriodicTask(const PeriodicTask&) = delete;
  PeriodicTask& operator=(const PeriodicTask&) = delete;

  /// Idempotent: starting an already-running task re-arms it (the previous
  /// pending fire is cancelled) instead of stacking a second fire chain.
  void start(SimTime first_delay = 0) {
    sim_.cancel(pending_);
    pending_ = 0;
    stopped_ = false;
    arm(first_delay);
  }

  void stop() {
    stopped_ = true;
    sim_.cancel(pending_);
    pending_ = 0;
  }

  bool running() const { return !stopped_; }

 private:
  void arm(SimTime delay) {
    pending_ = sim_.schedule_in(delay, [this] { fire(); });
  }

  void fire() {
    // Clear the armed id before running the callback: the event is firing,
    // so a stop() from inside fn_ must not cancel this (already consumed)
    // id — that would leave a stale entry in the cancel backlog forever.
    pending_ = 0;
    if (stopped_) return;
    fn_(sim_.now());
    if (!stopped_) arm(period_);
  }

  Simulator& sim_;
  SimTime period_;
  std::function<void(SimTime)> fn_;
  Simulator::EventId pending_ = 0;
  bool stopped_ = true;
};

}  // namespace lgsim
