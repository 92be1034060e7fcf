// Structured event tracer: a fixed-capacity ring buffer of typed binary
// records with near-zero cost when tracing is off.
//
// Layers, from hot path outward:
//
//   emit()            — inline probe called from component code. Compiled to
//                       nothing when LGSIM_TRACE_ENABLED=0; when compiled in
//                       but no sink is installed, it is a single thread_local
//                       load + null check (the runtime-off fast path that
//                       keeps tier-1 bench numbers unaffected; bench_micro
//                       prints and asserts the <1% overhead bound).
//   TraceSink         — per-run record ring + actor-name interner + a
//                       MetricsRegistry for final counter snapshots. Owned by
//                       exactly one thread at a time (installed via
//                       SinkScope), so it needs no locks.
//   TraceCollector    — process-global set of sinks for one bench run. Sinks
//                       are created on the *main thread only* (before worker
//                       threads spawn) in grid-submission order, which is what
//                       makes the exported trace byte-identical for any
//                       LGSIM_BENCH_JOBS value: ring contents depend only on
//                       the cell's deterministic simulation, and sink order
//                       depends only on submission order.
//
// The Chrome trace-event JSON exporter lives in obs/chrome_trace.h.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "obs/metrics.h"
#include "util/units.h"

// Compile-time gate. Build a target with -DLGSIM_TRACE_ENABLED=0 to remove
// every probe entirely (tests/obs_compiled_out_test.cc pins this). One
// setting per binary: mixing values across translation units of one link
// target would be an ODR violation on these inline functions.
#ifndef LGSIM_TRACE_ENABLED
#define LGSIM_TRACE_ENABLED 1
#endif

namespace lgsim::obs {

inline constexpr bool kTraceCompiledIn = (LGSIM_TRACE_ENABLED != 0);

/// Event category — one per instrumented subsystem; becomes the "cat" field
/// in the Chrome trace export.
enum class Cat : std::uint8_t {
  kSim = 0,
  kPort,
  kLg,
  kPfc,
  kTransport,
  kMonitor,
  kPhy,
  kFault,
  // Appended so pre-existing records keep their encoded cat byte (the fig08
  // trace goldens pin those bytes).
  kTelemetry,
};
inline constexpr const char* kCatNames[] = {
    "sim", "port", "lg", "pfc", "transport", "monitor", "phy", "fault",
    "telemetry"};
inline constexpr std::size_t kNumCats = sizeof(kCatNames) / sizeof(kCatNames[0]);

/// Event kind — the record's verb; becomes the "name" field in the export
/// (except kCounter, whose name is the interned series the record samples).
enum class Kind : std::uint8_t {
  kEnqueue = 0,
  kDequeue,
  kDrop,
  kCorrupt,
  kDeliver,
  kRetx,
  kRecover,
  kAck,
  kLossNotif,
  kGapDetect,
  kBufferRelease,
  kTimeout,
  kPause,
  kResume,
  kPoll,
  kDetect,
  kActivate,
  kFlowStart,
  kFlowEnd,
  kCounter,
  // Appended after kCounter so every pre-existing record keeps its encoded
  // kind byte (the fig08 trace goldens pin those bytes).
  kInject,      // a scripted fault event was applied (src/fault)
  kModeChange,  // protection mode transition (AutoFallback)
  kProbeTx,     // telemetry probe emitted (a = seq)
  kProbeRx,     // telemetry probe received (a = seq, b = one-way ns)
  kEstimate,    // loss estimate published (a = rate*1e9, b = window samples)
};
inline constexpr const char* kKindNames[] = {
    "enqueue",        "dequeue", "drop",  "corrupt",   "deliver",
    "retx",           "recover", "ack",   "loss_notif", "gap_detect",
    "buffer_release", "timeout", "pause", "resume",    "poll",
    "detect",         "activate", "flow_start", "flow_end", "counter",
    "inject",         "mode_change", "probe_tx", "probe_rx", "estimate"};
inline constexpr std::size_t kNumKinds =
    sizeof(kKindNames) / sizeof(kKindNames[0]);

/// One 32-byte POD record. `actor` is a sink-interned name id (the emitting
/// component, or the series name for kCounter records); `a`/`b`/`aux` carry
/// kind-specific payload (documented at each probe site and in DESIGN.md).
struct TraceRecord {
  SimTime ts = 0;
  std::uint32_t actor = 0;
  Cat cat = Cat::kSim;
  Kind kind = Kind::kCounter;
  std::uint16_t aux = 0;
  std::int64_t a = 0;
  std::int64_t b = 0;
};

/// Fixed-capacity overwrite-oldest ring. Keeping the *newest* records is the
/// right policy for a post-mortem trace: the interesting window is the one
/// that ends at the anomaly. total_pushed() exposes how many records were
/// evicted so exports can say what was dropped.
class TraceRing {
 public:
  explicit TraceRing(std::size_t capacity)
      : buf_(capacity == 0 ? 1 : capacity) {}

  void push(const TraceRecord& r) {
    buf_[head_] = r;
    head_ = (head_ + 1) % buf_.size();
    if (size_ < buf_.size()) ++size_;
    ++pushed_;
  }

  std::size_t size() const { return size_; }
  std::size_t capacity() const { return buf_.size(); }
  std::uint64_t total_pushed() const { return pushed_; }
  std::uint64_t evicted() const { return pushed_ - size_; }

  /// Oldest-first access: at(0) is the oldest retained record.
  const TraceRecord& at(std::size_t i) const {
    return buf_[(head_ + buf_.size() - size_ + i) % buf_.size()];
  }

 private:
  std::vector<TraceRecord> buf_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
  std::uint64_t pushed_ = 0;
};

inline constexpr std::size_t kDefaultRingCapacity = 1 << 16;

/// Per-run trace destination: record ring + actor-name interner + metrics.
/// Single-owner by construction (see file comment); no synchronization.
class TraceSink {
 public:
  explicit TraceSink(std::string label,
                     std::size_t capacity = kDefaultRingCapacity)
      : label_(std::move(label)), ring_(capacity) {
    names_.push_back("");  // id 0 reserved for "unknown actor"
  }

  /// Returns a dense id (>= 1) stable for the sink's lifetime.
  std::uint32_t intern(std::string_view name) {
    std::string key(name);
    auto it = ids_.find(key);
    if (it != ids_.end()) return it->second;
    const auto id = static_cast<std::uint32_t>(names_.size());
    names_.push_back(key);
    ids_.emplace(std::move(key), id);
    return id;
  }

  void push(const TraceRecord& r) { ring_.push(r); }

  /// Folds another sink's contents into this one: records are re-pushed in
  /// the other ring's retained (oldest-first) order with actor ids re-interned
  /// into this sink's name space, and the metrics registries merge. This is
  /// how per-group sinks — filled concurrently by a traffic cell's replay
  /// workers — reduce into the cell's sink: absorbing in fixed group order
  /// keeps the exported trace independent of worker scheduling.
  void absorb(const TraceSink& o) {
    std::vector<std::uint32_t> remap(o.names_.size(), 0);
    for (std::size_t i = 1; i < o.names_.size(); ++i)
      remap[i] = intern(o.names_[i]);
    for (std::size_t i = 0; i < o.ring_.size(); ++i) {
      TraceRecord r = o.ring_.at(i);
      r.actor = r.actor < remap.size() ? remap[r.actor] : 0;
      ring_.push(r);
    }
    metrics_.merge(o.metrics_);
  }

  const std::string& label() const { return label_; }
  const TraceRing& ring() const { return ring_; }
  const std::vector<std::string>& actor_names() const { return names_; }
  const std::string& actor_name(std::uint32_t id) const {
    return id < names_.size() ? names_[id] : names_[0];
  }
  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }

 private:
  std::string label_;
  TraceRing ring_;
  std::vector<std::string> names_;  // index == id
  std::unordered_map<std::string, std::uint32_t> ids_;
  MetricsRegistry metrics_;
};

namespace detail {
inline TraceSink*& tls_slot() {
  thread_local TraceSink* sink = nullptr;
  return sink;
}
}  // namespace detail

/// The sink the current thread emits into, or nullptr when tracing is off.
inline TraceSink* current_sink() {
  if constexpr (kTraceCompiledIn) return detail::tls_slot();
  return nullptr;
}

/// RAII installer for the thread-local sink. Nesting restores the previous
/// sink, so a per-cell scope inside a bench-wide scope behaves correctly.
class SinkScope {
 public:
  explicit SinkScope(TraceSink* s) : prev_(detail::tls_slot()) {
    detail::tls_slot() = s;
  }
  ~SinkScope() { detail::tls_slot() = prev_; }
  SinkScope(const SinkScope&) = delete;
  SinkScope& operator=(const SinkScope&) = delete;

 private:
  TraceSink* prev_;
};

/// Interns `name` in the current sink; 0 when tracing is off. Components
/// cache the result at construction time (they are constructed inside the
/// run's sink scope), keeping the per-record hot path free of hashing.
inline std::uint32_t intern_actor(std::string_view name) {
  if constexpr (kTraceCompiledIn) {
    if (TraceSink* s = detail::tls_slot()) return s->intern(name);
  }
  (void)name;
  return 0;
}

/// The probe. Inline, compiled out entirely under LGSIM_TRACE_ENABLED=0;
/// otherwise one TLS load + branch when no sink is installed.
inline void emit(SimTime ts, Cat cat, Kind kind, std::uint32_t actor,
                 std::int64_t a = 0, std::int64_t b = 0,
                 std::uint16_t aux = 0) {
  if constexpr (kTraceCompiledIn) {
    if (TraceSink* s = detail::tls_slot())
      s->push(TraceRecord{ts, actor, cat, kind, aux, a, b});
  } else {
    (void)ts; (void)cat; (void)kind; (void)actor; (void)a; (void)b; (void)aux;
  }
}

/// Counter sample: `series` is an interned series name, `value` its level.
inline void emit_counter(SimTime ts, Cat cat, std::uint32_t series,
                         std::int64_t value) {
  emit(ts, cat, Kind::kCounter, series, value);
}

/// Process-global sink registry for one traced bench run.
///
/// make_sink() must only be called from the main thread, and only while no
/// worker threads are running — harness::ParallelRunner pre-allocates every
/// per-cell sink before spawning its pool, which is why no lock is needed
/// and why sink order (== export order) is scheduling-independent.
class TraceCollector {
 public:
  explicit TraceCollector(std::size_t ring_capacity = kDefaultRingCapacity)
      : cap_(ring_capacity == 0 ? 1 : ring_capacity) {}

  ~TraceCollector() {
    if (slot() == this) slot() = nullptr;
  }
  TraceCollector(const TraceCollector&) = delete;
  TraceCollector& operator=(const TraceCollector&) = delete;

  /// The active collector, or nullptr when no trace was requested.
  static TraceCollector* active() { return slot(); }

  void install() { slot() = this; }
  void uninstall() {
    if (slot() == this) slot() = nullptr;
  }

  /// MAIN THREAD ONLY (see class comment). The sink's address is stable
  /// (std::deque never relocates elements).
  TraceSink* make_sink(std::string label) {
    sinks_.emplace_back(std::move(label), cap_);
    return &sinks_.back();
  }

  std::size_t sink_count() const { return sinks_.size(); }
  const TraceSink& sink(std::size_t i) const { return sinks_[i]; }
  std::size_t ring_capacity() const { return cap_; }

 private:
  static TraceCollector*& slot() {
    static TraceCollector* active = nullptr;
    return active;
  }

  std::size_t cap_;
  std::deque<TraceSink> sinks_;
};

}  // namespace lgsim::obs
