// Shared pieces of the repository benchmark binary (see README.md): the
// span recorder used by traced runs, the result digest the correctness gate
// compares against goldens, and the Workload interface the four workloads
// implement.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "util/stats.h"

namespace lgbench {

/// Heap allocations made so far by this process (the interposed global
/// operator new in lgbench.cc).
std::uint64_t heap_allocs();

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Process CPU time in seconds (all threads).
double cpu_seconds();

/// Keeps a replayed computation's result alive so the compiler cannot drop
/// the loop that produced it.
void keep(double v);

/// In-memory span recorder: name, start, end and parent of every span the
/// benchmark opens around a call into a layer. Written out once, at exit.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;
  };

  void begin(std::string name) {
    spans_.push_back(Span{std::move(name), now_ns(), 0,
                          open_.empty() ? -1 : open_.back()});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
  }
  /// Closes the innermost open span and returns its duration in seconds.
  double end() {
    Span& s = spans_[static_cast<std::size_t>(open_.back())];
    open_.pop_back();
    s.end_ns = now_ns();
    return static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
  }

  /// Total and self seconds per span name. Self time is a span's duration
  /// minus the part its direct children cover.
  struct Time {
    double total_s = 0;
    double self_s = 0;
    std::int64_t count = 0;
  };
  std::map<std::string, Time> times() const;

  /// Writes {"spans": [...]} with one object per span.
  bool write_json(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Opens a span on `t` for the enclosing scope; a no-op when `t` is null.
class SpanScope {
 public:
  SpanScope(Tracer* t, std::string name) : t_(t) {
    if (t_ != nullptr) t_->begin(std::move(name));
  }
  ~SpanScope() {
    if (t_ != nullptr) t_->end();
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer* t_;
};

/// FNV-1a over the exact bytes of every statistic a cell produces.
class Digest {
 public:
  void add_bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= b[i];
      h_ *= 0x100000001b3ULL;
    }
  }
  void add(std::int64_t v) { add_bytes(&v, sizeof v); }
  void add(double v) { add_bytes(&v, sizeof v); }
  void add(const lgsim::PercentileTracker& t) {
    const std::vector<double>& s = t.sorted_samples();
    add(static_cast<std::int64_t>(s.size()));
    if (!s.empty()) add_bytes(s.data(), s.size() * sizeof(double));
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// One cell of a batch: its golden digest and the identities it broke
/// (empty when every identity holds).
struct CellResult {
  std::string name;
  std::uint64_t digest = 0;
  std::string broken;
};

/// Appends `what` to `broken` unless `ok`.
inline void expect(bool ok, std::string& broken, const std::string& what) {
  if (!ok) broken += (broken.empty() ? "" : "; ") + what;
}

/// Host wall and CPU seconds of every cell of the untraced batches. The
/// end-to-end times and the per-layer differences are built from these.
class CellTimes {
 public:
  /// Runs `fn` as cell `cell` and records its wall and CPU seconds.
  template <typename Fn>
  void time(std::size_t cell, Fn&& fn) {
    const std::int64_t t0 = now_ns();
    const double c0 = cpu_seconds();
    fn();
    record(cell, static_cast<double>(now_ns() - t0) * 1e-9, cpu_seconds() - c0);
  }
  void record(std::size_t cell, double wall_s, double cpu_s);

  std::size_t size() const { return wall_.size(); }
  const std::vector<double>& wall_samples(std::size_t cell) const {
    return wall_.at(cell);
  }
  /// The cell's typical seconds over the batches run so far (see estimate()).
  double wall(std::size_t cell) const { return estimate(wall_.at(cell)); }
  double total_wall() const;
  double total_cpu() const;
  /// The same totals with the k-th sample of every cell (the k-th batch)
  /// multiplied by scale[k].
  double total_wall(const std::vector<double>& scale) const;
  double total_cpu(const std::vector<double>& scale) const;

  /// The estimator every reported time uses, applied per cell: the median.
  static double estimate(std::vector<double> samples);

 private:
  static double total(const std::vector<std::vector<double>>& cells,
                      const std::vector<double>* scale);

  std::vector<std::vector<double>> wall_, cpu_;
};

/// Host-speed probe: a fixed allocation- and pointer-heavy loop (an ordered
/// map and a heap with a working set of about 1.5 MB) shaped like the
/// simulator's own memory traffic but sharing none of its code. Its time
/// follows the shared host's cache and memory contention the way the
/// workloads' times do; see README.md, "Host noise".
double probe_seconds();

/// The probe time the reported end-to-end seconds are scaled to.
inline constexpr double kProbeRefS = 0.020;

/// Per-layer metrics of a traced run, plus the reason for every metric the
/// run could not measure.
struct LayerReport {
  std::map<std::string, double> values;
  std::map<std::string, std::string> unmeasured;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Name of the workload's work rate ("frames_per_s", ...).
  virtual const char* rate_name() const = 0;
  /// Builds everything the timed phase needs from the seed.
  virtual void setup() = 0;
  /// Canonical text of every input parameter (hashed into the manifest).
  virtual std::string config() const = 0;
  /// The closed batch, one worker: the timed work. With `traced`, each call
  /// into the simulator runs under an installed obs::TraceSink whose
  /// counters are harvested for layers(). Spans go to `tr` when non-null.
  virtual void run_batch(Tracer* tr, bool traced) = 0;
  /// Digests and identity checks of the last batch's results (untimed).
  virtual std::vector<CellResult> check_batch() const = 0;
  /// Units of work in one batch (frames, trials, flows or simulated hours).
  virtual double ops_per_batch() const = 0;
  /// Traced-run replays of single layers plus what the batches harvested;
  /// fills `out`.
  virtual void layers(Tracer& tr, LayerReport& out) = 0;

  /// Per-cell seconds of the untraced batches run so far.
  const CellTimes& times() const { return times_; }
  void clear_times() { times_ = CellTimes(); }

 protected:
  CellTimes times_;
};

/// Fills harness.cell_s.{p50,max} and harness.max_cell_share from `t`.
void report_cells(const CellTimes& t, LayerReport& out);

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed);

/// Median of a non-empty sample (the mean of the two middle values for an
/// even count).
double median(std::vector<double> v);

}  // namespace lgbench
