// Statistics accumulators used by tests and benchmark harnesses.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace lgsim {

/// Streaming accumulator for count / mean / min / max / stddev (Welford).
class RunningStats {
 public:
  void add(double x) {
    ++n_;
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
  }

  std::int64_t count() const { return n_; }
  double mean() const { return n_ > 0 ? mean_ : 0.0; }
  double min() const { return n_ > 0 ? min_ : 0.0; }
  double max() const { return n_ > 0 ? max_ : 0.0; }
  double variance() const { return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0; }
  double stddev() const { return std::sqrt(variance()); }

  /// Folds another accumulator in, as if its samples had been added here
  /// (Chan et al. parallel Welford update). Used to reduce per-worker
  /// accumulators after a parallel replication sweep.
  void merge(const RunningStats& o) {
    if (o.n_ == 0) return;
    if (n_ == 0) {
      *this = o;
      return;
    }
    const std::int64_t n = n_ + o.n_;
    const double delta = o.mean_ - mean_;
    m2_ += o.m2_ + delta * delta * static_cast<double>(n_) *
                       static_cast<double>(o.n_) / static_cast<double>(n);
    mean_ += delta * static_cast<double>(o.n_) / static_cast<double>(n);
    min_ = std::min(min_, o.min_);
    max_ = std::max(max_, o.max_);
    n_ = n;
  }

  void reset() { *this = RunningStats{}; }

 private:
  std::int64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Stores every sample; answers arbitrary percentile queries.
///
/// Percentiles use the nearest-rank definition on the sorted samples, which is
/// what the paper's gnuplot CDFs effectively report.
class PercentileTracker {
 public:
  void add(double x) {
    samples_.push_back(x);
    sorted_ = false;
    selected_ = 0;
  }

  std::int64_t count() const { return static_cast<std::int64_t>(samples_.size()); }
  bool empty() const { return samples_.empty(); }

  /// p in [0, 100]. p=50 is the median; p=100 the maximum.
  ///
  /// On unsorted samples, selects the two neighbouring ranks (nth_element at
  /// `lo`, then the minimum above it) instead of sorting: O(n), and the very
  /// doubles the sorted vector holds at `lo` and `lo + 1`. A selection leaves
  /// every sample ranked at or above `lo` in [lo, n), so a later query at or
  /// above it selects in that tail only: p50 -> p99 -> p99.9 costs about 1.5
  /// passes over the samples, not 3.
  double percentile(double p) const {
    if (samples_.empty()) return 0.0;
    if (p <= 0.0) return min();
    if (p >= 100.0) return max();
    const double rank = p / 100.0 * static_cast<double>(samples_.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const double frac = rank - static_cast<double>(lo);
    const auto at = samples_.begin() + static_cast<std::ptrdiff_t>(lo);
    if (!sorted_) {
      const std::size_t from = lo >= selected_ ? selected_ : 0;
      std::nth_element(samples_.begin() + static_cast<std::ptrdiff_t>(from),
                       at, samples_.end());
      selected_ = lo;
    }
    if (lo + 1 >= samples_.size()) return *at;
    const double next =
        sorted_ ? at[1] : *std::min_element(at + 1, samples_.end());
    return *at * (1.0 - frac) + next * frac;
  }

  double min() const { ensure_sorted(); return samples_.empty() ? 0.0 : samples_.front(); }
  double max() const { ensure_sorted(); return samples_.empty() ? 0.0 : samples_.back(); }

  /// Summed in sorted order so the mean — like every percentile — is a pure
  /// function of the sample *multiset*: trackers filled in different orders
  /// (per-block trackers merged at join) report bit-identical means.
  double mean() const {
    if (samples_.empty()) return 0.0;
    ensure_sorted();
    double s = 0.0;
    for (double x : samples_) s += x;
    return s / static_cast<double>(samples_.size());
  }

  /// Fraction of samples <= x (empirical CDF).
  double cdf_at(double x) const {
    ensure_sorted();
    if (samples_.empty()) return 0.0;
    const auto it = std::upper_bound(samples_.begin(), samples_.end(), x);
    return static_cast<double>(it - samples_.begin()) / static_cast<double>(samples_.size());
  }

  const std::vector<double>& sorted_samples() const {
    ensure_sorted();
    return samples_;
  }

  /// Folds another tracker's samples in. Percentiles over the merged set are
  /// identical regardless of merge order (queries rank the union), which is
  /// what lets per-worker trackers be reduced at join deterministically.
  void merge(const PercentileTracker& o) {
    samples_.insert(samples_.end(), o.samples_.begin(), o.samples_.end());
    sorted_ = samples_.empty();
    selected_ = 0;
  }

  void reserve(std::size_t n) { samples_.reserve(n); }

  void reset() { samples_.clear(); sorted_ = true; }

 private:
  void ensure_sorted() const {
    if (!sorted_) {
      std::sort(samples_.begin(), samples_.end());
      sorted_ = true;
    }
  }

  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;
  /// Rank of the last selection on unsorted samples: samples_[0, selected_)
  /// are all <= samples_[selected_, n); 0 when there is none. Read only
  /// while unsorted, and add and merge, the only calls that unsort, clear it.
  mutable std::size_t selected_ = 0;
};

/// Integer-valued histogram (e.g. "consecutive packets lost" in Fig. 20).
class CountHistogram {
 public:
  void add(std::int64_t value, std::int64_t weight = 1) {
    if (value < 0) value = 0;
    if (static_cast<std::size_t>(value) >= bins_.size()) bins_.resize(value + 1, 0);
    bins_[value] += weight;
    total_ += weight;
  }

  std::int64_t total() const { return total_; }
  std::int64_t max_value() const { return static_cast<std::int64_t>(bins_.size()) - 1; }

  std::int64_t count_at(std::int64_t value) const {
    if (value < 0 || static_cast<std::size_t>(value) >= bins_.size()) return 0;
    return bins_[value];
  }

  /// Cumulative fraction of mass at values <= v.
  double cdf_at(std::int64_t v) const {
    if (total_ == 0) return 0.0;
    std::int64_t c = 0;
    for (std::int64_t i = 0; i <= v && static_cast<std::size_t>(i) < bins_.size(); ++i)
      c += bins_[i];
    return static_cast<double>(c) / static_cast<double>(total_);
  }

  /// Folds another histogram in (bin-wise sum). Addition is commutative, so
  /// any merge order yields the same histogram.
  void merge(const CountHistogram& o) {
    if (o.bins_.size() > bins_.size()) bins_.resize(o.bins_.size(), 0);
    for (std::size_t i = 0; i < o.bins_.size(); ++i) bins_[i] += o.bins_[i];
    total_ += o.total_;
  }

  void reset() { bins_.clear(); total_ = 0; }

 private:
  std::vector<std::int64_t> bins_;
  std::int64_t total_ = 0;
};

}  // namespace lgsim
