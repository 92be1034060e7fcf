// Time-series recorder for timeline experiments (Figs. 9 and 21).
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "util/units.h"

namespace lgsim {

/// Records (time, value) samples; used by throughput/queue-depth timelines.
class TimeSeries {
 public:
  struct Sample {
    SimTime time = 0;
    double value = 0.0;
  };

  void record(SimTime t, double v) { samples_.push_back({t, v}); }

  const std::vector<Sample>& samples() const { return samples_; }
  bool empty() const { return samples_.empty(); }
  std::size_t size() const { return samples_.size(); }

  /// Mean of values recorded in [from, to).
  double mean_in(SimTime from, SimTime to) const {
    double s = 0.0;
    std::int64_t n = 0;
    for (const auto& x : samples_) {
      if (x.time >= from && x.time < to) {
        s += x.value;
        ++n;
      }
    }
    return n > 0 ? s / static_cast<double>(n) : 0.0;
  }

  double max_in(SimTime from, SimTime to) const {
    double m = 0.0;
    for (const auto& x : samples_)
      if (x.time >= from && x.time < to && x.value > m) m = x.value;
    return m;
  }

  /// Folds another series in, keeping samples sorted by time (ties keep this
  /// series' samples first — a stable, scheduling-independent order). Lets
  /// per-worker timelines from a replication sweep be reduced at join.
  void merge(const TimeSeries& o) {
    samples_.insert(samples_.end(), o.samples_.begin(), o.samples_.end());
    std::stable_sort(
        samples_.begin(), samples_.end(),
        [](const Sample& a, const Sample& b) { return a.time < b.time; });
  }

  void reset() { samples_.clear(); }

 private:
  std::vector<Sample> samples_;
};

}  // namespace lgsim
