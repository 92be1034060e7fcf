// Metrics registry: named counters / gauges / distributions that components
// (ports, LG sender/receiver, transports, corruptd, the Simulator itself)
// publish into, snapshotted on demand and exported as JSON.
//
// The registry is a plain value container — components *push* their final (or
// sampled) values into it rather than registering callbacks, so the registry
// can outlive the components that fed it (a replication cell's Simulator and
// ports are destroyed inside the run function, while the per-cell sink that
// owns this registry survives until the bench exports the trace).
//
// Determinism: all three maps are std::map, so iteration — and therefore the
// JSON byte stream — is ordered by name, independent of insertion order.
#pragma once

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "util/stats.h"

namespace lgsim::obs {

class MetricsRegistry {
 public:
  /// Get-or-create. References stay valid for the registry's lifetime
  /// (std::map nodes are stable).
  std::int64_t& counter(const std::string& name) { return counters_[name]; }
  double& gauge(const std::string& name) { return gauges_[name]; }
  RunningStats& distribution(const std::string& name) { return dists_[name]; }

  /// Folds another registry in: counters add, gauges take the other's value
  /// (last writer wins, matching sequential re-publication), distributions
  /// merge Welford-style. Used to reduce per-group registries into the cell's
  /// sink in deterministic group order (TraceSink::absorb).
  void merge(const MetricsRegistry& o) {
    for (const auto& [n, v] : o.counters_) counters_[n] += v;
    for (const auto& [n, v] : o.gauges_) gauges_[n] = v;
    for (const auto& [n, d] : o.dists_) dists_[n].merge(d);
  }

  bool empty() const {
    return counters_.empty() && gauges_.empty() && dists_.empty();
  }
  void clear() {
    counters_.clear();
    gauges_.clear();
    dists_.clear();
  }

  /// Flat (name, value) view sorted by name. Distributions expand into
  /// `.count` / `.mean` / `.min` / `.max` entries.
  std::vector<std::pair<std::string, double>> snapshot() const {
    std::vector<std::pair<std::string, double>> out;
    out.reserve(counters_.size() + gauges_.size() + 4 * dists_.size());
    for (const auto& [n, v] : counters_)
      out.emplace_back(n, static_cast<double>(v));
    for (const auto& [n, v] : gauges_) out.emplace_back(n, v);
    for (const auto& [n, d] : dists_) {
      out.emplace_back(n + ".count", static_cast<double>(d.count()));
      out.emplace_back(n + ".mean", d.mean());
      out.emplace_back(n + ".min", d.min());
      out.emplace_back(n + ".max", d.max());
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  /// One flat JSON object, keys sorted by name. Counters print as integers;
  /// everything else through format_value (see below).
  void write_json(std::ostream& os) const {
    os << '{';
    bool first = true;
    for (const auto& [n, v] : snapshot()) {
      if (!first) os << ',';
      first = false;
      os << '"' << n << "\":" << format_value(v);
    }
    os << '}';
  }

  /// Deterministic number formatting: integral values (the common case —
  /// counters, byte totals) print without a decimal point; everything else
  /// prints with round-trip precision. Same doubles, same bytes, always.
  static std::string format_value(double v) {
    char buf[40];
    if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 9.0e15) {
      std::snprintf(buf, sizeof(buf), "%" PRId64, static_cast<std::int64_t>(v));
    } else {
      std::snprintf(buf, sizeof(buf), "%.17g", v);
    }
    return buf;
  }

 private:
  std::map<std::string, std::int64_t> counters_;
  std::map<std::string, double> gauges_;
  std::map<std::string, RunningStats> dists_;
};

}  // namespace lgsim::obs
