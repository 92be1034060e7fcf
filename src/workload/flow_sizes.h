// Flow-size distributions for the datacenter workloads of Fig. 2.
//
// Each workload is an empirical CDF over message/flow sizes, encoded as
// piecewise log-linear control points digitized from the published curves
// the paper plots (Meta key-value [7], Google search RPC / all RPC [52],
// Meta Hadoop [47], Alibaba storage [34], DCTCP web search [3]). Three sizes
// the paper singles out are exactly representable *atoms* (control points
// duplicated with a CDF jump, so inverse sampling returns the exact byte
// value with the atom's probability mass): 143 B is the most frequent
// Google-all-RPC flow, 24,387 B the most frequent DCTCP web-search flow, and
// 2 MB the Alibaba storage request cap.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/random.h"

namespace lgsim::workload {

enum class Workload : std::uint8_t {
  kMetaKeyValue,
  kGoogleSearchRpc,
  kGoogleAllRpc,
  kMetaHadoop,
  kAlibabaStorage,
  kDctcpWebSearch,
};

const char* workload_name(Workload w);

/// Empirical CDF over flow sizes in bytes.
///
/// The constructor caches std::log of every control point's byte value, so a
/// quantile() draw costs one std::exp and cdf() one std::log. The cached
/// values are the very doubles the uncached formula computed per call.
class FlowSizeDistribution {
 public:
  struct Point {
    double bytes;
    double cdf;  // P(size <= bytes)
  };

  explicit FlowSizeDistribution(std::vector<Point> points);
  static FlowSizeDistribution make(Workload w);

  /// P(size <= bytes), log-linear interpolation between control points.
  /// Atoms (duplicated control points) count at their byte value: cdf(143)
  /// includes the whole 143 B jump for Google all RPC.
  double cdf(double bytes) const;
  /// Inverse CDF: the flow size at cumulative probability u in [0, 1).
  /// Monotone non-decreasing in u; u inside an atom's CDF jump returns the
  /// atom's exact byte value (no log-interpolation rounding).
  std::int64_t quantile(double u) const;
  /// Inverse CDF sampling: quantile(rng.uniform()).
  std::int64_t sample(Rng& rng) const;
  /// Fraction of flows that fit in a single packet of `mtu_payload` bytes.
  double single_packet_fraction(double mtu_payload = 1448) const;
  double mean_bytes() const;
  double min_bytes() const { return points_.front().bytes; }
  double max_bytes() const { return points_.back().bytes; }
  /// The control points, in non-decreasing (bytes, cdf) order.
  const std::vector<Point>& points() const { return points_; }

 private:
  std::vector<Point> points_;
  std::vector<double> log_bytes_;  // std::log(points_[i].bytes)
};

}  // namespace lgsim::workload
