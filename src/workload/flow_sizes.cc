#include "workload/flow_sizes.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

namespace lgsim::workload {

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kMetaKeyValue: return "Meta key-value";
    case Workload::kGoogleSearchRpc: return "Google search RPC";
    case Workload::kGoogleAllRpc: return "Google all RPC";
    case Workload::kMetaHadoop: return "Meta Hadoop";
    case Workload::kAlibabaStorage: return "Alibaba storage";
    case Workload::kDctcpWebSearch: return "DCTCP web search";
  }
  return "?";
}

FlowSizeDistribution::FlowSizeDistribution(std::vector<Point> points)
    : points_(std::move(points)) {
  assert(points_.size() >= 2);
  assert(points_.front().cdf == 0.0);
  assert(points_.back().cdf == 1.0);
  for (std::size_t i = 1; i < points_.size(); ++i) {
    assert(points_[i].bytes >= points_[i - 1].bytes);
    assert(points_[i].cdf >= points_[i - 1].cdf);
  }
  log_bytes_.reserve(points_.size());
  for (const Point& p : points_) log_bytes_.push_back(std::log(p.bytes));
}

FlowSizeDistribution FlowSizeDistribution::make(Workload w) {
  // Control points (bytes, CDF) digitized from the published distributions.
  switch (w) {
    case Workload::kMetaKeyValue:
      // Memcache traffic: dominated by sub-kilobyte responses.
      return FlowSizeDistribution({{30, 0.0},
                                   {64, 0.15},
                                   {128, 0.40},
                                   {256, 0.65},
                                   {512, 0.82},
                                   {1024, 0.92},
                                   {1448, 0.96},
                                   {4096, 0.99},
                                   {100'000, 1.0}});
    case Workload::kGoogleSearchRpc:
      return FlowSizeDistribution({{50, 0.0},
                                   {143, 0.25},
                                   {300, 0.50},
                                   {700, 0.72},
                                   {1448, 0.88},
                                   {4096, 0.95},
                                   {100'000, 0.99},
                                   {1'000'000, 1.0}});
    case Workload::kGoogleAllRpc:
      // 143 B is the most frequent flow size (§4.3): a 0.15-mass atom,
      // encoded as a duplicated control point with a CDF jump.
      return FlowSizeDistribution({{40, 0.0},
                                   {143, 0.30},
                                   {143, 0.45},
                                   {256, 0.62},
                                   {512, 0.75},
                                   {1448, 0.89},
                                   {10'000, 0.96},
                                   {1'000'000, 0.995},
                                   {10'000'000, 1.0}});
    case Workload::kMetaHadoop:
      return FlowSizeDistribution({{100, 0.0},
                                   {300, 0.25},
                                   {1024, 0.55},
                                   {1448, 0.62},
                                   {10'000, 0.80},
                                   {100'000, 0.92},
                                   {1'000'000, 0.97},
                                   {10'000'000, 1.0}});
    case Workload::kAlibabaStorage:
      // Block storage: bimodal, capped at 2 MB (§4.3 uses the 2 MB maximum).
      // Requests at the cap pile up into an exact 2 MB atom.
      return FlowSizeDistribution({{512, 0.0},
                                   {4096, 0.35},
                                   {16'384, 0.55},
                                   {65'536, 0.72},
                                   {262'144, 0.85},
                                   {1'048'576, 0.95},
                                   {2'097'152, 0.98},
                                   {2'097'152, 1.0}});
    case Workload::kDctcpWebSearch:
      // Web search back-end: 24,387 B is the most frequent size (§4.3),
      // a 0.13-mass atom.
      return FlowSizeDistribution({{1'000, 0.0},
                                   {6'000, 0.15},
                                   {13'000, 0.30},
                                   {24'387, 0.40},
                                   {24'387, 0.53},
                                   {100'000, 0.70},
                                   {1'000'000, 0.85},
                                   {10'000'000, 0.97},
                                   {30'000'000, 1.0}});
  }
  throw std::logic_error("unknown workload");
}

double FlowSizeDistribution::cdf(double bytes) const {
  if (bytes < points_.front().bytes) return 0.0;
  if (bytes >= points_.back().bytes) return 1.0;
  // Strict `<` finds the first point *above* bytes, so an atom's duplicated
  // points are skipped past and bytes == atom lands on the jump's upper CDF.
  for (std::size_t i = 1; i < points_.size(); ++i) {
    if (bytes < points_[i].bytes) {
      const auto& a = points_[i - 1];
      const auto& b = points_[i];
      if (bytes <= a.bytes) return a.cdf;
      const double la = log_bytes_[i - 1], lb = log_bytes_[i];
      const double f = (std::log(bytes) - la) / (lb - la);
      return a.cdf + f * (b.cdf - a.cdf);
    }
  }
  return 1.0;
}

std::int64_t FlowSizeDistribution::quantile(double u) const {
  for (std::size_t i = 1; i < points_.size(); ++i) {
    if (u <= points_[i].cdf) {
      const auto& a = points_[i - 1];
      const auto& b = points_[i];
      // Atom (CDF jump at one byte value): return it exactly rather than
      // going through exp(log(...)), whose rounding could land one byte off.
      if (b.bytes <= a.bytes) return static_cast<std::int64_t>(b.bytes);
      if (b.cdf <= a.cdf) return static_cast<std::int64_t>(b.bytes);
      const double f = (u - a.cdf) / (b.cdf - a.cdf);
      const double la = log_bytes_[i - 1], lb = log_bytes_[i];
      const double lg = la + f * (lb - la);
      return std::max<std::int64_t>(1, static_cast<std::int64_t>(std::exp(lg)));
    }
  }
  return static_cast<std::int64_t>(points_.back().bytes);
}

std::int64_t FlowSizeDistribution::sample(Rng& rng) const {
  return quantile(rng.uniform());
}

double FlowSizeDistribution::single_packet_fraction(double mtu_payload) const {
  return cdf(mtu_payload);
}

double FlowSizeDistribution::mean_bytes() const {
  // Numeric integration over the piecewise segments.
  double mean = 0.0;
  for (std::size_t i = 1; i < points_.size(); ++i) {
    const auto& a = points_[i - 1];
    const auto& b = points_[i];
    const double pa = b.cdf - a.cdf;
    if (pa <= 0) continue;
    // Mean of a log-uniform segment.
    const double la = log_bytes_[i - 1], lb = log_bytes_[i];
    const double seg_mean =
        lb > la ? (b.bytes - a.bytes) / (lb - la) : a.bytes;
    mean += pa * seg_mean;
  }
  return mean;
}

}  // namespace lgsim::workload
