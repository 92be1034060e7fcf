#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "sim/random.h"
#include "workload/flow_sizes.h"

namespace lgsim::workload {
namespace {

const Workload kAll[] = {
    Workload::kMetaKeyValue,   Workload::kGoogleSearchRpc,
    Workload::kGoogleAllRpc,   Workload::kMetaHadoop,
    Workload::kAlibabaStorage, Workload::kDctcpWebSearch,
};

TEST(FlowSizes, CdfMonotoneAndBounded) {
  for (auto w : kAll) {
    const auto d = FlowSizeDistribution::make(w);
    double prev = 0.0;
    for (double b = 1; b < 1e8; b *= 2) {
      const double c = d.cdf(b);
      EXPECT_GE(c, prev) << workload_name(w);
      EXPECT_GE(c, 0.0);
      EXPECT_LE(c, 1.0);
      prev = c;
    }
    EXPECT_DOUBLE_EQ(d.cdf(d.max_bytes() * 2), 1.0);
  }
}

TEST(FlowSizes, SamplesWithinSupport) {
  Rng rng(5);
  for (auto w : kAll) {
    const auto d = FlowSizeDistribution::make(w);
    for (int i = 0; i < 10'000; ++i) {
      const auto s = static_cast<double>(d.sample(rng));
      EXPECT_GE(s, d.min_bytes() * 0.99) << workload_name(w);
      EXPECT_LE(s, d.max_bytes() * 1.01) << workload_name(w);
    }
  }
}

TEST(FlowSizes, SampleDistributionMatchesCdf) {
  Rng rng(11);
  const auto d = FlowSizeDistribution::make(Workload::kGoogleAllRpc);
  const int n = 200'000;
  int below_1448 = 0;
  for (int i = 0; i < n; ++i) {
    if (d.sample(rng) <= 1448) ++below_1448;
  }
  EXPECT_NEAR(static_cast<double>(below_1448) / n, d.cdf(1448), 0.01);
}

// Fig. 2's motivating property: most flows in most workloads fit within a
// single packet (or at most a few).
TEST(FlowSizes, MostFlowsAreShort) {
  EXPECT_GT(FlowSizeDistribution::make(Workload::kGoogleAllRpc)
                .single_packet_fraction(),
            0.80);
  EXPECT_GT(FlowSizeDistribution::make(Workload::kMetaKeyValue)
                .single_packet_fraction(),
            0.90);
  EXPECT_GT(FlowSizeDistribution::make(Workload::kGoogleSearchRpc)
                .single_packet_fraction(),
            0.80);
}

// The two flow sizes the paper singles out sit inside the right workloads.
TEST(FlowSizes, PaperAnchorsPresent) {
  const auto rpc = FlowSizeDistribution::make(Workload::kGoogleAllRpc);
  EXPECT_GT(rpc.cdf(143.0), 0.2);
  const auto ws = FlowSizeDistribution::make(Workload::kDctcpWebSearch);
  EXPECT_GT(ws.cdf(24'387.0), 0.3);
  EXPECT_LT(ws.cdf(24'387.0), 0.8);
  const auto ali = FlowSizeDistribution::make(Workload::kAlibabaStorage);
  EXPECT_DOUBLE_EQ(ali.max_bytes(), 2'097'152.0);
}

TEST(FlowSizes, MeanIsFinite) {
  for (auto w : kAll) {
    const auto d = FlowSizeDistribution::make(w);
    EXPECT_GT(d.mean_bytes(), d.min_bytes());
    EXPECT_LT(d.mean_bytes(), d.max_bytes());
  }
}

// ---------------------------------------------------------------------------
// Inverse-CDF property tests
// ---------------------------------------------------------------------------

TEST(FlowSizes, QuantileMonotoneInUniformDraw) {
  Rng rng(3);
  for (auto w : kAll) {
    const auto d = FlowSizeDistribution::make(w);
    std::int64_t prev = 0;
    for (int i = 0; i <= 10'000; ++i) {
      const double u = static_cast<double>(i) / 10'001.0;
      const std::int64_t q = d.quantile(u);
      EXPECT_GE(q, prev) << workload_name(w) << " u=" << u;
      prev = q;
    }
    // Random pair ordering too, not just the grid.
    for (int i = 0; i < 10'000; ++i) {
      double u1 = rng.uniform(), u2 = rng.uniform();
      if (u1 > u2) std::swap(u1, u2);
      EXPECT_LE(d.quantile(u1), d.quantile(u2)) << workload_name(w);
    }
  }
}

TEST(FlowSizes, SampleIsQuantileOfUniform) {
  const auto d = FlowSizeDistribution::make(Workload::kDctcpWebSearch);
  Rng a(17), b(17);
  for (int i = 0; i < 1'000; ++i) {
    EXPECT_EQ(d.sample(a), d.quantile(b.uniform()));
  }
}

// The paper's three exactly-representable sizes are genuine atoms: inverse
// sampling returns the exact byte value with the atom's probability mass.
TEST(FlowSizes, AtomsAreHitWithTheirMass) {
  struct Atom {
    Workload w;
    std::int64_t bytes;
    double mass;
  };
  const Atom atoms[] = {
      {Workload::kGoogleAllRpc, 143, 0.15},       // most frequent all-RPC size
      {Workload::kDctcpWebSearch, 24'387, 0.13},  // most frequent web-search
      {Workload::kAlibabaStorage, 2'097'152, 0.02},  // 2 MB storage cap
  };
  Rng rng(29);
  const int n = 1'000'000;
  for (const Atom& a : atoms) {
    const auto d = FlowSizeDistribution::make(a.w);
    int hits = 0;
    for (int i = 0; i < n; ++i) {
      if (d.sample(rng) == a.bytes) ++hits;
    }
    EXPECT_NEAR(static_cast<double>(hits) / n, a.mass, 0.01)
        << workload_name(a.w);
    // The CDF jump brackets the atom: strictly positive mass exactly there.
    EXPECT_GT(d.cdf(static_cast<double>(a.bytes)),
              d.cdf(static_cast<double>(a.bytes) - 0.5) + a.mass / 2)
        << workload_name(a.w);
  }
}

TEST(FlowSizes, EmpiricalMeanMatchesAnalyticMean) {
  Rng rng(41);
  const int n = 1'000'000;
  for (auto w : kAll) {
    const auto d = FlowSizeDistribution::make(w);
    double sum = 0;
    for (int i = 0; i < n; ++i) sum += static_cast<double>(d.sample(rng));
    const double emp = sum / n;
    const double ana = d.mean_bytes();
    EXPECT_NEAR(emp, ana, 0.03 * ana) << workload_name(w);
  }
}

// ---------------------------------------------------------------------------
// Differential tests: cached per-point logs against the uncached formulas
// ---------------------------------------------------------------------------

using Points = std::vector<FlowSizeDistribution::Point>;

// Test-local copy of quantile() as written before the per-point logs were
// cached: a first-match scan, then two std::log calls and one std::exp.
std::int64_t uncached_quantile(const Points& pts, double u) {
  for (std::size_t i = 1; i < pts.size(); ++i) {
    if (u <= pts[i].cdf) {
      const auto& a = pts[i - 1];
      const auto& b = pts[i];
      if (b.bytes <= a.bytes) return static_cast<std::int64_t>(b.bytes);
      if (b.cdf <= a.cdf) return static_cast<std::int64_t>(b.bytes);
      const double f = (u - a.cdf) / (b.cdf - a.cdf);
      const double lg =
          std::log(a.bytes) + f * (std::log(b.bytes) - std::log(a.bytes));
      return std::max<std::int64_t>(1, static_cast<std::int64_t>(std::exp(lg)));
    }
  }
  return static_cast<std::int64_t>(pts.back().bytes);
}

// Test-local copy of cdf() as written before the per-point logs were cached.
double uncached_cdf(const Points& pts, double bytes) {
  if (bytes < pts.front().bytes) return 0.0;
  if (bytes >= pts.back().bytes) return 1.0;
  for (std::size_t i = 1; i < pts.size(); ++i) {
    if (bytes < pts[i].bytes) {
      const auto& a = pts[i - 1];
      const auto& b = pts[i];
      if (bytes <= a.bytes) return a.cdf;
      const double f = (std::log(bytes) - std::log(a.bytes)) /
                       (std::log(b.bytes) - std::log(a.bytes));
      return a.cdf + f * (b.cdf - a.cdf);
    }
  }
  return 1.0;
}

// `x` and the doubles on either side of it.
std::vector<double> with_neighbours(double x) {
  return {std::nextafter(x, -HUGE_VAL), x, std::nextafter(x, HUGE_VAL)};
}

TEST(FlowSizeDistribution, QuantileMatchesUncachedFormula) {
  Rng rng(23);
  std::int64_t checked = 0;
  for (auto w : kAll) {
    const auto d = FlowSizeDistribution::make(w);
    const Points& pts = d.points();
    std::vector<double> us;
    for (int i = 0; i < 200'000; ++i) us.push_back(i / 200'000.0);
    for (int i = 0; i < 200'000; ++i) us.push_back(rng.uniform());
    // Each control point's CDF (an atom's lower and upper edge included)
    // and its neighbouring doubles: where first-match picks the segment.
    for (const auto& p : pts) {
      for (double u : with_neighbours(p.cdf)) {
        if (u >= 0.0 && u < 1.0) us.push_back(u);
      }
    }
    for (double u : us) {
      ASSERT_EQ(d.quantile(u), uncached_quantile(pts, u))
          << workload_name(w) << " u=" << u;
      ++checked;
    }
  }
  EXPECT_GT(checked, 6 * 400'000);
}

TEST(FlowSizeDistribution, CdfMatchesUncachedFormula) {
  for (auto w : kAll) {
    const auto d = FlowSizeDistribution::make(w);
    const Points& pts = d.points();
    std::vector<double> xs;
    // Log-spaced over the support and a decade either side of it.
    const double lo = std::log(pts.front().bytes / 10);
    const double hi = std::log(pts.back().bytes * 10);
    for (int i = 0; i <= 100'000; ++i)
      xs.push_back(std::exp(lo + (hi - lo) * i / 100'000.0));
    for (const auto& p : pts) {
      for (double x : with_neighbours(p.bytes)) xs.push_back(x);
    }
    for (double x : xs) {
      ASSERT_EQ(d.cdf(x), uncached_cdf(pts, x))
          << workload_name(w) << " bytes=" << x;
    }
  }
}

}  // namespace
}  // namespace lgsim::workload
