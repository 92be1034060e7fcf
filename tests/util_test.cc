#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>
#include <random>
#include <utility>
#include <vector>

#include "util/env.h"
#include "util/ring.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/timeseries.h"
#include "util/units.h"

namespace lgsim {
namespace {

TEST(Units, SerializationTime) {
  // 1538 B on wire at 100G = 123.04 ns -> rounded up to 124.
  EXPECT_EQ(serialization_time(kMtuFrameOnWire, gbps(100)), 124);
  // At 25G: 492.16 -> 493.
  EXPECT_EQ(serialization_time(kMtuFrameOnWire, gbps(25)), 493);
  // At 10G: 1230.4 -> 1231.
  EXPECT_EQ(serialization_time(kMtuFrameOnWire, gbps(10)), 1231);
  // 64 B + 20 B overhead at 100G = 6.72 -> 7.
  EXPECT_EQ(serialization_time(84, gbps(100)), 7);
}

TEST(Units, TimeConversions) {
  EXPECT_EQ(usec(7), 7'000);
  EXPECT_EQ(msec(1), 1'000'000);
  EXPECT_EQ(sec(2), 2'000'000'000);
  EXPECT_DOUBLE_EQ(to_usec(7'500), 7.5);
  EXPECT_DOUBLE_EQ(to_sec(sec(3)), 3.0);
}

TEST(Units, BytesInTime) {
  // 100G for 1 us = 12500 bytes.
  EXPECT_EQ(bytes_in_time(usec(1), gbps(100)), 12'500);
  EXPECT_EQ(bytes_in_time(usec(1), gbps(25)), 3'125);
}

TEST(RunningStats, Basic) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0);
  s.add(2.0);
  s.add(4.0);
  s.add(6.0);
  EXPECT_EQ(s.count(), 3);
  EXPECT_DOUBLE_EQ(s.mean(), 4.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 6.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);
}

TEST(RunningStats, SingleSampleHasZeroVariance) {
  RunningStats s;
  s.add(42.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(PercentileTracker, PercentilesInterpolate) {
  PercentileTracker t;
  for (int i = 1; i <= 100; ++i) t.add(i);
  EXPECT_DOUBLE_EQ(t.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(t.percentile(100), 100.0);
  EXPECT_NEAR(t.percentile(50), 50.5, 1e-9);
  EXPECT_NEAR(t.percentile(99), 99.01, 1e-9);
  EXPECT_DOUBLE_EQ(t.min(), 1.0);
  EXPECT_DOUBLE_EQ(t.max(), 100.0);
}

TEST(PercentileTracker, CdfAt) {
  PercentileTracker t;
  for (int i = 1; i <= 10; ++i) t.add(i);
  EXPECT_DOUBLE_EQ(t.cdf_at(5.0), 0.5);
  EXPECT_DOUBLE_EQ(t.cdf_at(0.0), 0.0);
  EXPECT_DOUBLE_EQ(t.cdf_at(10.0), 1.0);
}

TEST(PercentileTracker, EmptyIsSafe) {
  PercentileTracker t;
  EXPECT_TRUE(t.empty());
  EXPECT_DOUBLE_EQ(t.percentile(99), 0.0);
  EXPECT_DOUBLE_EQ(t.mean(), 0.0);
}

TEST(PercentileTracker, AddAfterQueryResorts) {
  PercentileTracker t;
  t.add(10.0);
  EXPECT_DOUBLE_EQ(t.percentile(50), 10.0);
  t.add(0.0);
  EXPECT_DOUBLE_EQ(t.percentile(0), 0.0);
  EXPECT_DOUBLE_EQ(t.percentile(100), 10.0);
}

TEST(CountHistogram, BasicCounts) {
  CountHistogram h;
  h.add(1);
  h.add(1);
  h.add(3);
  EXPECT_EQ(h.total(), 3);
  EXPECT_EQ(h.count_at(1), 2);
  EXPECT_EQ(h.count_at(2), 0);
  EXPECT_EQ(h.count_at(3), 1);
  EXPECT_EQ(h.max_value(), 3);
  EXPECT_DOUBLE_EQ(h.cdf_at(1), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(h.cdf_at(3), 1.0);
}

TEST(TimeSeries, WindowQueries) {
  TimeSeries ts;
  ts.record(10, 1.0);
  ts.record(20, 3.0);
  ts.record(30, 5.0);
  EXPECT_DOUBLE_EQ(ts.mean_in(0, 25), 2.0);
  EXPECT_DOUBLE_EQ(ts.max_in(0, 100), 5.0);
  EXPECT_DOUBLE_EQ(ts.mean_in(100, 200), 0.0);
}

TEST(EnvParse, PositiveDoubleAcceptsNormalValues) {
  EXPECT_DOUBLE_EQ(parse_positive_double("0.1", 1.0), 0.1);
  EXPECT_DOUBLE_EQ(parse_positive_double("10", 1.0), 10.0);
  EXPECT_DOUBLE_EQ(parse_positive_double("2.5e-1", 1.0), 0.25);
  EXPECT_DOUBLE_EQ(parse_positive_double("3 ", 1.0), 3.0);  // trailing space ok
}

TEST(EnvParse, PositiveDoubleRejectsNanAndInf) {
  // std::atof would let these straight into loop bounds (LGSIM_BENCH_SCALE);
  // the parser must fall back instead.
  EXPECT_DOUBLE_EQ(parse_positive_double("nan", 1.0), 1.0);
  EXPECT_DOUBLE_EQ(parse_positive_double("NaN", 1.0), 1.0);
  EXPECT_DOUBLE_EQ(parse_positive_double("inf", 1.0), 1.0);
  EXPECT_DOUBLE_EQ(parse_positive_double("-inf", 1.0), 1.0);
  EXPECT_DOUBLE_EQ(parse_positive_double("Infinity", 1.0), 1.0);
  EXPECT_DOUBLE_EQ(parse_positive_double("1e999", 1.0), 1.0);  // overflows to inf
}

TEST(EnvParse, PositiveDoubleRejectsGarbageZeroAndNegative) {
  EXPECT_DOUBLE_EQ(parse_positive_double(nullptr, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(parse_positive_double("", 1.0), 1.0);
  EXPECT_DOUBLE_EQ(parse_positive_double("fast", 1.0), 1.0);
  EXPECT_DOUBLE_EQ(parse_positive_double("0", 1.0), 1.0);
  EXPECT_DOUBLE_EQ(parse_positive_double("-2", 1.0), 1.0);
  EXPECT_DOUBLE_EQ(parse_positive_double("1.5x", 1.0), 1.0);  // trailing junk
}

TEST(EnvParse, PositiveCount) {
  EXPECT_EQ(parse_positive_count("8", 4), 8u);
  EXPECT_EQ(parse_positive_count("1", 4), 1u);
  EXPECT_EQ(parse_positive_count(nullptr, 4), 4u);
  EXPECT_EQ(parse_positive_count("0", 4), 4u);
  EXPECT_EQ(parse_positive_count("-3", 4), 4u);
  EXPECT_EQ(parse_positive_count("many", 4), 4u);
  EXPECT_EQ(parse_positive_count("7.5", 4), 4u);      // trailing junk
  EXPECT_EQ(parse_positive_count("999999", 4), 1024u);  // capped
}

TEST(RunningStats, MergeMatchesSingleAccumulator) {
  RunningStats all, a, b;
  for (int i = 1; i <= 10; ++i) {
    all.add(i);
    (i <= 4 ? a : b).add(i);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_DOUBLE_EQ(a.mean(), all.mean());
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
  EXPECT_NEAR(a.variance(), all.variance(), 1e-12);
}

TEST(RunningStats, MergeWithEmptySides) {
  RunningStats a, empty;
  a.add(1.0);
  a.add(3.0);
  a.merge(empty);  // no-op
  EXPECT_EQ(a.count(), 2);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
  RunningStats b;
  b.merge(a);  // adopt
  EXPECT_EQ(b.count(), 2);
  EXPECT_DOUBLE_EQ(b.mean(), 2.0);
  EXPECT_DOUBLE_EQ(b.min(), 1.0);
}

TEST(PercentileTracker, MergeIsOrderIndependent) {
  PercentileTracker all, a, b;
  for (int i = 1; i <= 100; ++i) {
    all.add(i);
    (i % 3 == 0 ? a : b).add(i);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  for (double p : {0.0, 50.0, 99.0, 100.0}) {
    EXPECT_DOUBLE_EQ(a.percentile(p), all.percentile(p));
  }
  EXPECT_DOUBLE_EQ(a.cdf_at(50.0), all.cdf_at(50.0));
}

TEST(PercentileTracker, MergeAfterQueryResorts) {
  PercentileTracker a, b;
  a.add(5.0);
  EXPECT_DOUBLE_EQ(a.percentile(50), 5.0);  // forces sort
  b.add(1.0);
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(a.percentile(100), 5.0);
}

// Sort-based reference: the nearest-rank interpolation on a sorted copy.
double sorted_percentile(std::vector<double> v, double p) {
  std::sort(v.begin(), v.end());
  if (v.empty()) return 0.0;
  if (p <= 0.0) return v.front();
  if (p >= 100.0) return v.back();
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const double frac = rank - static_cast<double>(lo);
  if (lo + 1 >= v.size()) return v.back();
  return v[lo] * (1.0 - frac) + v[lo + 1] * frac;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

TEST(PercentileTracker, SelectionMatchesSortBitForBit) {
  // Queries on unsorted trackers select instead of sorting; they must return
  // the sort's doubles exactly, whatever order earlier queries, adds, merges
  // and full-sort calls left the samples in.
  std::mt19937_64 rng(20261017);
  constexpr double kPs[] = {0.0, 0.1, 50.0, 99.0, 99.9, 100.0};
  int queries = 0, unsorted_queries = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const bool dupes = trial % 2 == 0;  // few distinct values vs continuous
    auto draw = [&] {
      return dupes ? static_cast<double>(rng() % 7)
                   : std::ldexp(static_cast<double>(rng() >> 11), -40);
    };
    const std::size_t target =
        trial < 3 ? static_cast<std::size_t>(trial + 1) : 1 + rng() % 2000;
    PercentileTracker t;
    std::vector<double> all;
    while (all.size() < target) {
      const std::size_t n =
          std::min<std::size_t>(target - all.size(), 1 + rng() % 300);
      if (rng() % 3 == 0) {
        PercentileTracker other;
        for (std::size_t i = 0; i < n; ++i) {
          const double x = draw();
          other.add(x);
          all.push_back(x);
        }
        t.merge(other);
      } else {
        for (std::size_t i = 0; i < n; ++i) {
          const double x = draw();
          t.add(x);
          all.push_back(x);
        }
      }
      // Tracks what the tracker holds: unsorted after a non-empty add or
      // merge, sorted after mean() or a p <= 0 / p >= 100 query.
      bool sorted = false;
      if (rng() % 8 == 0) {
        (void)t.mean();
        sorted = true;
      }
      for (int q = 0; q < 3; ++q) {
        const double p =
            rng() % 4 == 0
                ? std::ldexp(static_cast<double>(rng() >> 11), -53) * 100.0
                : kPs[rng() % 6];
        if (!sorted) ++unsorted_queries;
        ASSERT_TRUE(same_bits(t.percentile(p), sorted_percentile(all, p)))
            << "trial " << trial << " n " << all.size() << " p " << p;
        sorted = sorted || p <= 0.0 || p >= 100.0;
        ++queries;
      }
    }
  }
  EXPECT_GT(unsorted_queries, queries / 2);
}

TEST(PercentileTracker, QuerySequencesMatchSortedReference) {
  // A query ranking at or above the previous one selects only above the
  // previous rank; an add, merge or reset in between must void that. Each
  // sequence runs bare and with one of the three after every query.
  const std::vector<std::vector<double>> sequences = {
      {50.0, 90.0, 99.0, 99.9, 99.99},  // ascending: the tail queries
      {99.99, 99.9, 99.0, 90.0, 50.0},  // descending
      {99.0, 99.0, 50.0, 50.0, 99.9, 99.9, 99.9},  // repeated
  };
  enum class Between { kNothing, kAdd, kMerge, kReset };
  std::mt19937_64 rng(20261018);
  int queries = 0;
  for (const std::vector<double>& seq : sequences) {
    for (const Between between :
         {Between::kNothing, Between::kAdd, Between::kMerge, Between::kReset}) {
      for (int trial = 0; trial < 40; ++trial) {
        const bool dupes = trial % 2 == 0;
        auto draw = [&] {
          return dupes ? static_cast<double>(rng() % 7)
                       : std::ldexp(static_cast<double>(rng() >> 11), -40);
        };
        PercentileTracker t;
        std::vector<double> all;
        auto fill = [&](PercentileTracker& into, std::size_t n) {
          for (std::size_t i = 0; i < n; ++i) {
            const double x = draw();
            into.add(x);
            all.push_back(x);
          }
        };
        fill(t, 1 + rng() % 3000);
        for (const double p : seq) {
          ASSERT_TRUE(same_bits(t.percentile(p), sorted_percentile(all, p)))
              << "trial " << trial << " n " << all.size() << " p " << p;
          ++queries;
          switch (between) {
            case Between::kNothing: break;
            case Between::kAdd: fill(t, 1 + rng() % 50); break;
            case Between::kMerge: {
              PercentileTracker other;
              fill(other, 1 + rng() % 50);
              t.merge(other);
              break;
            }
            case Between::kReset:
              t.reset();
              all.clear();
              fill(t, 1 + rng() % 3000);
              break;
          }
        }
      }
    }
  }
  EXPECT_EQ(queries, (5 + 5 + 7) * 4 * 40);
}

TEST(CountHistogram, MergeSumsBins) {
  CountHistogram a, b;
  a.add(1);
  a.add(3);
  b.add(3);
  b.add(7, 2);
  a.merge(b);
  EXPECT_EQ(a.total(), 5);
  EXPECT_EQ(a.count_at(1), 1);
  EXPECT_EQ(a.count_at(3), 2);
  EXPECT_EQ(a.count_at(7), 2);
  EXPECT_EQ(a.max_value(), 7);
  // Merging the longer histogram into the shorter grew the bins; the other
  // direction must give the same result.
  CountHistogram c, d;
  c.add(7, 2);
  d.add(1);
  c.merge(d);
  EXPECT_EQ(c.total(), 3);
  EXPECT_EQ(c.count_at(1), 1);
  EXPECT_EQ(c.max_value(), 7);
}

TEST(TimeSeries, MergeKeepsTimeOrder) {
  TimeSeries a, b;
  a.record(10, 1.0);
  a.record(30, 3.0);
  b.record(20, 2.0);
  b.record(30, 4.0);
  a.merge(b);
  ASSERT_EQ(a.size(), 4u);
  EXPECT_EQ(a.samples()[0].time, 10);
  EXPECT_EQ(a.samples()[1].time, 20);
  EXPECT_EQ(a.samples()[2].time, 30);
  EXPECT_DOUBLE_EQ(a.samples()[2].value, 3.0);  // ties: this series first
  EXPECT_DOUBLE_EQ(a.samples()[3].value, 4.0);
  EXPECT_DOUBLE_EQ(a.mean_in(0, 25), 1.5);
}

// ------------------------------------------------------------------ SeqRing

using Ring = util::SeqRing<std::int64_t>;
using Oracle = std::map<std::int64_t, std::int64_t>;

std::vector<std::pair<std::int64_t, std::int64_t>> walk(Ring& r) {
  std::vector<std::pair<std::int64_t, std::int64_t>> out;
  r.for_each([&](std::int64_t k, std::int64_t& v) { out.emplace_back(k, v); });
  return out;
}

void expect_same(Ring& r, const Oracle& m) {
  ASSERT_EQ(r.size(), m.size());
  ASSERT_EQ(r.empty(), m.empty());
  if (!m.empty()) {
    ASSERT_EQ(r.front_key(), m.begin()->first);
  }
  const std::vector<std::pair<std::int64_t, std::int64_t>> want(m.begin(), m.end());
  ASSERT_EQ(walk(r), want);
}

TEST(SeqRing, RandomizedDifferentialAgainstMap) {
  // A sliding window of keys, as the LinkGuardian buffers see them: inserts
  // mostly near the top, erases anywhere (out of order), probes below,
  // inside and above the window. The window climbs past 2^16 and 2^17 and
  // its width changes per phase, so the ring grows several times.
  std::mt19937_64 rng(20261017);
  Ring r;
  Oracle m;
  std::int64_t base = 0;
  const std::int64_t widths[] = {4, 16, 17, 40, 300, 2500, 8, 1000};
  for (int phase = 0; phase < 8; ++phase) {
    const std::int64_t width = widths[phase];
    for (int op = 0; op < 25'000; ++op) {
      const std::uint64_t pick = rng() % 100;
      if (pick < 45) {
        // insert-if-absent: an existing key keeps its old value.
        const std::int64_t k = base + static_cast<std::int64_t>(rng() % width);
        const std::int64_t val = static_cast<std::int64_t>(rng() % 1000);
        const auto [it, inserted] = m.emplace(k, val);
        const auto [ptr, ring_inserted] = r.emplace(k, val);
        ASSERT_EQ(ring_inserted, inserted) << "key " << k;
        ASSERT_EQ(*ptr, it->second);
      } else if (pick < 80 && !m.empty()) {
        // Erase a present key chosen uniformly (not just the lowest).
        auto it = m.begin();
        std::advance(it, static_cast<long>(rng() % std::min<std::size_t>(m.size(), 64)));
        ASSERT_TRUE(r.erase(it->first));
        m.erase(it);
      } else if (pick < 85) {
        const std::int64_t k = base + static_cast<std::int64_t>(rng() % width);
        ASSERT_EQ(r.erase(k), m.erase(k) == 1) << "key " << k;
      } else {
        // find below, inside and above the current window.
        const std::int64_t lo = m.empty() ? base : m.begin()->first;
        const std::int64_t hi = m.empty() ? base : m.rbegin()->first;
        const std::int64_t probes[] = {
            lo - 1, lo - 70'000, hi + 1, hi + 65'536, hi + 131'072,
            lo + static_cast<std::int64_t>(rng() % (hi - lo + 1))};
        for (std::int64_t k : probes) {
          const auto it = m.find(k);
          const std::int64_t* got = r.find(k);
          ASSERT_EQ(got != nullptr, it != m.end()) << "key " << k;
          if (got != nullptr) {
            ASSERT_EQ(*got, it->second);
          }
          ASSERT_EQ(r.contains(k), it != m.end());
        }
      }
      if (rng() % 2 == 0) base += 1 + static_cast<std::int64_t>(rng() % 3);
      // Keys that fell far behind the window are retired, as the protocol
      // retires acknowledged seqNos.
      while (!m.empty() && m.begin()->first < base - width) {
        ASSERT_TRUE(r.erase(m.begin()->first));
        m.erase(m.begin());
      }
      if (op % 997 == 0) expect_same(r, m);
    }
    expect_same(r, m);
  }
  EXPECT_GT(base, std::int64_t{1} << 17);
  // In-order walk over a sub-range.
  std::vector<std::int64_t> sub;
  const std::int64_t a = m.begin()->first + 3, b = m.rbegin()->first - 3;
  r.for_each_in(a, b, [&](std::int64_t k, std::int64_t&) { sub.push_back(k); });
  std::vector<std::int64_t> want;
  for (auto it = m.lower_bound(a); it != m.end() && it->first <= b; ++it)
    want.push_back(it->first);
  EXPECT_EQ(sub, want);
}

TEST(SeqRing, GrowsExactlyWhenTheKeySpanExceedsCapacity) {
  Ring r;
  for (std::int64_t k = 0; k < 16; ++k) r.emplace(k, k);
  const std::size_t cap = r.capacity();
  ASSERT_EQ(cap, 16u);
  // Sliding the full window forward keeps the span at the capacity.
  for (std::int64_t k = 16; k < 1000; ++k) {
    ASSERT_TRUE(r.erase(k - 16));
    r.emplace(k, k);
    ASSERT_EQ(r.capacity(), cap);
  }
  // One key past the span doubles it, and every key survives the rehash.
  r.emplace(1000, 1000);
  EXPECT_EQ(r.capacity(), 2 * cap);
  EXPECT_EQ(r.size(), 17u);
  for (std::int64_t k = 984; k <= 1000; ++k) {
    ASSERT_NE(r.find(k), nullptr) << k;
    EXPECT_EQ(*r.find(k), k);
  }
  // An insert below the window grows it the same way: [969, 1001) still
  // fits 32 slots, [968, 1001) does not.
  r.emplace(969, -1);
  EXPECT_EQ(r.capacity(), 2 * cap);
  r.emplace(968, -2);
  EXPECT_EQ(r.capacity(), 4 * cap);
  EXPECT_EQ(r.front_key(), 968);
  EXPECT_EQ(*r.find(969), -1);
}

TEST(SeqRing, ClearThenReuseFromZeroLikeAnEnableCycle) {
  Ring r;
  const std::int64_t start = (std::int64_t{1} << 17) - 40;  // straddles 2^17
  for (std::int64_t k = start; k < start + 100; ++k) r.emplace(k, k);
  const std::size_t cap = r.capacity();
  r.clear();
  EXPECT_TRUE(r.empty());
  EXPECT_EQ(r.capacity(), cap);
  EXPECT_EQ(r.find(start + 5), nullptr);
  // Old slots are reused by keys that map to them; none may look present.
  for (std::int64_t k = 0; k < 50; ++k) {
    EXPECT_FALSE(r.contains(k));
    r.emplace(k, -k);
  }
  EXPECT_EQ(r.capacity(), cap);
  EXPECT_EQ(r.size(), 50u);
  EXPECT_EQ(r.front_key(), 0);
  std::int64_t expect = 0;
  r.for_each([&](std::int64_t k, std::int64_t& v) {
    EXPECT_EQ(k, expect);
    EXPECT_EQ(v, -expect);
    ++expect;
  });
  EXPECT_EQ(expect, 50);
}

TEST(SeqRing, EraseAtEitherEdgeShrinksTheWindow) {
  Ring r;
  for (std::int64_t k : {10, 12, 20, 25}) r.emplace(k, k);
  ASSERT_EQ(r.capacity(), 16u);
  ASSERT_TRUE(r.erase(10));
  EXPECT_EQ(r.front_key(), 12);
  ASSERT_TRUE(r.erase(25));
  ASSERT_TRUE(r.erase(12));
  EXPECT_EQ(r.front_key(), 20);
  // The window is [20, 21) again, so a 16-wide span above it fits.
  r.emplace(35, 35);
  EXPECT_EQ(r.capacity(), 16u);
  ASSERT_TRUE(r.erase(20));
  ASSERT_TRUE(r.erase(35));
  EXPECT_TRUE(r.empty());
  EXPECT_FALSE(r.erase(35));
  // An empty ring restarts its window anywhere without growing.
  r.emplace(1'000'000, 1);
  EXPECT_EQ(r.capacity(), 16u);
  EXPECT_EQ(r.front_key(), 1'000'000);
}

TEST(TablePrinter, FormatsNumbers) {
  EXPECT_EQ(TablePrinter::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::sci(0.00123, 1), "1.2e-03");
}

}  // namespace
}  // namespace lgsim
