// Tests for the CorrOpt trace generator and deployment simulation (§4.8).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <queue>
#include <vector>

#include "corropt/corropt.h"

namespace lgsim::corropt {
namespace {

TEST(Table1, BucketsSumToOne) {
  double sum = 0.0;
  for (const auto& b : table1_buckets()) sum += b.fraction;
  // The paper's Table 1 percentages sum to 99.99% (rounding).
  EXPECT_NEAR(sum, 1.0, 2e-4);
}

TEST(Table1, SamplerMatchesBucketFractions) {
  Rng rng(13);
  const int n = 200'000;
  int bucket_counts[4] = {};
  for (int i = 0; i < n; ++i) {
    const double r = sample_loss_rate(rng);
    if (r < 1e-5) ++bucket_counts[0];
    else if (r < 1e-4) ++bucket_counts[1];
    else if (r < 1e-3) ++bucket_counts[2];
    else ++bucket_counts[3];
  }
  const auto& buckets = table1_buckets();
  for (int i = 0; i < 4; ++i) {
    EXPECT_NEAR(static_cast<double>(bucket_counts[i]) / n, buckets[i].fraction,
                0.01)
        << "bucket " << i;
  }
}

TEST(Table1, NormalizationLeavesNoMassOnHardCap) {
  // The Table 1 fractions sum to 0.9999; before normalization ~1e-4 of all
  // draws fell through every bucket and returned exactly the 10% hard cap.
  // With the draw normalized by the fraction total, a cap return requires
  // floating-point rounding on the final subtraction — out of 500K draws we
  // tolerate at most a couple, where the old code expected ~50.
  Rng rng(4242);
  const int n = 500'000;
  int exactly_cap = 0;
  for (int i = 0; i < n; ++i) {
    if (sample_loss_rate(rng) == 0.1) ++exactly_cap;
  }
  EXPECT_LE(exactly_cap, 2);
}

TEST(TraceGen, EventRateMatchesMttf) {
  Rng rng(17);
  const std::int64_t links = 10'000;
  const double horizon = 8'766;  // one year in hours
  const auto trace = generate_trace(links, horizon, 10'000, rng);
  // Expected events ~ links * horizon / MTTF (renewal process).
  const double expected = links * horizon / 10'000;
  EXPECT_NEAR(static_cast<double>(trace.size()), expected, expected * 0.1);
  // Sorted by time and within the horizon.
  for (std::size_t i = 1; i < trace.size(); ++i) {
    EXPECT_LE(trace[i - 1].time_hours, trace[i].time_hours);
  }
  EXPECT_GE(trace.front().time_hours, 0.0);
  EXPECT_LE(trace.back().time_hours, horizon);
}

TEST(TraceGen, PerLinkStreamsAreIndependentOfLinkCount) {
  // Each link's failure/loss sequence is a pure function of (base seed, link
  // id): adding more links to the topology must not perturb the events of the
  // links that were already there. This is what lets CorruptionStream draw
  // events lazily in pop order without replaying a global RNG.
  Rng rng_small(21), rng_big(21);
  const double horizon = 20'000, mttf = 1'000;
  const auto small = generate_trace(10, horizon, mttf, rng_small);
  const auto big = generate_trace(100, horizon, mttf, rng_big);
  std::vector<CorruptionEvent> filtered;
  for (const auto& ev : big) {
    if (ev.link < 10) filtered.push_back(ev);
  }
  ASSERT_EQ(filtered.size(), small.size());
  for (std::size_t i = 0; i < small.size(); ++i) {
    EXPECT_EQ(small[i].link, filtered[i].link);
    EXPECT_DOUBLE_EQ(small[i].time_hours, filtered[i].time_hours);
    EXPECT_DOUBLE_EQ(small[i].loss_rate, filtered[i].loss_rate);
  }
}

TEST(TraceGen, StreamMatchesMaterializedTrace) {
  // Draining a stream by hand yields exactly what generate_trace returns,
  // and next_time_hours() always previews the popped event's time.
  Rng rng_a(33), rng_b(33);
  const auto trace = generate_trace(50, 5'000, 800, rng_a);
  CorruptionStream stream(50, 5'000, 800, rng_b);
  for (const auto& expect : trace) {
    ASSERT_FALSE(stream.done());
    EXPECT_DOUBLE_EQ(stream.next_time_hours(), expect.time_hours);
    const auto got = stream.pop();
    EXPECT_DOUBLE_EQ(got.time_hours, expect.time_hours);
    EXPECT_EQ(got.link, expect.link);
    EXPECT_DOUBLE_EQ(got.loss_rate, expect.loss_rate);
  }
  EXPECT_TRUE(stream.done());
}

TEST(LgEffectiveSpeed, MatchesFig8Shape) {
  EXPECT_GT(lg_effective_speed(1e-5), 0.99);
  EXPECT_NEAR(lg_effective_speed(1e-3), 0.92, 0.01);
  EXPECT_GT(lg_effective_speed(1e-5), lg_effective_speed(1e-3));
}

DeploymentConfig small_cfg(bool lg) {
  DeploymentConfig c;
  c.topo = {.pods = 4, .tors_per_pod = 48, .fabrics_per_pod = 4,
            .spines_per_plane = 48};
  c.duration_hours = 24 * 60;  // two months
  c.mttf_hours = 1'000;        // accelerated failures for test coverage
  c.capacity_constraint = 0.75;
  c.use_linkguardian = lg;
  c.sample_period_hours = 2.0;
  c.seed = 99;
  return c;
}

TEST(Deployment, VanillaCorrOptLeavesResidualPenaltyUnderConstraint) {
  const auto res = run_deployment(small_cfg(false));
  EXPECT_GT(res.corruption_events, 100);
  EXPECT_GT(res.disabled_immediately, 0);
  ASSERT_FALSE(res.samples.empty());
  // The capacity constraint is honoured throughout.
  for (const auto& s : res.samples) {
    EXPECT_GE(s.least_paths_frac, 0.75 - 1e-9);
  }
}

TEST(Deployment, LinkGuardianReducesPenaltyByOrders) {
  const auto vanilla = run_deployment(small_cfg(false));
  const auto with_lg = run_deployment(small_cfg(true));
  // Compare mean total penalty across samples (same trace seed).
  auto mean_penalty = [](const DeploymentResult& r) {
    double s = 0.0;
    for (const auto& x : r.samples) s += x.total_penalty;
    return s / static_cast<double>(r.samples.size());
  };
  const double pv = mean_penalty(vanilla);
  const double pl = mean_penalty(with_lg);
  EXPECT_GT(pv, 0.0);
  // Whenever links cannot be disabled, LG cuts their contribution by ~4+
  // orders of magnitude; the mean must drop by at least 100x.
  EXPECT_LT(pl, pv / 100.0);
}

TEST(Deployment, LgCapacityCostIsSmall) {
  const auto with_lg = run_deployment(small_cfg(true));
  double worst = 1.0;
  for (const auto& s : with_lg.samples) worst = std::min(s.least_capacity_frac, worst);
  // Under 10x-accelerated failures the capacity dip is larger than the
  // paper's realistic regime (<0.25%), but must stay modest; the paper-scale
  // run lives in bench_fig16_deployment_cdf.
  EXPECT_GT(worst, 0.75);
}

TEST(Deployment, OptimizerDisablesWhenCapacityReturns) {
  const auto res = run_deployment(small_cfg(false));
  // With accelerated failures under a 75% constraint, some links could not
  // be disabled immediately; the optimizer should pick up at least part of
  // the backlog when repairs return.
  EXPECT_GT(res.kept_active, 0);
  EXPECT_GT(res.disabled_by_optimizer, 0);
}

TEST(Deployment, MaxLgPerSwitchStaysSmall) {
  const auto res = run_deployment(small_cfg(true));
  // §5: the paper's realistic regime sees at most 2-4 concurrently
  // LG-enabled links per switch pipe (checked at paper scale in the bench).
  // The 10x-accelerated test regime accumulates more but is bounded by the
  // port count.
  EXPECT_GE(res.max_lg_per_switch, 1);
  EXPECT_LE(res.max_lg_per_switch, 48);
}

bool bits_equal(double a, double b) {
  std::uint64_t ua, ub;
  std::memcpy(&ua, &a, sizeof ua);
  std::memcpy(&ub, &b, sizeof ub);
  return ua == ub;
}

void expect_bit_identical(const DeploymentResult& a, const DeploymentResult& b) {
  EXPECT_EQ(a.corruption_events, b.corruption_events);
  EXPECT_EQ(a.disabled_immediately, b.disabled_immediately);
  EXPECT_EQ(a.kept_active, b.kept_active);
  EXPECT_EQ(a.disabled_by_optimizer, b.disabled_by_optimizer);
  EXPECT_EQ(a.max_lg_per_switch, b.max_lg_per_switch);
  ASSERT_EQ(a.samples.size(), b.samples.size());
  for (std::size_t i = 0; i < a.samples.size(); ++i) {
    const auto& sa = a.samples[i];
    const auto& sb = b.samples[i];
    ASSERT_TRUE(bits_equal(sa.time_hours, sb.time_hours)) << "sample " << i;
    ASSERT_TRUE(bits_equal(sa.total_penalty, sb.total_penalty))
        << "sample " << i;
    ASSERT_TRUE(bits_equal(sa.least_paths_frac, sb.least_paths_frac))
        << "sample " << i;
    ASSERT_TRUE(bits_equal(sa.least_capacity_frac, sb.least_capacity_frac))
        << "sample " << i;
    ASSERT_EQ(sa.corrupting_links, sb.corrupting_links) << "sample " << i;
    ASSERT_EQ(sa.disabled_links, sb.disabled_links) << "sample " << i;
    ASSERT_EQ(sa.lg_links, sb.lg_links) << "sample " << i;
  }
}

// The tentpole's correctness pin: the incremental capacity engine and the
// scan-based NaiveFabricMetrics reference must produce bit-identical
// DeploymentResults — same events, same RNG streams, only the per-sample
// metric computation differs.
TEST(DeploymentDifferential, IncrementalMatchesNaiveBitwise) {
  for (const bool lg : {false, true}) {
    auto cfg = small_cfg(lg);
    cfg.naive_metrics = false;
    const auto incremental = run_deployment(cfg);
    cfg.naive_metrics = true;
    const auto naive = run_deployment(cfg);
    expect_bit_identical(incremental, naive);
    if (::testing::Test::HasFatalFailure()) {
      ADD_FAILURE() << "diverged with use_linkguardian=" << lg;
      return;
    }
  }
}

// Oracle for the pod-local optimizer: run_deployment's loop as it was before
// the backlog went per-pod — one global (loss desc, link asc) backlog,
// re-checked in full at every repair. Same stream, same RNG draws, same
// incremental metric engine; only the optimizer's scope differs.
DeploymentResult full_rescan_deployment(const DeploymentConfig& cfg) {
  using fabric::LinkTransition;
  using Kind = LinkTransition::Kind;
  DeploymentResult res;
  res.cfg = cfg;
  fabric::FabricTopology topo(cfg.topo);
  Rng rng(cfg.seed);
  Rng repair_rng = rng.split();
  CorruptionStream stream(topo.n_links(), cfg.duration_hours, cfg.mttf_hours,
                          rng);
  struct Repair {
    double time_hours;
    std::int64_t link;
    bool operator>(const Repair& o) const { return time_hours > o.time_hours; }
  };
  std::priority_queue<Repair, std::vector<Repair>, std::greater<>> repairs;
  struct Active {
    double loss_rate;
    std::int64_t link;
  };
  std::vector<Active> active;

  auto disable = [&](std::int64_t id, double now) {
    topo.apply({Kind::kDisable, id});
    const double d = repair_rng.bernoulli(cfg.repair_fast_fraction)
                         ? cfg.repair_fast_hours
                         : cfg.repair_slow_hours;
    repairs.push({now + d, id});
  };

  double next_sample = cfg.sample_period_hours;
  for (double now = 0.0; now < cfg.duration_hours;) {
    const double t_trace = !stream.done() ? stream.next_time_hours() : 1e18;
    const double t_repair = !repairs.empty() ? repairs.top().time_hours : 1e18;
    const double t_next = std::min({t_trace, t_repair, next_sample});
    if (t_next >= cfg.duration_hours) break;
    now = t_next;
    if (t_next == t_trace) {
      ++res.corruption_events;
      const CorruptionEvent ev = stream.pop();
      const fabric::Link& l = topo.link(ev.link);
      if (!l.up || l.corrupting) continue;
      topo.apply({Kind::kCorrupt, ev.link, ev.loss_rate});
      if (cfg.use_linkguardian) {
        topo.apply({Kind::kEnableLg, ev.link, 0.0,
                    lg_effective_speed(ev.loss_rate)});
      }
      if (topo.can_disable(ev.link, cfg.capacity_constraint)) {
        ++res.disabled_immediately;
        disable(ev.link, ev.time_hours);
      } else {
        ++res.kept_active;
        const Active a{ev.loss_rate, ev.link};
        active.insert(std::upper_bound(active.begin(), active.end(), a,
                                       [](const Active& x, const Active& y) {
                                         if (x.loss_rate != y.loss_rate)
                                           return x.loss_rate > y.loss_rate;
                                         return x.link < y.link;
                                       }),
                      a);
      }
    } else if (t_next == t_repair) {
      const Repair ev = repairs.top();
      repairs.pop();
      topo.apply({Kind::kRepair, ev.link});
      std::size_t kept = 0;
      for (const Active& a : active) {
        if (topo.can_disable(a.link, cfg.capacity_constraint)) {
          ++res.disabled_by_optimizer;
          disable(a.link, now);
        } else {
          active[kept++] = a;
        }
      }
      active.resize(kept);
    } else {
      DeploymentSample s;
      s.time_hours = now;
      s.total_penalty = topo.total_penalty(cfg.lg_target_loss);
      s.least_paths_frac = topo.least_paths_per_tor_frac();
      s.least_capacity_frac = topo.least_capacity_per_pod_frac();
      s.corrupting_links = static_cast<std::int32_t>(topo.corrupting_up_links());
      s.disabled_links = static_cast<std::int32_t>(topo.disabled_links());
      s.lg_links = static_cast<std::int32_t>(topo.lg_up_links());
      res.max_lg_per_switch =
          std::max(res.max_lg_per_switch, topo.max_lg_links_per_switch());
      res.samples.push_back(s);
      next_sample += cfg.sample_period_hours;
    }
  }
  return res;
}

// run_deployment re-optimizes only the repaired link's pod. Across random
// fabrics, constraints and accelerated failure rates — long backlogs, many
// pods contending at once — it must reproduce the full rescan bit for bit.
TEST(DeploymentDifferential, PodLocalOptimizerMatchesFullRescanBitwise) {
  Rng rng(2024);
  int with_optimizer_disables = 0;
  constexpr int kConfigs = 60;
  for (int i = 0; i < kConfigs; ++i) {
    DeploymentConfig cfg;
    const auto pick = [&](std::int32_t lo, std::int32_t hi) {
      return lo + static_cast<std::int32_t>(
                      rng.uniform_int(static_cast<std::uint64_t>(hi - lo + 1)));
    };
    cfg.topo = {.pods = pick(2, 12), .tors_per_pod = pick(2, 48),
                .fabrics_per_pod = pick(1, 6), .spines_per_plane = pick(2, 48)};
    cfg.capacity_constraint = rng.uniform(0.5, 0.95);
    cfg.use_linkguardian = rng.bernoulli(0.5);
    cfg.duration_hours = 24 * 30;
    cfg.mttf_hours = rng.uniform(150, 1'500);
    cfg.sample_period_hours = rng.uniform(1.0, 12.0);
    cfg.seed = rng.next_u64();
    const auto pod_local = run_deployment(cfg);
    expect_bit_identical(pod_local, full_rescan_deployment(cfg));
    if (::testing::Test::HasFailure()) {
      ADD_FAILURE() << "diverged on config " << i << " (pods "
                    << cfg.topo.pods << ", constraint "
                    << cfg.capacity_constraint << ", lg "
                    << cfg.use_linkguardian << ")";
      return;
    }
    if (pod_local.disabled_by_optimizer > 0) ++with_optimizer_disables;
  }
  // The sweep must actually exercise the optimizer, not just the fast path.
  EXPECT_GE(with_optimizer_disables, kConfigs / 2);
}

// FNV-1a over the per-field bytes of every sample (field-wise to avoid
// struct padding), used by the golden pin below.
std::uint64_t samples_digest(const DeploymentResult& r) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](const void* p, std::size_t n) {
    const auto* bytes = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= bytes[i];
      h *= 0x100000001b3ULL;
    }
  };
  for (const auto& s : r.samples) {
    mix(&s.time_hours, sizeof s.time_hours);
    mix(&s.total_penalty, sizeof s.total_penalty);
    mix(&s.least_paths_frac, sizeof s.least_paths_frac);
    mix(&s.least_capacity_frac, sizeof s.least_capacity_frac);
    mix(&s.corrupting_links, sizeof s.corrupting_links);
    mix(&s.disabled_links, sizeof s.disabled_links);
    mix(&s.lg_links, sizeof s.lg_links);
  }
  return h;
}

// Golden pin of run_deployment at the 16-pod reference scale (the scale
// BENCH_deploy.json's speedup claim is measured at). Any change to the event
// stream, RNG draw order, optimizer order, or metric arithmetic shows up
// here. The values were captured from this implementation; both metric
// engines must reproduce them (the digest covers every sample bit).
TEST(DeploymentGolden, SixteenPodReferenceRun) {
  DeploymentConfig cfg;
  cfg.topo = {.pods = 16, .tors_per_pod = 48, .fabrics_per_pod = 4,
              .spines_per_plane = 48};
  cfg.duration_hours = 24 * 90;
  cfg.mttf_hours = 2'000;
  cfg.use_linkguardian = true;
  cfg.sample_period_hours = 6.0;
  cfg.seed = 12345;
  for (const bool naive : {false, true}) {
    cfg.naive_metrics = naive;
    const auto res = run_deployment(cfg);
    EXPECT_EQ(res.corruption_events, 6611) << "naive=" << naive;
    EXPECT_EQ(res.disabled_immediately, 2627) << "naive=" << naive;
    EXPECT_EQ(res.kept_active, 3387) << "naive=" << naive;
    EXPECT_EQ(res.disabled_by_optimizer, 2809) << "naive=" << naive;
    EXPECT_EQ(res.max_lg_per_switch, 26) << "naive=" << naive;
    ASSERT_EQ(res.samples.size(), 359u) << "naive=" << naive;
    EXPECT_EQ(samples_digest(res), 4305412010910275142ULL) << "naive=" << naive;
  }
}

}  // namespace
}  // namespace lgsim::corropt
