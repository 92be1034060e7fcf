// Tests for the CorrOpt trace generator and deployment simulation (§4.8).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "corropt/corropt.h"
#include "corropt/reference.h"

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

// run_deployment (pod-local optimizer, incremental metrics) against the
// pre-refactor engine (full backlog rescan, scan-based metrics): both
// small_cfg arms, then random fabrics, constraints and accelerated failure
// rates — long backlogs, many pods contending at once. Same events, same RNG
// streams; the results must agree bit for bit.
TEST(DeploymentDifferential, PodLocalOptimizerMatchesFullRescanBitwise) {
  std::vector<DeploymentConfig> cfgs = {small_cfg(false), small_cfg(true)};
  Rng rng(2024);
  constexpr int kRandom = 60;
  for (int i = 0; i < kRandom; ++i) {
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
    cfgs.push_back(cfg);
  }
  int with_optimizer_disables = 0;
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    const DeploymentConfig& cfg = cfgs[i];
    const auto pod_local = run_deployment(cfg);
    ASSERT_TRUE(bit_identical(pod_local, reference_deployment(cfg)))
        << "diverged on config " << i << " (pods " << cfg.topo.pods
        << ", constraint " << cfg.capacity_constraint << ", lg "
        << cfg.use_linkguardian << ")";
    if (pod_local.disabled_by_optimizer > 0) ++with_optimizer_disables;
  }
  // The sweep must actually exercise the optimizer, not just the fast path.
  EXPECT_GE(with_optimizer_disables, kRandom / 2);
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
// here. The values were captured from this implementation; run_deployment
// and the reference engine must both reproduce them (the digest covers
// every sample bit).
TEST(DeploymentGolden, SixteenPodReferenceRun) {
  DeploymentConfig cfg;
  cfg.topo = {.pods = 16, .tors_per_pod = 48, .fabrics_per_pod = 4,
              .spines_per_plane = 48};
  cfg.duration_hours = 24 * 90;
  cfg.mttf_hours = 2'000;
  cfg.use_linkguardian = true;
  cfg.sample_period_hours = 6.0;
  cfg.seed = 12345;
  for (const bool reference : {false, true}) {
    const auto res =
        reference ? reference_deployment(cfg) : run_deployment(cfg);
    EXPECT_EQ(res.corruption_events, 6611) << "reference=" << reference;
    EXPECT_EQ(res.disabled_immediately, 2627) << "reference=" << reference;
    EXPECT_EQ(res.kept_active, 3387) << "reference=" << reference;
    EXPECT_EQ(res.disabled_by_optimizer, 2809) << "reference=" << reference;
    EXPECT_EQ(res.max_lg_per_switch, 26) << "reference=" << reference;
    ASSERT_EQ(res.samples.size(), 359u) << "reference=" << reference;
    EXPECT_EQ(samples_digest(res), 4305412010910275142ULL)
        << "reference=" << reference;
  }
}

// Each config run_deployment cannot run is rejected before any work.
TEST(Deployment, RejectsInvalidConfigs) {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  const std::vector<std::pair<const char*, void (*)(DeploymentConfig&)>> bad = {
      {"zero sample period", [](DeploymentConfig& c) { c.sample_period_hours = 0; }},
      {"negative sample period", [](DeploymentConfig& c) { c.sample_period_hours = -1; }},
      {"NaN sample period", [](DeploymentConfig& c) { c.sample_period_hours = kNaN; }},
      {"zero MTTF", [](DeploymentConfig& c) { c.mttf_hours = 0; }},
      {"negative MTTF", [](DeploymentConfig& c) { c.mttf_hours = -5; }},
      {"NaN MTTF", [](DeploymentConfig& c) { c.mttf_hours = kNaN; }},
      {"negative duration", [](DeploymentConfig& c) { c.duration_hours = -1; }},
      {"NaN duration", [](DeploymentConfig& c) { c.duration_hours = kNaN; }},
      {"constraint below 0", [](DeploymentConfig& c) { c.capacity_constraint = -0.1; }},
      {"constraint above 1", [](DeploymentConfig& c) { c.capacity_constraint = 1.5; }},
      {"fast fraction below 0", [](DeploymentConfig& c) { c.repair_fast_fraction = -0.2; }},
      {"fast fraction above 1", [](DeploymentConfig& c) { c.repair_fast_fraction = 1.01; }},
      {"negative fast repair", [](DeploymentConfig& c) { c.repair_fast_hours = -1; }},
      {"negative slow repair", [](DeploymentConfig& c) { c.repair_slow_hours = -1; }},
  };
  for (const auto& [name, mutate] : bad) {
    DeploymentConfig cfg = small_cfg(false);
    mutate(cfg);
    EXPECT_THROW(run_deployment(cfg), std::invalid_argument) << name;
  }
  // The closed-interval boundaries and a zero-length horizon are accepted.
  DeploymentConfig edge = small_cfg(false);
  edge.duration_hours = 0;
  edge.capacity_constraint = 1.0;
  edge.repair_fast_fraction = 0.0;
  edge.repair_fast_hours = 0;
  EXPECT_NO_THROW(run_deployment(edge));
}

}  // namespace
}  // namespace lgsim::corropt
