// Tests for the Facebook-fabric topology model and the CorrOpt capacity
// predicates (§2's link A / link B example, §4.8 metrics), plus the
// randomized differential pin of the incremental capacity engine against the
// scan-based NaiveFabricMetrics reference (DESIGN.md §11).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "fabric/naive_metrics.h"
#include "fabric/topology.h"
#include "sim/random.h"

namespace lgsim::fabric {
namespace {

using Kind = LinkTransition::Kind;

TopologyConfig small() {
  return TopologyConfig{.pods = 2, .tors_per_pod = 48, .fabrics_per_pod = 4,
                        .spines_per_plane = 48};
}

void set_down(FabricTopology& t, std::int64_t id) {
  t.apply({Kind::kDisable, id});
}

TEST(Fabric, LinkCountsMatchGeometry) {
  FabricTopology t(small());
  // Per pod: 48*4 ToR-fabric + 4*48 fabric-spine = 384.
  EXPECT_EQ(t.n_links(), 2 * 384);
  // The paper's scale: ~260 pods for ~100K links.
  FabricTopology big({.pods = 260, .tors_per_pod = 48, .fabrics_per_pod = 4,
                      .spines_per_plane = 48});
  EXPECT_NEAR(static_cast<double>(big.n_links()), 100'000, 1'000);
}

TEST(Fabric, ConfigValidationRejectsBadDimensions) {
  // fabrics_per_pod is capped at kMaxFabricsPerPod (the fast-checker scratch
  // array bound in NaiveFabricMetrics); all dimensions must be positive.
  EXPECT_THROW(FabricTopology({.pods = 1, .tors_per_pod = 1,
                               .fabrics_per_pod = 65, .spines_per_plane = 1}),
               std::invalid_argument);
  EXPECT_THROW(FabricTopology({.pods = 0, .tors_per_pod = 48,
                               .fabrics_per_pod = 4, .spines_per_plane = 48}),
               std::invalid_argument);
  EXPECT_THROW(FabricTopology({.pods = 1, .tors_per_pod = -3,
                               .fabrics_per_pod = 4, .spines_per_plane = 48}),
               std::invalid_argument);
  EXPECT_THROW(FabricTopology({.pods = 1, .tors_per_pod = 48,
                               .fabrics_per_pod = 0, .spines_per_plane = 48}),
               std::invalid_argument);
  EXPECT_THROW(FabricTopology({.pods = 1, .tors_per_pod = 48,
                               .fabrics_per_pod = 4, .spines_per_plane = 0}),
               std::invalid_argument);
  // The boundary itself is accepted.
  EXPECT_NO_THROW(FabricTopology({.pods = 1, .tors_per_pod = 2,
                                  .fabrics_per_pod = 64,
                                  .spines_per_plane = 2}));
}

TEST(Fabric, FullTopologyHasMaxPaths) {
  FabricTopology t(small());
  EXPECT_EQ(t.max_paths_per_tor(), 192);
  EXPECT_EQ(t.paths_per_tor(0, 0), 192);
  EXPECT_DOUBLE_EQ(t.least_paths_per_tor_frac(), 1.0);
  EXPECT_DOUBLE_EQ(t.least_capacity_per_pod_frac(), 1.0);
}

TEST(Fabric, TorFabricLinkDownCostsOneFabricWorth) {
  FabricTopology t(small());
  set_down(t, t.tor_fabric_link(0, 7, 2));
  // ToR 7 of pod 0 loses the 48 paths through fabric 2.
  EXPECT_EQ(t.paths_per_tor(0, 7), 144);
  EXPECT_EQ(t.paths_per_tor(0, 8), 192);  // others unaffected
  EXPECT_DOUBLE_EQ(t.least_paths_per_tor_frac(), 144.0 / 192.0);
}

TEST(Fabric, FabricSpineLinkDownCostsOnePathPerTor) {
  FabricTopology t(small());
  set_down(t, t.fabric_spine_link(1, 3, 17));
  for (int tor = 0; tor < 48; ++tor) EXPECT_EQ(t.paths_per_tor(1, tor), 191);
  EXPECT_EQ(t.paths_per_tor(0, 0), 192);
}

// The paper's §2 example: with a 75% constraint, the first ToR-fabric link
// (A) can be disabled, but a second link (B) on the same ToR cannot.
TEST(Fabric, Section2LinkAThenLinkBExample) {
  FabricTopology t(small());
  const auto link_a = t.tor_fabric_link(0, 0, 0);
  const auto link_b = t.tor_fabric_link(0, 0, 1);
  EXPECT_TRUE(t.can_disable(link_a, 0.75));
  set_down(t, link_a);
  // ToR 0 now has 144/192 = 75%; disabling B would drop it to 50%.
  EXPECT_FALSE(t.can_disable(link_b, 0.75));
  EXPECT_TRUE(t.can_disable(link_b, 0.50));
}

TEST(Fabric, CanDisableFabricSpineRespectsPodWideImpact) {
  FabricTopology t(small());
  // Take down many spine links of fabric 0 in pod 0: each costs every ToR
  // one path.
  for (int s = 0; s < 40; ++s) set_down(t, t.fabric_spine_link(0, 0, s));
  // 152/192 = 79%: one more is fine at 75%...
  EXPECT_TRUE(t.can_disable(t.fabric_spine_link(0, 0, 40), 0.75));
  for (int s = 40; s < 48; ++s) set_down(t, t.fabric_spine_link(0, 0, s));
  // All fabric-0 spine links down: 144/192 = 75%. Any ToR-fabric link to
  // another fabric now costs 48 paths -> 96/192 = 50%.
  EXPECT_FALSE(t.can_disable(t.tor_fabric_link(0, 5, 1), 0.75));
}

TEST(Fabric, LeastCapacityReflectsLgSpeedReduction) {
  FabricTopology t(small());
  const auto id = t.tor_fabric_link(0, 0, 0);
  t.apply({Kind::kCorrupt, id, 1e-3});
  t.apply({Kind::kEnableLg, id, 0.0, 0.92});
  // One of 192 ToR-fabric links in the pod at 92%: tiny capacity dip.
  const double expect = (191.0 + 0.92) / 192.0;
  EXPECT_NEAR(t.least_capacity_per_pod_frac(), expect, 1e-9);
}

TEST(Fabric, TotalPenaltyWithAndWithoutLg) {
  FabricTopology t(small());
  t.apply({Kind::kCorrupt, 5, 1e-3});
  t.apply({Kind::kCorrupt, 400, 1e-4});
  EXPECT_NEAR(t.total_penalty(1e-8), 1.1e-3, 1e-9);
  // LinkGuardian on the worse link: its contribution collapses to 1e-9
  // (two retx copies).
  t.apply({Kind::kEnableLg, 5, 0.0, 0.92});
  EXPECT_NEAR(t.total_penalty(1e-8), 1e-4 + 1e-9, 1e-9);
}

TEST(Fabric, DisabledLinksDoNotCountTowardPenalty) {
  FabricTopology t(small());
  t.apply({Kind::kCorrupt, 5, 1e-3});
  set_down(t, 5);
  EXPECT_DOUBLE_EQ(t.total_penalty(1e-8), 0.0);
}

TEST(Fabric, MaxLgPerSwitchCountsSenders) {
  FabricTopology t(small());
  // Two LG links transmitting from the same fabric switch (pod 0, fabric 1).
  t.apply({Kind::kEnableLg, t.fabric_spine_link(0, 1, 3), 0.0, 0.999});
  t.apply({Kind::kEnableLg, t.fabric_spine_link(0, 1, 9), 0.0, 0.999});
  t.apply({Kind::kEnableLg, t.fabric_spine_link(0, 2, 1), 0.0, 0.999});
  EXPECT_EQ(t.max_lg_links_per_switch(), 2);
}

TEST(Fabric, RepairRestoresFreshLink) {
  FabricTopology t(small());
  const auto id = t.tor_fabric_link(0, 3, 1);
  t.apply({Kind::kCorrupt, id, 1e-3});
  t.apply({Kind::kEnableLg, id, 0.0, 0.92});
  set_down(t, id);
  EXPECT_EQ(t.disabled_links(), 1);
  EXPECT_EQ(t.corrupting_up_links(), 0);
  EXPECT_EQ(t.lg_up_links(), 0);
  t.apply({Kind::kRepair, id});
  EXPECT_EQ(t.disabled_links(), 0);
  EXPECT_FALSE(t.link(id).corrupting);
  EXPECT_FALSE(t.link(id).lg_enabled);
  EXPECT_DOUBLE_EQ(t.link(id).effective_speed, 1.0);
  EXPECT_EQ(t.paths_per_tor(0, 3), 192);
  EXPECT_DOUBLE_EQ(t.least_capacity_per_pod_frac(), 1.0);
}

// ---------------------------------------------------------------------------
// Randomized differential: every maintained aggregate must stay bit-identical
// to the scan-based NaiveFabricMetrics reference across long random
// up/down/LG/speed transition sequences on asymmetric topologies.

bool bits_equal(double a, double b) {
  std::uint64_t ua, ub;
  std::memcpy(&ua, &a, sizeof ua);
  std::memcpy(&ub, &b, sizeof ub);
  return ua == ub;
}

void check_against_naive(const FabricTopology& t, Rng& rng, int step) {
  const auto& cfg = t.config();
  ASSERT_TRUE(bits_equal(t.least_paths_per_tor_frac(),
                         NaiveFabricMetrics::least_paths_per_tor_frac(t)))
      << "least_paths diverged at step " << step;
  ASSERT_TRUE(bits_equal(t.least_capacity_per_pod_frac(),
                         NaiveFabricMetrics::least_capacity_per_pod_frac(t)))
      << "least_capacity diverged at step " << step;
  for (const double target : {1e-8, 1e-6}) {
    ASSERT_TRUE(bits_equal(t.total_penalty(target),
                           NaiveFabricMetrics::total_penalty(t, target)))
        << "total_penalty diverged at step " << step;
  }
  ASSERT_EQ(t.max_lg_links_per_switch(),
            NaiveFabricMetrics::max_lg_links_per_switch(t))
      << "max_lg diverged at step " << step;
  // Spot-check the O(1) counters and predicates on random coordinates.
  for (int i = 0; i < 4; ++i) {
    const auto p = static_cast<std::int32_t>(rng.uniform_int(cfg.pods));
    const auto f = static_cast<std::int32_t>(rng.uniform_int(cfg.fabrics_per_pod));
    const auto tor = static_cast<std::int32_t>(rng.uniform_int(cfg.tors_per_pod));
    ASSERT_EQ(t.up_spine_links(p, f), NaiveFabricMetrics::up_spine_links(t, p, f));
    ASSERT_EQ(t.paths_per_tor(p, tor), NaiveFabricMetrics::paths_per_tor(t, p, tor));
    const auto id = static_cast<std::int64_t>(rng.uniform_int(
        static_cast<std::uint64_t>(t.n_links())));
    const double constraint = rng.uniform(0.0, 1.0);
    ASSERT_EQ(t.can_disable(id, constraint),
              NaiveFabricMetrics::can_disable(t, id, constraint))
        << "can_disable diverged at step " << step;
  }
}

// The state bytes copy two flags of every Link record; they must agree on
// every link after every transition.
void check_state_bytes(const FabricTopology& t, int step) {
  for (std::int64_t id = 0; id < t.n_links(); ++id) {
    const Link& l = t.link(id);
    const int want =
        (l.up ? kLinkUp : 0) | (l.corrupting ? kLinkCorrupting : 0);
    ASSERT_EQ(static_cast<int>(t.link_state(id)), want)
        << "state byte of link " << id << " diverged at step " << step;
  }
}

void run_differential(const TopologyConfig& cfg, std::uint64_t seed,
                      int steps, int check_every) {
  FabricTopology t(cfg);
  Rng rng(seed);
  std::int64_t up_count = t.n_links();
  for (int step = 0; step < steps; ++step) {
    const auto id = static_cast<std::int64_t>(
        rng.uniform_int(static_cast<std::uint64_t>(t.n_links())));
    const Link& l = t.link(id);
    const double roll = rng.uniform();
    if (!l.up) {
      t.apply({Kind::kRepair, id});
      ++up_count;
    } else if (!l.corrupting && roll < 0.5) {
      // Log-uniform loss in [1e-7, 1e-1].
      const double loss = std::pow(10.0, rng.uniform(-7.0, -1.0));
      t.apply({Kind::kCorrupt, id, loss});
    } else if (roll < 0.7 && !l.lg_enabled) {
      const double speed = 0.85 + 0.15 * rng.uniform();
      t.apply({Kind::kEnableLg, id, 0.0, speed});
    } else if (roll < 0.8 && l.lg_enabled) {
      t.apply({Kind::kDisableLg, id});
    } else if (up_count > t.n_links() / 2) {
      // Keep at least half the fabric up so the topology stays interesting.
      t.apply({Kind::kDisable, id});
      --up_count;
    }
    check_state_bytes(t, step);
    if (::testing::Test::HasFatalFailure()) return;
    if (step % check_every == check_every - 1 || step == steps - 1) {
      check_against_naive(t, rng, step);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

// The cached per-link penalty terms: every transition kind, applied at
// random to a tiny fabric so the same links are hit over and over, with the
// penalty queried after each step at one of two LG targets (repeats exercise
// the cached path, switches the full recompute). Must track the naive scan
// bit for bit.
TEST(FabricDifferential, CachedPenaltyTermsMatchNaive) {
  FabricTopology t({.pods = 2, .tors_per_pod = 3, .fabrics_per_pod = 2,
                    .spines_per_plane = 3});
  Rng rng(4711);
  constexpr double kTargets[] = {1e-8, 1e-6};
  int lg_flips_on_counted = 0, loss_changes_on_counted = 0;
  int recorrupt_after_repair = 0, repairs_of_disabled = 0, target_switches = 0;
  std::vector<std::uint8_t> repaired(static_cast<std::size_t>(t.n_links()), 0);
  int target = 0;
  for (int step = 0; step < 20'000; ++step) {
    const auto id = static_cast<std::int64_t>(
        rng.uniform_int(static_cast<std::uint64_t>(t.n_links())));
    const Link before = t.link(id);
    const bool counted = before.up && before.corrupting;
    const double loss = std::pow(10.0, rng.uniform(-7.0, -1.0));
    switch (rng.uniform_int(5)) {
      case 0:
        t.apply({Kind::kCorrupt, id, loss});
        if (counted) ++loss_changes_on_counted;
        if (repaired[static_cast<std::size_t>(id)] && before.up &&
            !before.corrupting) {
          ++recorrupt_after_repair;
          repaired[static_cast<std::size_t>(id)] = 0;
        }
        break;
      case 1:
        t.apply({Kind::kEnableLg, id, 0.0, 0.85 + 0.15 * rng.uniform()});
        if (counted && !before.lg_enabled) ++lg_flips_on_counted;
        break;
      case 2:
        t.apply({Kind::kDisableLg, id});
        if (counted && before.lg_enabled) ++lg_flips_on_counted;
        break;
      case 3:
        t.apply({Kind::kDisable, id});
        break;
      default:
        t.apply({Kind::kRepair, id});
        if (!before.up) ++repairs_of_disabled;
        repaired[static_cast<std::size_t>(id)] = 1;
        break;
    }
    check_state_bytes(t, step);
    if (HasFatalFailure()) return;
    if (rng.bernoulli(0.3)) {
      target ^= 1;
      ++target_switches;
    }
    ASSERT_TRUE(bits_equal(t.total_penalty(kTargets[target]),
                           NaiveFabricMetrics::total_penalty(t, kTargets[target])))
        << "total_penalty diverged at step " << step;
  }
  EXPECT_GT(lg_flips_on_counted, 100);
  EXPECT_GT(loss_changes_on_counted, 100);
  EXPECT_GT(recorrupt_after_repair, 100);
  EXPECT_GT(repairs_of_disabled, 100);
  EXPECT_GT(target_switches, 100);
}

// The per-pod capacity count path: a layer whose up links all run at 1.0
// reads its up count instead of being scanned. A one-pod fabric makes that
// pod's capacity the metric itself, and driving one layer at a time keeps
// the other at 1.0, so it never masks the driven one. Each layer goes from
// all-unit to slowed and back through every transition that moves a link's
// speed or up state, then through random ones.
TEST(FabricDifferential, CapacityCountPathMatchesNaiveThroughSpeedChanges) {
  FabricTopology t({.pods = 1, .tors_per_pod = 5, .fabrics_per_pod = 3,
                    .spines_per_plane = 4});
  int step = 0;
  const auto check = [&](const char* what) {
    ASSERT_TRUE(bits_equal(t.least_capacity_per_pod_frac(),
                           NaiveFabricMetrics::least_capacity_per_pod_frac(t)))
        << what << " (step " << step << ")";
    ++step;
  };
  Rng rng(31337);
  for (const LinkLayer layer :
       {LinkLayer::kTorFabric, LinkLayer::kFabricSpine}) {
    // Layer link i: ToR i / 3 or spine i / 3, fabric i % 3.
    const auto link = [&](std::int32_t i) {
      return layer == LinkLayer::kTorFabric
                 ? t.tor_fabric_link(0, i / 3, i % 3)
                 : t.fabric_spine_link(0, i % 3, i / 3);
    };
    const std::int64_t a = link(0), b = link(4), c = link(7);
    t.apply({Kind::kCorrupt, a, 1e-3});
    check("corruption alone");
    t.apply({Kind::kEnableLg, a, 0.0, 1.0});
    check("LG at exactly 1.0");
    t.apply({Kind::kEnableLg, b, 0.0, 0.92});
    check("LG below 1.0");
    t.apply({Kind::kEnableLg, c, 0.0, 0.999});
    check("a second slowed link");
    t.apply({Kind::kDisableLg, b});
    check("LG off");
    t.apply({Kind::kDisable, c});
    check("disable of a slowed link");
    t.apply({Kind::kEnableLg, c, 0.0, 0.85});
    check("LG on a down link");
    t.apply({Kind::kRepair, c});
    check("repair of a down link");
    t.apply({Kind::kEnableLg, b, 0.0, 0.95});
    check("LG below 1.0 again");
    t.apply({Kind::kRepair, b});
    check("repair of an up slowed link");
    t.apply({Kind::kDisable, a});
    check("disable of an LG link at 1.0");
    t.apply({Kind::kRepair, a});
    check("repair back to all-unit");
    ASSERT_TRUE(bits_equal(t.least_capacity_per_pod_frac(), 1.0));

    // Random transitions on this layer, with exact-1.0 speeds half the time.
    const std::int32_t n = layer == LinkLayer::kTorFabric ? 5 * 3 : 3 * 4;
    for (int i = 0; i < 2'000; ++i) {
      const std::int64_t id =
          link(static_cast<std::int32_t>(rng.uniform_int(n)));
      switch (rng.uniform_int(4)) {
        case 0:
          t.apply({Kind::kEnableLg, id, 0.0,
                   rng.bernoulli(0.5) ? 1.0 : 0.85 + 0.15 * rng.uniform()});
          break;
        case 1:
          t.apply({Kind::kDisableLg, id});
          break;
        case 2:
          t.apply({Kind::kDisable, id});
          break;
        default:
          t.apply({Kind::kRepair, id});
          break;
      }
      check("random transition");
      if (HasFatalFailure()) return;
    }
    for (std::int32_t i = 0; i < n; ++i) t.apply({Kind::kRepair, link(i)});
    check("all repaired");
  }
}

TEST(FabricDifferential, AsymmetricSmallTopology) {
  // Odd dimensions shake out any row/column indexing confusion.
  run_differential({.pods = 3, .tors_per_pod = 7, .fabrics_per_pod = 5,
                    .spines_per_plane = 9},
                   1234, 10'000, 1);
}

TEST(FabricDifferential, SinglePodSingleFabric) {
  run_differential({.pods = 1, .tors_per_pod = 3, .fabrics_per_pod = 1,
                    .spines_per_plane = 4},
                   77, 5'000, 1);
}

TEST(FabricDifferential, PaperShapedSlice) {
  // Paper-shaped pods (48 ToRs, 4 fabrics, 48 spines); checks are O(links),
  // so verify on a coarser cadence.
  run_differential({.pods = 4, .tors_per_pod = 48, .fabrics_per_pod = 4,
                    .spines_per_plane = 48},
                   991, 10'000, 97);
}

}  // namespace
}  // namespace lgsim::fabric
