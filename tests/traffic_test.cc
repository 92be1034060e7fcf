// Tests for the fabric-scale hybrid-fidelity traffic engine (src/traffic).
#include <algorithm>
#include <cstring>
#include <set>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "corropt/corropt.h"
#include "obs/trace.h"
#include "traffic/engine.h"
#include "traffic/fluid.h"
#include "traffic/path.h"
#include "workload/arrivals.h"

namespace lgsim::traffic {
namespace {

fabric::TopologyConfig small_topo() {
  return {.pods = 2, .tors_per_pod = 4, .fabrics_per_pod = 2,
          .spines_per_plane = 4};
}

EngineConfig small_cfg() {
  EngineConfig c;
  c.topo = small_topo();
  c.hosts_per_tor = 2;
  c.duration_sec = 0.002;
  c.slices = 4;
  c.seeds = {1, 2};
  c.scheme = Scheme::kCorrOptLg;
  c.fidelity = Fidelity::kHybrid;
  c.corrupting_links = 6;
  c.capacity_constraint = 1.0;  // nothing disabled: corrupting links stay hot
  c.forced_loss_rate = 1e-3;
  c.scenario_seed = 5;
  c.arrivals.load_fraction = 0.2;
  return c;
}

bool same_samples(const lgsim::PercentileTracker& a,
                  const lgsim::PercentileTracker& b) {
  const auto& x = a.sorted_samples();
  const auto& y = b.sorted_samples();
  if (x.size() != y.size()) return false;
  return x.empty() ||
         std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0;
}

// ---------------------------------------------------------------------------
// Arrival processes
// ---------------------------------------------------------------------------

TEST(Arrivals, PoissonRateMatchesLoadDerivation) {
  workload::ArrivalSpec spec;
  spec.load_fraction = 0.1;
  spec.edge_rate = gbps(25);
  const double mean_bytes = 10'000;
  const double rate = workload::flows_per_sec(spec, mean_bytes);
  EXPECT_NEAR(rate, 0.1 * 25e9 / (8 * 10'000), 1e-6);

  workload::ArrivalProcess p(spec, mean_bytes, Rng(7));
  double sum = 0;
  const int n = 200'000;
  for (int i = 0; i < n; ++i) sum += p.next_gap_sec();
  EXPECT_NEAR(sum / n, 1.0 / rate, 0.02 / rate);
}

TEST(Arrivals, LognormalMatchesMeanGap) {
  workload::ArrivalSpec spec;
  spec.process = workload::ArrivalSpec::Process::kLognormal;
  spec.load_fraction = 0.2;
  spec.lognormal_sigma = 1.0;
  const double mean_bytes = 27'000;
  workload::ArrivalProcess p(spec, mean_bytes, Rng(11));
  double sum = 0;
  const int n = 400'000;
  for (int i = 0; i < n; ++i) sum += p.next_gap_sec();
  const double want = 1.0 / workload::flows_per_sec(spec, mean_bytes);
  EXPECT_NEAR(sum / n, want, 0.05 * want);
}

TEST(Arrivals, StreamsAreIndependentPerCellAndHost) {
  // Different (seed, cell, host) triples must give different streams; the
  // same triple the same stream.
  Rng a = workload::stream_rng(1, 2, 3);
  Rng a2 = workload::stream_rng(1, 2, 3);
  Rng b = workload::stream_rng(1, 2, 4);
  Rng c = workload::stream_rng(1, 3, 3);
  Rng d = workload::stream_rng(2, 2, 3);
  const std::uint64_t va = a.next_u64();
  EXPECT_EQ(va, a2.next_u64());
  EXPECT_NE(va, b.next_u64());
  EXPECT_NE(va, c.next_u64());
  EXPECT_NE(va, d.next_u64());
}

// ---------------------------------------------------------------------------
// Path resolution
// ---------------------------------------------------------------------------

TEST(PathResolver, ResolvesAllPairClassesOnHealthyFabric) {
  fabric::FabricTopology topo(small_topo());
  PathResolver pr(topo, 2);
  ASSERT_EQ(pr.n_hosts(), 2 * 4 * 2);

  // Same ToR: hosts 0 and 1.
  PathInfo p0 = pr.resolve(0, 1, 12345);
  EXPECT_TRUE(p0.ok);
  EXPECT_EQ(p0.n_links, 0);

  // Intra-pod, different ToR: hosts 0 and 2 (pod 0, tors 0 and 1).
  PathInfo p2 = pr.resolve(0, 2, 999);
  EXPECT_TRUE(p2.ok);
  EXPECT_EQ(p2.n_links, 2);
  for (int i = 0; i < p2.n_links; ++i) {
    EXPECT_EQ(topo.link(p2.links[i]).layer, fabric::LinkLayer::kTorFabric);
  }

  // Inter-pod: host 0 (pod 0) to last host (pod 1).
  PathInfo p4 = pr.resolve(0, pr.n_hosts() - 1, 31337);
  EXPECT_TRUE(p4.ok);
  EXPECT_EQ(p4.n_links, 4);
  EXPECT_EQ(topo.link(p4.links[0]).layer, fabric::LinkLayer::kTorFabric);
  EXPECT_EQ(topo.link(p4.links[1]).layer, fabric::LinkLayer::kFabricSpine);
  EXPECT_EQ(topo.link(p4.links[2]).layer, fabric::LinkLayer::kFabricSpine);
  EXPECT_EQ(topo.link(p4.links[3]).layer, fabric::LinkLayer::kTorFabric);
}

TEST(PathResolver, EcmpHashSpreadsAcrossFabrics) {
  fabric::FabricTopology topo(small_topo());
  PathResolver pr(topo, 2);
  std::set<std::int64_t> first_links;
  for (std::uint64_t h = 0; h < 16; ++h) {
    PathInfo p = pr.resolve(0, pr.n_hosts() - 1, h);
    ASSERT_TRUE(p.ok);
    first_links.insert(p.links[0]);
  }
  // 2 fabrics per pod -> both ToR uplinks must appear across hashes.
  EXPECT_EQ(first_links.size(), 2u);
}

TEST(PathResolver, RoutesAroundDisabledLinksAndStrandsWhenNoneLeft) {
  fabric::FabricTopology topo(small_topo());
  PathResolver pr(topo, 2);
  // Disable ToR 0's uplink to fabric 0; every 0->remote path must then use
  // fabric 1.
  const std::int64_t dead = topo.tor_fabric_link(0, 0, 0);
  topo.apply({fabric::LinkTransition::Kind::kDisable, dead, 0.0, 1.0});
  for (std::uint64_t h = 0; h < 8; ++h) {
    PathInfo p = pr.resolve(0, pr.n_hosts() - 1, h);
    ASSERT_TRUE(p.ok);
    EXPECT_NE(p.links[0], dead);
  }
  // Disable the other uplink too: ToR 0 is cut off from other ToRs.
  topo.apply({fabric::LinkTransition::Kind::kDisable,
              topo.tor_fabric_link(0, 0, 1), 0.0, 1.0});
  PathInfo p = pr.resolve(0, pr.n_hosts() - 1, 3);
  EXPECT_FALSE(p.ok);
  // Same-ToR traffic is unaffected.
  EXPECT_TRUE(pr.resolve(0, 1, 3).ok);
}

// Test-local reference resolver: PathResolver's wrap-around ECMP probe
// order, written against the Link records instead of the state bytes.
PathInfo reference_resolve(const fabric::FabricTopology& topo,
                           std::int32_t hosts_per_tor, std::int64_t src,
                           std::int64_t dst, std::uint64_t hash) {
  const auto& c = topo.config();
  const auto pod_of = [&](std::int64_t h) {
    return static_cast<std::int32_t>(h / hosts_per_tor / c.tors_per_pod);
  };
  const auto tor_of = [&](std::int64_t h) {
    return static_cast<std::int32_t>(h / hosts_per_tor % c.tors_per_pod);
  };
  const auto up = [&](std::int64_t id) { return topo.link(id).up; };
  PathInfo p;
  const std::int32_t sp = pod_of(src), st = tor_of(src);
  const std::int32_t dp = pod_of(dst), dt = tor_of(dst);
  if (sp == dp && st == dt) {
    p.ok = true;
    return p;
  }
  const std::int32_t F = c.fabrics_per_pod, S = c.spines_per_plane;
  const auto f0 = static_cast<std::int32_t>(hash % static_cast<std::uint64_t>(F));
  const auto s0 = static_cast<std::int32_t>((hash >> 16) %
                                            static_cast<std::uint64_t>(S));
  for (std::int32_t i = 0; i < F; ++i) {
    const std::int32_t f = (f0 + i) % F;
    const std::int64_t a = topo.tor_fabric_link(sp, st, f);
    const std::int64_t d = topo.tor_fabric_link(dp, dt, f);
    if (!up(a) || !up(d)) continue;
    if (sp == dp) {
      p.links = {a, d, 0, 0};
      p.n_links = 2;
      p.ok = true;
      return p;
    }
    for (std::int32_t j = 0; j < S; ++j) {
      const std::int32_t s = (s0 + j) % S;
      const std::int64_t b = topo.fabric_spine_link(sp, f, s);
      const std::int64_t e = topo.fabric_spine_link(dp, f, s);
      if (up(b) && up(e)) {
        p.links = {a, b, e, d};
        p.n_links = 4;
        p.ok = true;
        return p;
      }
    }
  }
  return p;
}

TEST(PathResolver, StateBytesAgreeWithLinkRecordReference) {
  // Random small fabrics with random disabled (some of them corrupting)
  // link sets: every host pair under several hashes resolves to the
  // reference's path, stranded pairs included.
  Rng rng(8675309);
  std::int64_t stranded = 0, intra = 0, inter = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const fabric::TopologyConfig tc{
        .pods = 1 + static_cast<std::int32_t>(rng.uniform_int(3)),
        .tors_per_pod = 1 + static_cast<std::int32_t>(rng.uniform_int(4)),
        .fabrics_per_pod = 1 + static_cast<std::int32_t>(rng.uniform_int(3)),
        .spines_per_plane = 1 + static_cast<std::int32_t>(rng.uniform_int(4))};
    const auto hpt = 1 + static_cast<std::int32_t>(rng.uniform_int(2));
    fabric::FabricTopology topo(tc);
    const double p_down = rng.uniform(0.0, 0.6);
    for (std::int64_t id = 0; id < topo.n_links(); ++id) {
      if (rng.bernoulli(0.2))
        topo.apply({fabric::LinkTransition::Kind::kCorrupt, id, 1e-3, 1.0});
      if (rng.bernoulli(p_down))
        topo.apply({fabric::LinkTransition::Kind::kDisable, id, 0.0, 1.0});
    }
    const PathResolver pr(topo, hpt);
    for (std::int64_t src = 0; src < pr.n_hosts(); ++src) {
      for (std::int64_t dst = 0; dst < pr.n_hosts(); ++dst) {
        if (src == dst) continue;
        for (int k = 0; k < 3; ++k) {
          const std::uint64_t hash = rng.next_u64();
          const PathInfo got = pr.resolve(src, dst, hash);
          const PathInfo want = reference_resolve(topo, hpt, src, dst, hash);
          ASSERT_EQ(got.ok, want.ok) << "trial " << trial;
          ASSERT_EQ(got.n_links, want.n_links) << "trial " << trial;
          for (std::int32_t i = 0; i < got.n_links; ++i)
            ASSERT_EQ(got.links[i], want.links[i]) << "trial " << trial;
          if (!got.ok) ++stranded;
          if (got.n_links == 2) ++intra;
          if (got.n_links == 4) ++inter;
        }
      }
    }
  }
  EXPECT_GT(stranded, 100);
  EXPECT_GT(intra, 100);
  EXPECT_GT(inter, 100);
}

// Test-local copy of PathResolver::resolve as written before its rows were
// cached: pod and ToR from three divisions per endpoint, link ids from the
// topology's out-of-line accessors, `%` in the probe loops.
PathInfo division_resolve(const fabric::FabricTopology& topo,
                          std::int32_t hosts_per_tor, std::int64_t src,
                          std::int64_t dst, std::uint64_t hash) {
  const auto& c = topo.config();
  const auto pod_of = [&](std::int64_t h) {
    return static_cast<std::int32_t>(
        h / (static_cast<std::int64_t>(c.tors_per_pod) * hosts_per_tor));
  };
  const auto tor_of = [&](std::int64_t h) {
    return static_cast<std::int32_t>(h / hosts_per_tor % c.tors_per_pod);
  };
  const auto is_up = [&](std::int64_t id) {
    return (topo.link_state(id) & fabric::kLinkUp) != 0;
  };
  PathInfo p;
  const std::int32_t sp = pod_of(src), st = tor_of(src);
  const std::int32_t dp = pod_of(dst), dt = tor_of(dst);
  if (sp == dp && st == dt) {
    p.ok = true;
    return p;
  }
  const std::int32_t F = c.fabrics_per_pod;
  const std::int32_t S = c.spines_per_plane;
  const auto f0 = static_cast<std::int32_t>(hash % static_cast<std::uint64_t>(F));
  if (sp == dp) {
    for (std::int32_t i = 0; i < F; ++i) {
      const std::int32_t f = (f0 + i) % F;
      const std::int64_t up1 = topo.tor_fabric_link(sp, st, f);
      const std::int64_t dn1 = topo.tor_fabric_link(sp, dt, f);
      if (is_up(up1) && is_up(dn1)) {
        p.links = {up1, dn1, 0, 0};
        p.n_links = 2;
        p.ok = true;
        return p;
      }
    }
    return p;
  }
  const auto s0 =
      static_cast<std::int32_t>((hash >> 16) % static_cast<std::uint64_t>(S));
  for (std::int32_t i = 0; i < F; ++i) {
    const std::int32_t f = (f0 + i) % F;
    const std::int64_t up1 = topo.tor_fabric_link(sp, st, f);
    const std::int64_t dn1 = topo.tor_fabric_link(dp, dt, f);
    if (!is_up(up1) || !is_up(dn1)) continue;
    for (std::int32_t j = 0; j < S; ++j) {
      const std::int32_t s = (s0 + j) % S;
      const std::int64_t up2 = topo.fabric_spine_link(sp, f, s);
      const std::int64_t dn2 = topo.fabric_spine_link(dp, f, s);
      if (is_up(up2) && is_up(dn2)) {
        p.links = {up1, up2, dn2, dn1};
        p.n_links = 4;
        p.ok = true;
        return p;
      }
    }
  }
  return p;
}

TEST(PathResolver, MatchesReferenceResolver) {
  // Random small fabrics, wide enough for the probes to wrap around several
  // fabrics and spines, with random disabled links: every host pair
  // (same-ToR pairs included) under hashes spanning all 64 bits resolves to
  // the reference's exact path.
  Rng rng(20261018);
  std::int64_t same_tor = 0, intra = 0, inter = 0, stranded = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const fabric::TopologyConfig tc{
        .pods = 1 + static_cast<std::int32_t>(rng.uniform_int(4)),
        .tors_per_pod = 1 + static_cast<std::int32_t>(rng.uniform_int(4)),
        .fabrics_per_pod = 1 + static_cast<std::int32_t>(rng.uniform_int(6)),
        .spines_per_plane = 1 + static_cast<std::int32_t>(rng.uniform_int(7))};
    const auto hpt = 1 + static_cast<std::int32_t>(rng.uniform_int(3));
    fabric::FabricTopology topo(tc);
    const double p_down = rng.uniform(0.0, 0.7);
    for (std::int64_t id = 0; id < topo.n_links(); ++id) {
      if (rng.bernoulli(p_down))
        topo.apply({fabric::LinkTransition::Kind::kDisable, id, 0.0, 1.0});
    }
    const PathResolver pr(topo, hpt);
    for (std::int64_t src = 0; src < pr.n_hosts(); ++src) {
      for (std::int64_t dst = 0; dst < pr.n_hosts(); ++dst) {
        if (src == dst) continue;
        for (int k = 0; k < 3; ++k) {
          const std::uint64_t hash = rng.next_u64();
          const PathInfo got = pr.resolve(src, dst, hash);
          const PathInfo want = division_resolve(topo, hpt, src, dst, hash);
          ASSERT_EQ(got.ok, want.ok) << "trial " << trial;
          ASSERT_EQ(got.n_links, want.n_links) << "trial " << trial;
          for (std::int32_t i = 0; i < got.n_links; ++i)
            ASSERT_EQ(got.links[i], want.links[i]) << "trial " << trial;
          if (!got.ok) ++stranded;
          else if (got.n_links == 0) ++same_tor;
          else if (got.n_links == 2) ++intra;
          else ++inter;
        }
      }
    }
  }
  EXPECT_GT(same_tor, 50);
  EXPECT_GT(intra, 100);
  EXPECT_GT(inter, 100);
  EXPECT_GT(stranded, 100);
}

// ---------------------------------------------------------------------------
// Fluid model
// ---------------------------------------------------------------------------

TEST(FluidModel, MonotoneInSizeHopsAndLoss) {
  const FluidModel m(FluidConfig{}, gbps(100));
  Rng rng(1);
  const double f_small = m.fct_ns(1'000, 4, 0.0, rng);
  const double f_big = m.fct_ns(1'000'000, 4, 0.0, rng);
  EXPECT_LT(f_small, f_big);
  const double f_near = m.fct_ns(10'000, 0, 0.0, rng);
  const double f_far = m.fct_ns(10'000, 4, 0.0, rng);
  EXPECT_LT(f_near, f_far);
  // Certain loss adds a visible recovery penalty on average.
  double lossy = 0, clean = 0;
  for (int i = 0; i < 200; ++i) {
    lossy += m.fct_ns(100'000, 4, 0.5, rng);
    clean += m.fct_ns(100'000, 4, 0.0, rng);
  }
  EXPECT_GT(lossy, clean);
}

TEST(FluidModel, NoLossFctTracksPacketReferenceDecade) {
  // Coarse agreement band with the packet-level testbed path: a 24,387 B
  // DCTCP flow completes in ~60-70 us there (bench_fig11 no-loss row); the
  // fluid estimate must land within 3x either way.
  FluidConfig fc;
  fc.load = 0.0;
  const FluidModel m(fc, gbps(100));
  Rng rng(1);
  const double us = m.fct_ns(24'387, 1, 0.0, rng) / 1000.0;
  EXPECT_GT(us, 65.0 / 3.0);
  EXPECT_LT(us, 65.0 * 3.0);
}

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

TEST(TrafficEngine, FlowAccountingIsConserved) {
  const TrafficResult r = run_traffic(small_cfg(), 2);
  EXPECT_GT(r.generated, 0);
  EXPECT_EQ(r.generated, r.completed + r.stranded);
  EXPECT_EQ(r.completed, r.packet_flows + r.fluid_flows);
  EXPECT_GT(r.victims, 0);
  EXPECT_EQ(static_cast<std::int64_t>(r.fct_victim_us.count()), r.victims);
  EXPECT_EQ(static_cast<std::int64_t>(r.fct_bg_us.count()),
            r.completed - r.victims);
  // Constraint 1.0 keeps every corrupting link active under LG.
  EXPECT_EQ(r.hot_links.size(), 6u);
  EXPECT_EQ(r.disabled_links, 0);
  for (const HotLink& h : r.hot_links) {
    EXPECT_TRUE(h.lg);
    EXPECT_LT(h.residual, h.loss_rate);
  }
}

TEST(TrafficEngine, CorrOptDisablesWhenConstraintAllows) {
  EngineConfig c = small_cfg();
  c.capacity_constraint = 0.0;  // fast checker always says yes
  const TrafficResult r = run_traffic(c, 1);
  EXPECT_EQ(r.hot_links.size(), 0u);
  EXPECT_EQ(r.disabled_links, 6);
  EXPECT_EQ(r.victims, 0);
}

TEST(TrafficEngine, CorruptingLinksCorrOptDisabledMakeNoVictims) {
  // At constraint 0.75 on the small fabric CorrOpt may disable fabric-spine
  // links (each ToR keeps 7 of 8 paths) but no ToR-fabric link (4 of 8), so
  // the scenario holds disabled and kept corrupting links side by side. A
  // disabled link keeps its corrupting flag. Rebuild the scenario and every
  // flow from public calls, and count as victims the flows whose path
  // crosses a link the Link records call corrupting.
  EngineConfig c = small_cfg();
  c.capacity_constraint = 0.75;
  const TrafficResult r = run_traffic(c, 1);
  ASSERT_GT(r.disabled_links, 0);
  ASSERT_GT(r.hot_links.size(), 0u);

  using Kind = fabric::LinkTransition::Kind;
  fabric::FabricTopology topo(c.topo);
  fabric::FabricTopology undisabled(c.topo);  // the same, minus the disables
  Rng rng(c.scenario_seed);
  std::vector<std::uint8_t> picked(static_cast<std::size_t>(topo.n_links()), 0);
  std::vector<std::int64_t> ids;
  while (static_cast<std::int32_t>(ids.size()) < c.corrupting_links) {
    const auto id = static_cast<std::int64_t>(
        rng.uniform_int(static_cast<std::uint64_t>(topo.n_links())));
    if (picked[static_cast<std::size_t>(id)]) continue;
    picked[static_cast<std::size_t>(id)] = 1;
    ids.push_back(id);
  }
  std::vector<std::int64_t> hot;
  for (const std::int64_t id : ids) {
    topo.apply({Kind::kCorrupt, id, c.forced_loss_rate, 1.0});
    undisabled.apply({Kind::kCorrupt, id, c.forced_loss_rate, 1.0});
    if (topo.can_disable(id, c.capacity_constraint))
      topo.apply({Kind::kDisable, id, 0.0, 1.0});
    else
      hot.push_back(id);
  }
  std::sort(hot.begin(), hot.end());
  ASSERT_EQ(hot.size(), r.hot_links.size());
  for (std::size_t i = 0; i < hot.size(); ++i)
    ASSERT_EQ(hot[i], r.hot_links[i].id) << "scenario replica drifted";

  const PathResolver pr(topo, c.hosts_per_tor);
  const PathResolver pr_undisabled(undisabled, c.hosts_per_tor);
  const auto dist = workload::FlowSizeDistribution::make(c.workload);
  std::int64_t generated = 0, victims = 0, diverted = 0;
  for (const std::uint64_t seed : c.seeds) {
    for (std::int32_t slice = 0; slice < c.slices; ++slice) {
      const double t0 = slice * (c.duration_sec / c.slices);
      const double t1 = (slice + 1) * (c.duration_sec / c.slices);
      for (std::int64_t host = 0; host < pr.n_hosts(); ++host) {
        Rng hr = workload::stream_rng(seed, static_cast<std::uint64_t>(slice),
                                      static_cast<std::uint64_t>(host));
        workload::ArrivalProcess arrivals(c.arrivals, dist.mean_bytes(),
                                          hr.split());
        for (double t = t0 + arrivals.next_gap_sec(); t < t1;
             t += arrivals.next_gap_sec()) {
          ++generated;
          (void)dist.sample(hr);
          auto dst = static_cast<std::int64_t>(
              hr.uniform_int(static_cast<std::uint64_t>(pr.n_hosts() - 1)));
          if (dst >= host) ++dst;
          const std::uint64_t hash = hr.next_u64();
          (void)hr.next_u64();
          const PathInfo path = pr.resolve(host, dst, hash);
          bool victim = false;
          for (std::int32_t i = 0; i < path.n_links; ++i)
            victim = victim || topo.link(path.links[i]).corrupting;
          victims += victim ? 1 : 0;
          const PathInfo alt = pr_undisabled.resolve(host, dst, hash);
          for (std::int32_t i = 0; i < alt.n_links; ++i)
            diverted += topo.link(alt.links[i]).up ? 0 : 1;
        }
      }
    }
  }
  EXPECT_EQ(r.generated, generated);
  EXPECT_EQ(r.victims, victims);
  EXPECT_GT(victims, 0);
  // The disabled corrupting links sit on paths flows would otherwise take.
  EXPECT_GT(diverted, 0);
}

TEST(TrafficEngine, ByteIdenticalAcrossWorkerCounts) {
  const EngineConfig c = small_cfg();
  const TrafficResult r1 = run_traffic(c, 1);
  const TrafficResult r4 = run_traffic(c, 4);
  const TrafficResult r8 = run_traffic(c, 8);
  for (const TrafficResult* r : {&r4, &r8}) {
    EXPECT_EQ(r1.generated, r->generated);
    EXPECT_EQ(r1.victims, r->victims);
    EXPECT_EQ(r1.stranded, r->stranded);
    EXPECT_TRUE(same_samples(r1.fct_victim_us, r->fct_victim_us));
    EXPECT_TRUE(same_samples(r1.fct_bg_us, r->fct_bg_us));
  }
}

TEST(TrafficEngine, HybridVictimFctsMatchAllPacketReference) {
  EngineConfig hybrid = small_cfg();
  EngineConfig allpkt = small_cfg();
  allpkt.fidelity = Fidelity::kAllPacket;
  const TrafficResult h = run_traffic(hybrid, 2);
  const TrafficResult a = run_traffic(allpkt, 2);
  ASSERT_GT(h.victims, 0);
  EXPECT_EQ(h.victims, a.victims);
  EXPECT_TRUE(same_samples(h.fct_victim_us, a.fct_victim_us));
  // Background switches model (fluid vs packet) but counts must agree.
  EXPECT_EQ(h.generated, a.generated);
  EXPECT_EQ(h.fct_bg_us.count(), a.fct_bg_us.count());
}

TEST(TrafficEngine, FluidBackgroundTracksPacketBackgroundCoarsely) {
  EngineConfig hybrid = small_cfg();
  EngineConfig allpkt = small_cfg();
  allpkt.fidelity = Fidelity::kAllPacket;
  const TrafficResult h = run_traffic(hybrid, 2);
  const TrafficResult a = run_traffic(allpkt, 2);
  ASSERT_GT(h.fct_bg_us.count(), 100);
  // Medians within 3x either way: the fluid model is an approximation, but
  // it must live in the packet reference's decade.
  const double mh = h.p_bg(50), ma = a.p_bg(50);
  EXPECT_GT(mh, ma / 3.0);
  EXPECT_LT(mh, ma * 3.0);
}

TEST(TrafficEngine, LinkGuardianShrinksVictimTail) {
  EngineConfig lg = small_cfg();
  EngineConfig co = small_cfg();
  co.scheme = Scheme::kCorrOptOnly;
  const TrafficResult rl = run_traffic(lg, 2);
  const TrafficResult rc = run_traffic(co, 2);
  ASSERT_GT(rl.victims, 50);
  ASSERT_GT(rc.victims, 50);
  EXPECT_LT(rl.p_victim(99), rc.p_victim(99));
  EXPECT_LT(rl.fct_victim_us.mean(), rc.fct_victim_us.mean());
}

TEST(TrafficEngine, VictimOverflowFallsBackToFluid) {
  EngineConfig c = small_cfg();
  c.max_packet_flows_per_cell = 1;
  const TrafficResult r = run_traffic(c, 1);
  EXPECT_GT(r.victim_fluid_fallback, 0);
  EXPECT_EQ(static_cast<std::int64_t>(r.fct_victim_us.count()), r.victims);
}

TEST(TrafficEngineShard, ShardedRunIsByteIdenticalToUnsharded) {
  // Host blocks are a wall-clock knob only: the same configuration at shards
  // 1, 2, 8 and 64 (more blocks than the 16 hosts, clamped) must merge to the
  // same bytes, at any cell-job count.
  const TrafficResult ref = run_traffic(small_cfg(), 2);
  ASSERT_GT(ref.victims, 0);
  for (std::int32_t shards : {2, 8, 64}) {
    EngineConfig c = small_cfg();
    c.shards = shards;
    const TrafficResult r = run_traffic(c, 2);
    EXPECT_EQ(r.generated, ref.generated) << shards << " shards";
    EXPECT_EQ(r.completed, ref.completed);
    EXPECT_EQ(r.stranded, ref.stranded);
    EXPECT_EQ(r.victims, ref.victims);
    EXPECT_EQ(r.packet_flows, ref.packet_flows);
    EXPECT_EQ(r.fluid_flows, ref.fluid_flows);
    EXPECT_EQ(r.victim_fluid_fallback, ref.victim_fluid_fallback);
    EXPECT_TRUE(same_samples(r.fct_victim_us, ref.fct_victim_us));
    EXPECT_TRUE(same_samples(r.fct_bg_us, ref.fct_bg_us));
  }
}

TEST(TrafficEngineShard, ShardedBudgetFallbackMatchesUnsharded) {
  // The per-cell packet budget is resolved in (host, per-host index) order
  // after the blocks are generated, so even a saturated budget (every
  // decision order-sensitive) must reproduce the shards=1 fallback
  // accounting.
  EngineConfig base = small_cfg();
  base.max_packet_flows_per_cell = 1;
  const TrafficResult ref = run_traffic(base, 1);
  ASSERT_GT(ref.victim_fluid_fallback, 0);
  EngineConfig c = base;
  c.shards = 2;
  const TrafficResult r = run_traffic(c, 2);
  EXPECT_EQ(r.victim_fluid_fallback, ref.victim_fluid_fallback);
  EXPECT_EQ(r.packet_flows, ref.packet_flows);
  EXPECT_EQ(r.fluid_flows, ref.fluid_flows);
  EXPECT_TRUE(same_samples(r.fct_victim_us, ref.fct_victim_us));
  EXPECT_TRUE(same_samples(r.fct_bg_us, ref.fct_bg_us));
}

TEST(TrafficEngineShard, TracedRunIsIdenticalAcrossShardsAndJobs) {
  // A traced cell whose replay fans out records each packet group into its
  // own sink and absorbs them in group order; every cell sink must end up
  // exactly as the serial replay leaves it.
  using Records =
      std::vector<std::tuple<SimTime, std::string, int, int, int,
                             std::int64_t, std::int64_t>>;
  struct Traced {
    std::vector<std::pair<std::string, double>> metrics;
    Records records;
    bool operator==(const Traced&) const = default;
  };
  const auto traced = [](std::int32_t shards, unsigned jobs) {
    EngineConfig c = small_cfg();
    c.shards = shards;
    obs::TraceCollector collector;
    collector.install();
    run_traffic(c, jobs);
    collector.uninstall();
    std::vector<Traced> cells;
    for (std::size_t i = 0; i < collector.sink_count(); ++i) {
      const obs::TraceSink& s = collector.sink(i);
      Traced t{s.metrics().snapshot(), {}};
      for (std::size_t r = 0; r < s.ring().size(); ++r) {
        const obs::TraceRecord& rec = s.ring().at(r);
        t.records.emplace_back(rec.ts, s.actor_name(rec.actor),
                               static_cast<int>(rec.cat),
                               static_cast<int>(rec.kind), rec.aux, rec.a,
                               rec.b);
      }
      cells.push_back(std::move(t));
    }
    return cells;
  };
  const std::vector<Traced> ref = traced(1, 1);
  ASSERT_EQ(ref.size(), 8u);  // 2 seeds x 4 slices
  ASSERT_FALSE(ref.front().metrics.empty());
  ASSERT_FALSE(ref.front().records.empty());
  for (std::int32_t shards : {1, 4}) {
    for (unsigned jobs : {1u, 2u}) {
      EXPECT_TRUE(traced(shards, jobs) == ref)
          << shards << " shards, " << jobs << " jobs";
    }
  }
}

TEST(TrafficEngine, RejectsInvalidConfigs) {
  const std::pair<const char*, void (*)(EngineConfig&)> bad[] = {
      {"slices", [](EngineConfig& c) { c.slices = 0; }},
      {"seeds", [](EngineConfig& c) { c.seeds.clear(); }},
      {"duration_sec", [](EngineConfig& c) { c.duration_sec = 0.0; }},
      {"duration_sec", [](EngineConfig& c) { c.duration_sec = -1.0; }},
      {"hosts_per_tor", [](EngineConfig& c) { c.hosts_per_tor = 0; }},
      {"2 hosts",
       [](EngineConfig& c) {
         c.topo.pods = 1;
         c.topo.tors_per_pod = 1;
         c.hosts_per_tor = 1;
       }},
      {"shards", [](EngineConfig& c) { c.shards = 0; }},
      {"max_packet_flows_per_cell",
       [](EngineConfig& c) { c.max_packet_flows_per_cell = -1; }},
  };
  for (const auto& [what, mutate] : bad) {
    EngineConfig c = small_cfg();
    mutate(c);
    try {
      run_traffic(c, 1);
      ADD_FAILURE() << "accepted a config with bad " << what;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
          << e.what();
    }
  }
}

TEST(TrafficEngine, ExportMetricsMirrorsCounters) {
  const TrafficResult r = run_traffic(small_cfg(), 2);
  obs::MetricsRegistry m;
  r.export_metrics(m);
  EXPECT_EQ(m.counter("traffic.flows_generated"), r.generated);
  EXPECT_EQ(m.counter("traffic.flows_victim"), r.victims);
  EXPECT_EQ(m.counter("traffic.flows_fluid"), r.fluid_flows);
  EXPECT_EQ(m.counter("traffic.flows_packet"), r.packet_flows);
  EXPECT_EQ(m.distribution("traffic.fct_victim_us").count(),
            r.fct_victim_us.count());
}

}  // namespace
}  // namespace lgsim::traffic
