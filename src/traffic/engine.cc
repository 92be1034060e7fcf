#include "traffic/engine.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <map>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "corropt/corropt.h"
#include "harness/parallel.h"
#include "obs/trace.h"
#include "traffic/path.h"

namespace lgsim::traffic {

const char* scheme_name(Scheme s) {
  switch (s) {
    case Scheme::kCorrOptOnly: return "CorrOpt";
    case Scheme::kCorrOptLg: return "CorrOpt+LG";
  }
  return "?";
}

namespace {

/// The corruption scenario: one topology snapshot shared (read-only) by all
/// cells. Built single-threaded; cells only issue const path queries.
struct Scenario {
  fabric::FabricTopology topo;
  std::vector<HotLink> hot;  // ascending link id
  std::int64_t disabled = 0;

  explicit Scenario(const fabric::TopologyConfig& tc) : topo(tc) {}

  /// Index into `hot` of a corrupting link that is still up. Every such link
  /// is hot: build_scenario disables or keeps each corrupting link.
  std::int32_t hot_of(std::int64_t id) const {
    const auto it = std::lower_bound(
        hot.begin(), hot.end(), id,
        [](const HotLink& h, std::int64_t v) { return h.id < v; });
    return static_cast<std::int32_t>(it - hot.begin());
  }
};

Scenario build_scenario(const EngineConfig& cfg) {
  Scenario sc(cfg.topo);
  Rng rng(cfg.scenario_seed);

  // Draw distinct corrupting links. Rejection sampling on the uniform link id
  // is deterministic (fixed RNG stream, fixed iteration order).
  const std::int64_t n_links = sc.topo.n_links();
  const std::int64_t want =
      std::min<std::int64_t>(cfg.corrupting_links, n_links);
  std::vector<std::uint8_t> picked(static_cast<std::size_t>(n_links), 0);
  std::vector<std::int64_t> ids;
  ids.reserve(static_cast<std::size_t>(want));
  while (static_cast<std::int64_t>(ids.size()) < want) {
    const auto id = static_cast<std::int64_t>(
        rng.uniform_int(static_cast<std::uint64_t>(n_links)));
    if (picked[static_cast<std::size_t>(id)]) continue;
    picked[static_cast<std::size_t>(id)] = 1;
    ids.push_back(id);
  }

  // CorrOpt decision per link, in draw order (mirrors corruption onsets
  // arriving one by one; earlier disables constrain later fast checks).
  for (const std::int64_t id : ids) {
    const double loss = cfg.forced_loss_rate > 0.0 ? cfg.forced_loss_rate
                                                   : corropt::sample_loss_rate(rng);
    sc.topo.apply({fabric::LinkTransition::Kind::kCorrupt, id, loss, 1.0});
    if (sc.topo.can_disable(id, cfg.capacity_constraint)) {
      sc.topo.apply({fabric::LinkTransition::Kind::kDisable, id, 0.0, 1.0});
      ++sc.disabled;
      continue;
    }
    HotLink h;
    h.id = id;
    h.loss_rate = loss;
    h.residual = loss;
    if (cfg.scheme == Scheme::kCorrOptLg) {
      sc.topo.apply({fabric::LinkTransition::Kind::kEnableLg, id, 0.0,
                     corropt::lg_effective_speed(loss)});
      const int n = lg::retx_copies(loss, cfg.lg_target_loss);
      h.residual = std::min(loss, std::pow(loss, n + 1));
      h.lg = true;
    }
    sc.hot.push_back(h);
  }
  std::sort(sc.hot.begin(), sc.hot.end(),
            [](const HotLink& a, const HotLink& b) { return a.id < b.id; });
  return sc;
}

/// One flow whose packet/fluid decision depends on a cell-global packet
/// budget. Every block lists them in generation order; see Cell::run.
struct Candidate {
  std::int64_t bytes = 0;
  std::uint64_t aux = 0;
  std::int32_t hot_idx = -1;  // -1: background (kAllPacket only)
  std::int32_t n_links = 0;
};

/// Generation output of one contiguous host block.
struct BlockOut {
  std::int64_t generated = 0;
  std::int64_t stranded = 0;
  std::int64_t victims = 0;
  std::int64_t fluid_flows = 0;
  lgsim::PercentileTracker bg_us;
  std::vector<Candidate> cands;
};

struct CellOut {
  std::int64_t generated = 0;
  std::int64_t stranded = 0;
  std::int64_t victims = 0;
  std::int64_t packet_flows = 0;
  std::int64_t fluid_flows = 0;
  std::int64_t victim_fluid_fallback = 0;
  lgsim::PercentileTracker victim_us;
  lgsim::PercentileTracker bg_us;
};

/// Extra one-way latency folded into the victim testbed path per fabric link
/// beyond the first (switch pipeline + fiber, matching FluidConfig's
/// per-hop term).
constexpr SimTime kExtraHopLatency = nsec(700);

/// One {seed, time-slice} cell and the read-only state its stages share.
class Cell {
 public:
  Cell(const EngineConfig& cfg, const Scenario& sc, std::uint64_t seed,
       std::int32_t slice)
      : cfg_(cfg),
        sc_(sc),
        seed_(seed),
        slice_(slice),
        resolver_(sc.topo, cfg.hosts_per_tor),
        dist_(workload::FlowSizeDistribution::make(cfg.workload)),
        fluid_(fluid_config(cfg), cfg.link_rate),
        t0_(slice * (cfg.duration_sec / cfg.slices)),
        t1_((slice + 1) * (cfg.duration_sec / cfg.slices)) {}

  CellOut run() const;

 private:
  static FluidConfig fluid_config(const EngineConfig& cfg) {
    FluidConfig fl = cfg.fluid;
    fl.load = cfg.arrivals.load_fraction;
    if (cfg.transport == harness::Transport::kRdmaWrite) fl.host_delay = usec(6);
    return fl;
  }

  double fluid_us(const Candidate& c) const {
    Rng fr(c.aux);
    const double loss =
        c.hot_idx >= 0 ? sc_.hot[static_cast<std::size_t>(c.hot_idx)].residual
                       : 0.0;
    return fluid_.fct_ns(c.bytes, c.n_links, loss, fr) / 1000.0;
  }

  BlockOut generate(std::int64_t lo, std::int64_t hi) const;
  harness::FctConfig replay_config(std::int32_t hot_idx, std::int32_t n_links,
                                   std::vector<std::int64_t> bytes) const;

  const EngineConfig& cfg_;
  const Scenario& sc_;
  std::uint64_t seed_;
  std::int32_t slice_;
  PathResolver resolver_;
  workload::FlowSizeDistribution dist_;
  FluidModel fluid_;
  double t0_;
  double t1_;
};

/// Generates every flow of hosts [lo, hi). Each host draws from its own
/// per-(seed, slice, host) stream, so a block's output does not depend on
/// which other blocks exist or which thread runs it.
BlockOut Cell::generate(std::int64_t lo, std::int64_t hi) const {
  BlockOut out;
  const std::int64_t n_hosts = resolver_.n_hosts();
  const double mean_bytes = dist_.mean_bytes();
  for (std::int64_t host = lo; host < hi; ++host) {
    Rng hr = workload::stream_rng(seed_, static_cast<std::uint64_t>(slice_),
                                  static_cast<std::uint64_t>(host));
    workload::ArrivalProcess arrivals(cfg_.arrivals, mean_bytes, hr.split());
    for (double t = t0_ + arrivals.next_gap_sec(); t < t1_;
         t += arrivals.next_gap_sec()) {
      ++out.generated;
      const std::int64_t bytes = dist_.sample(hr);
      std::int64_t dst = static_cast<std::int64_t>(
          hr.uniform_int(static_cast<std::uint64_t>(n_hosts - 1)));
      if (dst >= host) ++dst;
      const std::uint64_t hash = hr.next_u64();
      const std::uint64_t aux = hr.next_u64();

      const PathInfo path = resolver_.resolve(host, dst, hash);
      if (!path.ok) {
        ++out.stranded;
        continue;
      }

      // Every link of a resolved path is up, so a corrupting one is hot.
      std::int32_t hot_idx = -1;
      for (std::int32_t i = 0; i < path.n_links; ++i) {
        if (sc_.topo.link_state(path.links[i]) & fabric::kLinkCorrupting) {
          hot_idx = sc_.hot_of(path.links[i]);
          break;
        }
      }
      if (hot_idx >= 0) ++out.victims;

      // Victims are packet-level, background only in all-packet mode; either
      // way only within the cell budget, which is resolved after generation.
      const Candidate c{bytes, aux, hot_idx, path.n_links};
      if (hot_idx >= 0 || cfg_.fidelity == Fidelity::kAllPacket) {
        out.cands.push_back(c);
      } else {
        out.bg_us.add(fluid_us(c));
        ++out.fluid_flows;
      }
    }
  }
  return out;
}

/// The packet-level replay of one group: its flow sizes back-to-back over
/// the testbed path standing in for the scenario link; hops beyond the
/// first contribute fixed latency.
harness::FctConfig Cell::replay_config(std::int32_t hot_idx,
                                       std::int32_t n_links,
                                       std::vector<std::int64_t> bytes) const {
  harness::FctConfig fc;
  fc.transport = cfg_.transport;
  fc.rate = cfg_.link_rate;
  fc.path.lg.target_loss_rate = cfg_.lg_target_loss;
  fc.path.link.prop_delay +=
      kExtraHopLatency * std::max<std::int32_t>(0, n_links - 1);
  if (hot_idx >= 0) {
    const HotLink& h = sc_.hot[static_cast<std::size_t>(hot_idx)];
    fc.protection =
        h.lg ? harness::Protection::kLg : harness::Protection::kLossOnly;
    fc.loss_rate = h.loss_rate;
  } else {
    fc.protection = harness::Protection::kNoLoss;
    fc.loss_rate = 0.0;
  }
  fc.trial_bytes = std::move(bytes);
  // Domain-separated from the generation streams via the tag in `cell`.
  fc.seed = workload::mix_stream(
      seed_, 0x5eedf10c00000000ULL | static_cast<std::uint64_t>(slice_),
      (static_cast<std::uint64_t>(hot_idx + 1) << 8) |
          static_cast<std::uint64_t>(n_links));
  return fc;
}

/// The cell pipeline (DESIGN.md §15), one path for every shard count:
///   1. generate cfg.shards contiguous host blocks in parallel;
///   2. concatenate them in block order — (host, per-host index) order —
///      and resolve the two packet budgets in that order;
///   3. replay the packet groups in parallel.
/// Packetize decisions never feed back into the generators' RNG streams,
/// which is what makes deferring the budgets to step 2 legal. Samples merge
/// order-insensitively (PercentileTracker ranks on query), and each group's
/// trial order and seed are fixed by step 2, so the result is byte-identical
/// for any shard count.
CellOut Cell::run() const {
  CellOut out;
  const std::int64_t n_hosts = resolver_.n_hosts();
  const auto workers = static_cast<unsigned>(cfg_.shards);
  const std::int64_t k = std::min<std::int64_t>(cfg_.shards, n_hosts);

  std::vector<std::int64_t> block_ends;
  for (std::int64_t b = 1; b <= k; ++b) block_ends.push_back(b * n_hosts / k);
  std::vector<BlockOut> blocks = harness::parallel_map(
      block_ends,
      [&](std::int64_t hi, std::size_t b) {
        return generate(b == 0 ? 0 : block_ends[b - 1], hi);
      },
      workers);

  // Groups keyed {background?, hot link, hop count}: victim groups first.
  std::map<std::tuple<bool, std::int32_t, std::int32_t>,
           std::vector<std::int64_t>>
      groups;
  std::int64_t victim_budget = cfg_.max_packet_flows_per_cell;
  std::int64_t bg_budget = cfg_.max_packet_flows_per_cell;
  for (BlockOut& b : blocks) {
    out.generated += b.generated;
    out.stranded += b.stranded;
    out.victims += b.victims;
    out.fluid_flows += b.fluid_flows;
    out.bg_us.merge(b.bg_us);
    for (const Candidate& c : b.cands) {
      const bool victim = c.hot_idx >= 0;
      std::int64_t& budget = victim ? victim_budget : bg_budget;
      if (budget > 0) {
        --budget;
        groups[{!victim, c.hot_idx, c.n_links}].push_back(c.bytes);
      } else {
        if (victim) ++out.victim_fluid_fallback;
        (victim ? out.victim_us : out.bg_us).add(fluid_us(c));
        ++out.fluid_flows;
      }
    }
  }

  std::vector<harness::FctConfig> replays;
  replays.reserve(groups.size());
  std::size_t victim_groups = 0;
  for (auto& [key, bytes] : groups) {
    if (!std::get<0>(key)) ++victim_groups;
    out.packet_flows += static_cast<std::int64_t>(bytes.size());
    replays.push_back(replay_config(std::get<1>(key), std::get<2>(key),
                                    std::move(bytes)));
  }

  // Worker threads start with no trace sink: when the cell is traced and the
  // replay fans out, each group records into its own sink, absorbed into the
  // cell's in group order so the trace does not depend on scheduling.
  obs::TraceSink* cell_sink = obs::current_sink();
  std::deque<obs::TraceSink> group_sinks;
  if (cell_sink != nullptr && workers > 1) {
    for (std::size_t i = 0; i < replays.size(); ++i)
      group_sinks.emplace_back("replay group " + std::to_string(i));
  }
  const std::vector<harness::FctResult> results = harness::parallel_map(
      replays,
      [&](const harness::FctConfig& fc, std::size_t i) {
        if (group_sinks.empty()) return harness::run_fct(fc);
        obs::SinkScope scope(&group_sinks[i]);
        return harness::run_fct(fc);
      },
      workers);
  for (std::size_t i = 0; i < results.size(); ++i)
    (i < victim_groups ? out.victim_us : out.bg_us).merge(results[i].fct_us);
  for (const obs::TraceSink& s : group_sinks) cell_sink->absorb(s);

  if (cell_sink != nullptr) {
    obs::MetricsRegistry& m = cell_sink->metrics();
    m.counter("traffic.flows_generated") += out.generated;
    m.counter("traffic.flows_completed") += out.generated - out.stranded;
    m.counter("traffic.flows_stranded") += out.stranded;
    m.counter("traffic.flows_victim") += out.victims;
    m.counter("traffic.flows_packet") += out.packet_flows;
    m.counter("traffic.flows_fluid") += out.fluid_flows;
    m.counter("traffic.victim_fluid_fallback") += out.victim_fluid_fallback;
  }
  return out;
}

/// Rejects configurations the engine cannot run (the TopologyConfig
/// pattern: fail loudly instead of running something else).
void validate(const EngineConfig& cfg) {
  const auto fail = [](const char* what) {
    throw std::invalid_argument(std::string("EngineConfig: ") + what);
  };
  if (cfg.slices < 1) fail("slices must be >= 1");
  if (cfg.seeds.empty()) fail("seeds must not be empty");
  if (!(cfg.duration_sec > 0.0)) fail("duration_sec must be > 0");
  if (cfg.hosts_per_tor < 1) fail("hosts_per_tor must be >= 1");
  // In double: the topology's own dimension checks have not run yet.
  if (static_cast<double>(cfg.topo.pods) * cfg.topo.tors_per_pod *
          cfg.hosts_per_tor < 2.0)
    fail("the fabric needs at least 2 hosts");
  if (cfg.shards < 1) fail("shards must be >= 1");
  if (cfg.max_packet_flows_per_cell < 0)
    fail("max_packet_flows_per_cell must be >= 0");
}

}  // namespace

void TrafficResult::export_metrics(obs::MetricsRegistry& m) const {
  m.counter("traffic.flows_generated") += generated;
  m.counter("traffic.flows_completed") += completed;
  m.counter("traffic.flows_stranded") += stranded;
  m.counter("traffic.flows_victim") += victims;
  m.counter("traffic.flows_packet") += packet_flows;
  m.counter("traffic.flows_fluid") += fluid_flows;
  m.counter("traffic.victim_fluid_fallback") += victim_fluid_fallback;
  m.counter("traffic.hot_links") += static_cast<std::int64_t>(hot_links.size());
  m.counter("traffic.disabled_links") += disabled_links;
  for (double v : fct_victim_us.sorted_samples())
    m.distribution("traffic.fct_victim_us").add(v);
  for (double v : fct_bg_us.sorted_samples())
    m.distribution("traffic.fct_bg_us").add(v);
}

TrafficResult run_traffic(const EngineConfig& cfg, unsigned jobs) {
  validate(cfg);
  const Scenario sc = build_scenario(cfg);

  struct CellJob {
    std::uint64_t seed;
    std::int32_t slice;
  };
  std::vector<CellJob> grid;
  for (const std::uint64_t seed : cfg.seeds) {
    for (std::int32_t sl = 0; sl < cfg.slices; ++sl) grid.push_back({seed, sl});
  }
  const std::vector<CellOut> cells = harness::run_grid(
      grid,
      [&](const CellJob& j) { return Cell(cfg, sc, j.seed, j.slice).run(); },
      jobs == 0 ? harness::bench_jobs() : jobs);

  TrafficResult res;
  res.hot_links = sc.hot;
  res.disabled_links = sc.disabled;
  // Reserved up front: growing by doubling would leave the peak RSS to
  // whether the flow count just crossed a capacity step.
  std::int64_t n_victim = 0, n_bg = 0;
  for (const CellOut& c : cells) {
    n_victim += c.victim_us.count();
    n_bg += c.bg_us.count();
  }
  res.fct_victim_us.reserve(static_cast<std::size_t>(n_victim));
  res.fct_bg_us.reserve(static_cast<std::size_t>(n_bg));
  for (const CellOut& c : cells) {
    res.generated += c.generated;
    res.stranded += c.stranded;
    res.victims += c.victims;
    res.packet_flows += c.packet_flows;
    res.fluid_flows += c.fluid_flows;
    res.victim_fluid_fallback += c.victim_fluid_fallback;
    res.fct_victim_us.merge(c.victim_us);
    res.fct_bg_us.merge(c.bg_us);
  }
  res.completed = res.generated - res.stranded;
  res.sim_hours =
      cfg.duration_sec / 3600.0 * static_cast<double>(cfg.seeds.size());
  return res;
}

}  // namespace lgsim::traffic
