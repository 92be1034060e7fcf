// Fabric-scale hybrid-fidelity traffic engine (ROADMAP item 2).
//
// Generates flows from the workload::Workload size distributions and the
// workload::ArrivalSpec per-host arrival processes, places them on a
// fabric::FabricTopology under a corruption *scenario* (CorrOpt-only vs
// CorrOpt+LinkGuardian handling of a batch of corrupting links), and
// simulates them at one of two fidelities:
//
//   kHybrid (default): flows whose ECMP path crosses a corrupting link that
//     CorrOpt could not disable ("victim flows") run packet-by-packet through
//     the real transport + LinkGuardian stack (harness::run_fct with the
//     scenario's loss rate and protection); everything else ("background")
//     goes through the analytic traffic::FluidModel. This is the packet/flow
//     split hybrid fabric simulators use to reach datacenter scale.
//   kAllPacket: background flows run packet-level too (grouped by hop
//     count, loss-free paths). Small-scale reference mode; victim-flow
//     results are bit-identical to kHybrid by construction — the
//     golden/differential anchor (tests/traffic_test.cc, bench_traffic
//     --smoke).
//
// Determinism contract (the harness::run_grid one): the run is split into
// {seed x time-slice} cells; each cell draws every flow attribute from
// per-(seed, slice, host) RNG streams (workload::stream_rng) and victim
// packet simulations from per-(seed, slice, link) seeds, so the merged
// TrafficResult is byte-identical for any LGSIM_BENCH_JOBS. Flow *generation*
// draws an identical RNG sequence at every fidelity, which is what makes the
// victim sets — and hence the differential test — line up across modes.
//
// Inside a cell (DESIGN.md §15), EngineConfig::shards contiguous host blocks
// generate in parallel, the cell's packet budgets are resolved in (host,
// per-host index) order, and the packet groups replay in parallel — so the
// result is also byte-identical for any shard count. A run uses up to
// jobs x shards threads; callers choose both.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fabric/topology.h"
#include "harness/fct.h"
#include "obs/metrics.h"
#include "traffic/fluid.h"
#include "util/stats.h"
#include "util/units.h"
#include "workload/arrivals.h"
#include "workload/flow_sizes.h"

namespace lgsim::traffic {

/// How corrupting links that CorrOpt cannot disable are handled — the two
/// arms of the paper's §4.8 deployment comparison.
enum class Scheme : std::uint8_t { kCorrOptOnly, kCorrOptLg };
enum class Fidelity : std::uint8_t { kHybrid, kAllPacket };

const char* scheme_name(Scheme s);

struct EngineConfig {
  fabric::TopologyConfig topo;
  std::int32_t hosts_per_tor = 4;
  workload::Workload workload = workload::Workload::kGoogleAllRpc;
  workload::ArrivalSpec arrivals;
  harness::Transport transport = harness::Transport::kDctcp;
  /// Fabric link speed; also the victim testbed-path rate.
  BitRate link_rate = gbps(100);
  /// Simulated horizon per seed, partitioned into `slices` cells.
  double duration_sec = 0.001;
  std::int32_t slices = 4;
  std::vector<std::uint64_t> seeds = {1};

  Scheme scheme = Scheme::kCorrOptLg;
  Fidelity fidelity = Fidelity::kHybrid;

  // --- corruption scenario --------------------------------------------
  /// Number of simultaneously corrupting links (a snapshot of the §4.8
  /// deployment sim's steady state, not a year-long trace).
  std::int32_t corrupting_links = 8;
  /// CorrOpt fast-checker capacity constraint (least paths per ToR floor).
  double capacity_constraint = 0.75;
  double lg_target_loss = 1e-8;
  std::uint64_t scenario_seed = 99;
  /// > 0 forces every corrupting link to this loss rate instead of sampling
  /// the Table 1 buckets (smoke tests want victims that visibly hurt).
  double forced_loss_rate = 0.0;

  // --- fidelity knobs --------------------------------------------------
  /// Per-cell budget of packet-level victim flows; overflow falls back to
  /// the fluid model with the link's residual loss (counted separately).
  /// The same budget independently caps kAllPacket background flows.
  std::int64_t max_packet_flows_per_cell = 4096;
  FluidConfig fluid;

  // --- intra-cell parallelism (DESIGN.md §15) --------------------------
  /// Host blocks per cell (clamped to the host count), and the worker count
  /// for that cell's generation and replay. Results are byte-identical for
  /// any value — the shard-identity tests pin it — so this is a wall-clock
  /// knob only.
  std::int32_t shards = 1;
};

/// A corrupting link CorrOpt had to keep active (the victim-making links).
struct HotLink {
  std::int64_t id = 0;
  double loss_rate = 0.0;
  /// Loss the transport actually sees: raw under CorrOpt-only, the Eq. 1
  /// residual min(p, p^(n+1)) under CorrOpt+LG.
  double residual = 0.0;
  bool lg = false;
};

struct TrafficResult {
  // Flow accounting. generated == completed + stranded;
  // completed == packet_flows + fluid_flows.
  std::int64_t generated = 0;
  std::int64_t completed = 0;
  std::int64_t stranded = 0;
  std::int64_t victims = 0;
  std::int64_t packet_flows = 0;
  std::int64_t fluid_flows = 0;
  /// Victims simulated fluid-side because the per-cell packet budget filled.
  std::int64_t victim_fluid_fallback = 0;

  // Scenario summary.
  std::vector<HotLink> hot_links;
  std::int64_t disabled_links = 0;

  lgsim::PercentileTracker fct_victim_us;
  lgsim::PercentileTracker fct_bg_us;

  double sim_hours = 0.0;
  double flows_per_sim_hour() const {
    return sim_hours > 0 ? static_cast<double>(generated) / sim_hours : 0.0;
  }
  double p_victim(double p) const { return fct_victim_us.percentile(p); }
  double p_bg(double p) const { return fct_bg_us.percentile(p); }

  /// Writes the traffic.* counters/distributions (see DESIGN.md §8 table).
  void export_metrics(obs::MetricsRegistry& m) const;
};

/// Runs the full {seeds x slices} cell grid. jobs == 0 uses
/// harness::bench_jobs() (LGSIM_BENCH_JOBS); any value merges to the same
/// bytes. Throws std::invalid_argument on a config it cannot run (no slices
/// or seeds, a non-positive duration, fewer than 2 hosts, shards < 1, a
/// negative packet budget) or an invalid topology.
TrafficResult run_traffic(const EngineConfig& cfg, unsigned jobs = 0);

}  // namespace lgsim::traffic
