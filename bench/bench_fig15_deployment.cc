// Figure 15 (§4.8): snapshot of the large-scale deployment simulation on the
// Facebook-fabric topology (~100K optical links): total penalty, least paths
// per ToR and least capacity per pod for CorrOpt vs LinkGuardian+CorrOpt at
// 50% and 75% capacity constraints.
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "corropt/corropt.h"
#include "harness/parallel.h"
#include "util/table.h"

int main(int argc, char** argv) {
  lgsim::bench::TraceSession trace_session(argc, argv);
  using namespace lgsim;
  using namespace lgsim::corropt;
  bench::banner("Figure 15", "Deployment snapshot, FB fabric (~100K links)");

  // Paper scale: 260 pods ~ 100K links over the full 52-week horizon — the
  // incremental capacity engine (DESIGN.md §11) makes the year-long run
  // cheap enough to be the default.
  const double weeks = bench::scale() >= 1.0 ? 52.0 : 2.0;
  const std::int32_t pods =
      static_cast<std::int32_t>(bench::scaled(260, 16));

  // The four year-scale deployment runs (2 constraints x 2 strategies) are
  // the wall-clock hot spot; fan them out over LGSIM_BENCH_JOBS workers.
  std::vector<DeploymentConfig> grid;
  for (double constraint : {0.50, 0.75}) {
    for (bool lg : {false, true}) {
      DeploymentConfig c;
      c.topo = {.pods = pods, .tors_per_pod = 48, .fabrics_per_pod = 4,
                .spines_per_plane = 48};
      c.duration_hours = 24.0 * 7.0 * weeks;
      c.mttf_hours = 10'000;
      c.capacity_constraint = constraint;
      c.use_linkguardian = lg;
      c.sample_period_hours = 1.0;
      c.seed = 7;  // same trace for both strategies
      grid.push_back(c);
    }
  }
  const std::vector<DeploymentResult> results =
      harness::run_grid(grid, run_deployment);

  std::size_t i = 0;
  for (double constraint : {0.50, 0.75}) {
    std::printf("\n--- Capacity constraint: %.0f%% ---\n", 100 * constraint);
    TablePrinter t({"Strategy", "mean total penalty", "max total penalty",
                    "min least-paths/ToR (%)", "min least-cap/pod (%)",
                    "kept active", "disabled (fast+opt)", "max LG/switch"});
    for (bool lg : {false, true}) {
      const DeploymentResult& r = results[i++];

      double mean_penalty = 0, max_penalty = 0, min_paths = 1, min_cap = 1;
      for (const auto& s : r.samples) {
        mean_penalty += s.total_penalty;
        max_penalty = std::max(max_penalty, s.total_penalty);
        min_paths = std::min(min_paths, s.least_paths_frac);
        min_cap = std::min(min_cap, s.least_capacity_frac);
      }
      mean_penalty /= static_cast<double>(r.samples.size());
      t.add_row({lg ? "LinkGuardian + CorrOpt" : "CorrOpt",
                 TablePrinter::sci(mean_penalty),
                 TablePrinter::sci(max_penalty),
                 TablePrinter::fmt(100 * min_paths, 2),
                 TablePrinter::fmt(100 * min_cap, 2),
                 std::to_string(r.kept_active),
                 std::to_string(r.disabled_immediately + r.disabled_by_optimizer),
                 std::to_string(r.max_lg_per_switch)});
    }
    t.print();
  }
  std::printf(
      "\nPaper: when the capacity constraint binds, vanilla CorrOpt leaves "
      "corrupting links active (total penalty ~1e-2..1e0); LG+CorrOpt drops "
      "the penalty by ~4-6 orders of magnitude at a <0.25%% capacity cost, "
      "with at most 2-4 LG-enabled links per switch.\n");
  return 0;
}
