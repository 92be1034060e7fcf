// Figure 16 (§4.8): CDFs over a year-long simulation of (a) the gain in
// total penalty and (b) the decrease in least capacity per pod, comparing
// LinkGuardian+CorrOpt against vanilla CorrOpt on the same corruption trace.
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "corropt/corropt.h"
#include "harness/parallel.h"
#include "util/stats.h"
#include "util/table.h"

int main(int argc, char** argv) {
  lgsim::bench::TraceSession trace_session(argc, argv);
  using namespace lgsim;
  using namespace lgsim::corropt;
  bench::banner("Figure 16", "1-year deployment CDFs: penalty gain & capacity cost");

  const std::int32_t pods = static_cast<std::int32_t>(bench::scaled(260, 16));
  const double months = bench::scale() >= 1.0 ? 12.0 : 3.0;

  // All four year-long runs (2 constraints x {vanilla, LG}) fanned out over
  // LGSIM_BENCH_JOBS workers; the CDF pairing below consumes them in grid
  // order, so output is byte-identical to the old serial calls.
  std::vector<DeploymentConfig> grid;
  for (double constraint : {0.50, 0.75}) {
    for (bool lg : {false, true}) {
      DeploymentConfig c;
      c.topo = {.pods = pods, .tors_per_pod = 48, .fabrics_per_pod = 4,
                .spines_per_plane = 48};
      c.duration_hours = 24.0 * 30.4 * months;
      c.mttf_hours = 10'000;
      c.capacity_constraint = constraint;
      c.sample_period_hours = 2.0;
      c.seed = 11;
      c.use_linkguardian = lg;
      grid.push_back(c);
    }
  }
  const std::vector<DeploymentResult> results =
      harness::run_grid(grid, run_deployment);

  std::size_t ri = 0;
  for (double constraint : {0.50, 0.75}) {
    const DeploymentResult& vanilla = results[ri++];
    const DeploymentResult& with_lg = results[ri++];

    const std::size_t n = std::min(vanilla.samples.size(), with_lg.samples.size());
    PercentileTracker gain;         // penalty_vanilla / penalty_lg
    PercentileTracker cap_decrease; // (cap_vanilla - cap_lg), normalized %
    for (std::size_t i = 0; i < n; ++i) {
      const double pv = vanilla.samples[i].total_penalty;
      const double pl = with_lg.samples[i].total_penalty;
      if (pl > 0) {
        gain.add(pv / pl);
      } else if (pv > 0) {
        gain.add(1e9);  // LG wiped the penalty entirely
      } else {
        gain.add(1.0);  // no corrupting links at all
      }
      cap_decrease.add(100.0 * (vanilla.samples[i].least_capacity_frac -
                                with_lg.samples[i].least_capacity_frac));
    }

    std::printf("\n--- Capacity constraint: %.0f%% (%zu samples) ---\n",
                100 * constraint, n);
    TablePrinter t({"CDF point", "Gain in total penalty (x)",
                    "Decrease in least cap/pod (%)"});
    for (double p : {10.0, 25.0, 50.0, 75.0, 90.0, 99.0}) {
      t.add_row({TablePrinter::fmt(p, 0) + "%",
                 TablePrinter::sci(gain.percentile(p)),
                 TablePrinter::fmt(cap_decrease.percentile(p), 3)});
    }
    t.print();
    std::printf("Fraction of time with no gain (gain <= 1): %.1f%%\n",
                100.0 * gain.cdf_at(1.0));
  }
  std::printf(
      "\nPaper: at 50%% constraint ~35%% of the time all corrupting links "
      "can be disabled (gain = 1); the rest of the time, and nearly always "
      "at 75%%, the gain is orders of magnitude, while the capacity decrease "
      "stays below ~0.25%%.\n");
  return 0;
}
