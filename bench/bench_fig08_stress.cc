// Figure 8: effective loss rate and effective link speed for LinkGuardian
// (LG) and LinkGuardianNB (LG_NB) on 25G/100G links at three production loss
// rates, plus the §4.1 "timeouts in practice" counter.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "harness/parallel.h"
#include "harness/stress.h"
#include "lg/config.h"
#include "util/table.h"

int main(int argc, char** argv) {
  lgsim::bench::TraceSession trace_session(argc, argv);
  using namespace lgsim;
  using harness::StressConfig;
  using harness::StressResult;

  bench::banner("Figure 8", "Effective loss rate & effective link speed (stress test)");

  TablePrinter t({"Link", "Loss rate", "Mode", "N copies", "Measured wire loss",
                  "Effective loss (measured)", "Effective loss (analytic)",
                  "Effective speed (%)", "Timeouts"});

  std::int64_t total_loss_events = 0;
  std::int64_t total_timeouts = 0;

  // Build the full replication grid first, then fan it out over
  // LGSIM_BENCH_JOBS workers; results come back in grid order, so the rows
  // are byte-identical to the old serial loop for any job count.
  std::vector<StressConfig> grid;
  for (BitRate rate : {gbps(25), gbps(100)}) {
    for (double loss : {1e-5, 1e-4, 1e-3}) {
      for (bool nb : {false, true}) {
        StressConfig c;
        c.rate = rate;
        c.loss_rate = loss;
        c.lg.preserve_order = !nb;
        // At least ~100 expected loss events per configuration.
        c.packets = bench::scaled(
            std::max<std::int64_t>(300'000, static_cast<std::int64_t>(100.0 / loss)),
            50'000);
        if (c.packets > 10'000'000) c.packets = 10'000'000;
        c.seed = 17 + static_cast<std::uint64_t>(loss * 1e6) + (nb ? 1 : 0) +
                 (rate == gbps(100) ? 100 : 25);
        grid.push_back(c);
      }
    }
  }
  const std::vector<StressResult> results =
      harness::run_grid(grid, harness::run_stress);

  for (std::size_t i = 0; i < grid.size(); ++i) {
    const StressConfig& c = grid[i];
    const StressResult& r = results[i];
    const bool nb = !c.lg.preserve_order;
    total_loss_events += r.data_frames_lost;
    total_timeouts += r.timeouts;
    t.add_row({c.rate == gbps(25) ? "25G" : "100G",
               TablePrinter::sci(c.loss_rate, 0), nb ? "LG_NB" : "LG",
               std::to_string(lg::retx_copies(c.loss_rate, c.lg.target_loss_rate)),
               TablePrinter::sci(r.actual_loss_rate),
               r.effectively_lost == 0
                   ? "0 observed"
                   : TablePrinter::sci(r.effective_loss_rate),
               TablePrinter::sci(r.analytic_loss_rate),
               TablePrinter::fmt(100.0 * r.effective_speed_frac, 2),
               std::to_string(r.timeouts)});
  }
  t.print();

  std::printf(
      "\nTimeouts in practice (sec 4.1): %lld ackNoTimeouts across %lld loss "
      "events (%.4f%%; paper: 476 of ~31M = 0.0016%%).\n",
      static_cast<long long>(total_timeouts),
      static_cast<long long>(total_loss_events),
      total_loss_events > 0
          ? 100.0 * static_cast<double>(total_timeouts) /
                static_cast<double>(total_loss_events)
          : 0.0);
  std::printf(
      "Effective loss rates below ~1/packets cannot be observed directly in "
      "one run; the analytic column is actual^(N+1) per Eq. 1.\n");
  return 0;
}
