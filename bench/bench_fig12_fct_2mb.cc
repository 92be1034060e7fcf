// Figure 12: top-5% FCT for 2 MB DCTCP flows (Alibaba storage maximum) on a
// 100G link with ~1e-3 loss.
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "harness/fct.h"
#include "harness/parallel.h"
#include "util/table.h"

int main(int argc, char** argv) {
  lgsim::bench::TraceSession trace_session(argc, argv);
  using namespace lgsim;
  using namespace lgsim::harness;
  bench::banner("Figure 12", "Top 5% FCTs for 2MB DCTCP flows on a 100G link");

  TablePrinter t({"Condition", "p20 (us)", "p50 (us)", "p95 (us)", "p99 (us)",
                  "p99.9 (us)", "max (us)", "affected trials"});
  // 4 conditions fanned out over LGSIM_BENCH_JOBS workers; rows match the
  // serial loop byte-for-byte.
  bench::TrafficConfig tc;
  tc.flow_bytes = 2'000'000;
  tc.trials = bench::scaled(4'000, 300);
  tc.inter_trial_gap = usec(50);
  tc.seed_base = 3000;
  const std::vector<FctResult> results = run_grid(bench::fct_grid(tc), run_fct);

  std::size_t i = 0;
  for (Protection pr : {Protection::kNoLoss, Protection::kLg, Protection::kLgNb,
                        Protection::kLossOnly}) {
    const FctResult& r = results[i++];
    t.add_row({protection_name(pr), TablePrinter::fmt(r.p(20), 1),
               TablePrinter::fmt(r.p(50), 1), TablePrinter::fmt(r.p(95), 1),
               TablePrinter::fmt(r.p(99), 1), TablePrinter::fmt(r.p(99.9), 1),
               TablePrinter::fmt(r.fct_us.max(), 1),
               std::to_string(r.trials_with_wire_loss)});
  }
  t.print();
  std::printf(
      "\nA 2MB flow spans ~1382 packets, so at 1e-3 ~75%% of trials see at "
      "least one corruption (paper: ~80%%); LG masks them all, LG_NB leaves a "
      "longer tail when cwnd cuts hit flows with many pending bytes.\n");
  return 0;
}
