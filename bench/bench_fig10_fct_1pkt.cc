// Figure 10: top-1% FCT for 143 B (single-packet) flows on a 100G link with
// ~1e-3 corruption loss, DCTCP and RDMA WRITE, under four conditions.
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
  bench::banner("Figure 10", "Top 1% FCTs for 143B flows on a 100G link");

  // Whole grid (2 transports x 4 conditions) fanned out over
  // LGSIM_BENCH_JOBS workers; row order and values match the serial loop.
  bench::TrafficConfig tc;
  tc.transports = {Transport::kDctcp, Transport::kRdmaWrite};
  tc.flow_bytes = 143;
  tc.trials = bench::scaled(100'000, 2'000);
  tc.seed_base = 1000;
  const std::vector<FctResult> results = run_grid(bench::fct_grid(tc), run_fct);

  std::size_t i = 0;
  for (Transport tr : {Transport::kDctcp, Transport::kRdmaWrite}) {
    TablePrinter t({"Condition", "p50 (us)", "p99 (us)", "p99.9 (us)",
                    "p99.99 (us)", "max (us)", "RTO trials"});
    double p999_loss = 0, p999_noloss = 0;
    for (Protection pr : {Protection::kNoLoss, Protection::kLg,
                          Protection::kLgNb, Protection::kLossOnly}) {
      const FctResult& r = results[i++];
      if (pr == Protection::kNoLoss) p999_noloss = r.p(99.9);
      if (pr == Protection::kLossOnly) p999_loss = r.p(99.9);
      t.add_row({std::string(transport_name(tr)) + " (" + protection_name(pr) + ")",
                 TablePrinter::fmt(r.p(50), 1), TablePrinter::fmt(r.p(99), 1),
                 TablePrinter::fmt(r.p(99.9), 1),
                 TablePrinter::fmt(r.p(99.99), 1),
                 TablePrinter::fmt(r.fct_us.max(), 1),
                 std::to_string(r.trials_with_rto)});
    }
    t.print();
    std::printf(
        "%s: loss inflates the 99.9th percentile FCT by %.0fx over no-loss "
        "(paper: %s); LG and LG_NB restore it.\n\n",
        transport_name(tr),
        p999_noloss > 0 ? p999_loss / p999_noloss : 0.0,
        tr == Transport::kDctcp ? "51x" : "66x");
  }
  return 0;
}
