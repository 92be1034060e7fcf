// Figure 11: top-5% FCT for 24,387 B (17-packet) flows on a 100G link,
// DCTCP / BBR / RDMA WRITE, under four conditions.
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
  bench::banner("Figure 11", "Top 5% FCTs for 24,387B flows (17 packets) on 100G");

  // 3 transports x 4 conditions, fanned out over LGSIM_BENCH_JOBS workers;
  // rows match the serial loop byte-for-byte.
  bench::TrafficConfig tc;
  tc.transports = {Transport::kDctcp, Transport::kBbr, Transport::kRdmaWrite};
  tc.flow_bytes = 24'387;
  tc.trials = bench::scaled(50'000, 2'000);
  tc.seed_base = 2000;
  tc.seed_protection_stride = 7;
  tc.seed_transport_stride = 31;
  const std::vector<FctResult> results = run_grid(bench::fct_grid(tc), run_fct);

  std::size_t i = 0;
  for (Transport tr : {Transport::kDctcp, Transport::kBbr, Transport::kRdmaWrite}) {
    TablePrinter t({"Condition", "p50 (us)", "p95 (us)", "p99 (us)",
                    "p99.9 (us)", "max (us)", "e2e-retx trials", "RTO trials"});
    for (Protection pr : {Protection::kNoLoss, Protection::kLg,
                          Protection::kLgNb, Protection::kLossOnly}) {
      const FctResult& r = results[i++];
      t.add_row({std::string(transport_name(tr)) + " (" + protection_name(pr) + ")",
                 TablePrinter::fmt(r.p(50), 1), TablePrinter::fmt(r.p(95), 1),
                 TablePrinter::fmt(r.p(99), 1), TablePrinter::fmt(r.p(99.9), 1),
                 TablePrinter::fmt(r.fct_us.max(), 1),
                 std::to_string(r.trials_with_e2e_retx),
                 std::to_string(r.trials_with_rto)});
    }
    t.print();
    std::printf("\n");
  }
  std::printf(
      "Expected shape: LG tracks no-loss for all transports. LG_NB tracks LG "
      "for DCTCP/BBR (reordering tolerated) but for RDMA only removes the "
      "RTO tail (go-back-N fires on reordering).\n");
  return 0;
}
