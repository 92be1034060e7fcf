// Table 3 (§4.7): TCP CUBIC goodput (Gb/s) on a 10G link vs loss rate, for
// no protection, Wharf (link-local FEC, best published parameters per loss
// rate), LinkGuardian and LinkGuardianNB.
//
// The per-cell measurement is bench::run_goodput (bench_goodput.h), one
// harness::LongFlow per cell, shared with bench_baselines; schemes enter
// through the net::ProtectionScheme abstraction. Cells fan out over the
// replication runner and print in grid order, so the table is
// byte-identical for any LGSIM_BENCH_JOBS.
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "bench_goodput.h"
#include "util/table.h"

int main(int argc, char** argv) {
  lgsim::bench::TraceSession trace_session(argc, argv);
  using namespace lgsim;
  bench::banner("Table 3", "TCP CUBIC goodput (Gb/s) on a 10G link");

  const SimTime duration = msec(bench::scaled(400, 60));
  const double losses[] = {0.0, 1e-5, 1e-4, 1e-3, 1e-2};

  const bench::Scheme schemes[] = {bench::Scheme::kNone, bench::Scheme::kWharf,
                                   bench::Scheme::kLg, bench::Scheme::kLgNb};

  std::vector<bench::GoodputCell> grid;
  for (bench::Scheme s : schemes) {
    for (double l : losses) {
      if (s == bench::Scheme::kWharf && l == 0.0) continue;  // n/a
      bench::GoodputCell cell;
      cell.scheme = s;
      cell.loss.rate = l;
      cell.duration = duration;
      grid.push_back(cell);
    }
  }
  const std::vector<double> goodputs =
      harness::run_grid(grid, bench::run_goodput);

  TablePrinter t({"Loss rate ->", "0", "1e-5", "1e-4", "1e-3", "1e-2"});
  std::size_t next = 0;
  for (bench::Scheme s : schemes) {
    std::vector<std::string> cells{bench::scheme_name(s)};
    for (double l : losses) {
      if (s == bench::Scheme::kWharf && l == 0.0) {
        cells.push_back("n/a");
        continue;
      }
      cells.push_back(TablePrinter::fmt(goodputs[next++], 2));
    }
    t.add_row(cells);
  }
  t.print();
  std::printf(
      "\nPaper (Table 3): None 9.49/9.48/8.01/3.48/1.46; Wharf n/a/9.13/9.13/"
      "9.13/7.91; LG 9.47.../9.2; LG_NB the same. Shape: Wharf pays its "
      "redundancy at every loss rate, LinkGuardian only pays when losses "
      "happen.\n");
  return 0;
}
