// Ablation: the recirculation loop (DESIGN.md §4.1, paper §5 "Implementing
// LinkGuardian with Tofino2").
//
// The paper attributes its surprisingly long ~5 us recovery delay to
// recirculation-based buffering on Tofino and argues Tofino2's dataplane
// queue-pause primitives could eliminate it. This sweep varies the
// recirculation loop latency from the measured Tofino value down to a
// Tofino2-style near-zero buffer and reports what recovery delay, buffer
// occupancy and effective link speed that buys at 100G / 1e-3 loss.
#include <cstdio>

#include "bench_common.h"
#include "harness/stress.h"
#include "lg/config.h"
#include "util/table.h"

int main(int argc, char** argv) {
  lgsim::bench::TraceSession trace_session(argc, argv);
  using namespace lgsim;
  using namespace lgsim::harness;
  bench::banner("Ablation", "Recirculation loop latency (Tofino -> Tofino2), 100G @ 1e-3");

  TablePrinter t({"recirc loop (us)", "retx delay p50/max (us)",
                  "RX buffer p50/max (KB)", "TX buffer max (KB)",
                  "effective speed (%)", "pauses"});
  for (SimTime loop : {nsec(4300), nsec(2400), nsec(1200), nsec(400), nsec(50)}) {
    StressConfig c;
    c.rate = gbps(100);
    c.loss_rate = 1e-3;
    c.packets = bench::scaled(400'000, 50'000);
    c.seed = 41;
    c.lg = lg::tuned_for_rate(c.lg, c.rate);
    c.lg.recirc_loop = loop;
    c.tune_for_rate = false;
    const StressResult r = run_stress(c);
    t.add_row({TablePrinter::fmt(to_usec(loop), 2),
               TablePrinter::fmt(r.retx_delay_us.percentile(50), 2) + " / " +
                   TablePrinter::fmt(r.retx_delay_us.max(), 2),
               TablePrinter::fmt(r.rx_buffer_bytes.percentile(50) / 1000.0, 1) +
                   " / " + TablePrinter::fmt(r.rx_buffer_bytes.max() / 1000.0, 1),
               TablePrinter::fmt(r.tx_buffer_bytes.max() / 1000.0, 1),
               TablePrinter::fmt(100.0 * r.effective_speed_frac, 2),
               std::to_string(r.pauses)});
  }
  t.print();
  std::printf(
      "\nShrinking the loop shortens recovery and shrinks every buffer; at "
      "near-zero loop (Tofino2-style queue pausing) the reordering buffer "
      "barely builds and backpressure never engages — the paper's thesis "
      "that Tofino2 removes LinkGuardian's main overhead.\n");
  return 0;
}
