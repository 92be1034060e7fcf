// Telemetry detection sweep: the oracle-free closed loop, quantified.
//
// Every cell runs the fault lifecycle with feed=kEstimator — corruptd polls
// a SeqWindowEstimator fed by sequenced probe frames instead of the port's
// ground-truth counters — across probe period x the full scenario catalogue
// x seeds. Reported per cell: detection latency from corruption onset,
// probe volume, and the final windowed estimate. The per-period aggregate
// lines report the three numbers that decide whether probe telemetry can
// retire the oracle:
//
//   missed  — cells where protection never engaged (estimator blind spot)
//   false   — cells where corruptd notified *before* the scripted onset
//             (phantom loss; the estimator's sequence-gap accounting
//             exists to keep this at zero)
//   det_lat — detection latency distribution (mean/max over detected cells)
//
// The SUMMARY line asserts missed == 0 and false == 0 at the default probe
// period (10 us) and the exit code enforces it. `--smoke` runs the reduced
// grid (default period, seed 1) for ctest.
//
// Output is byte-identical for any LGSIM_BENCH_JOBS (harness::run_grid merge
// order + per-cell determinism); diff two runs to verify.
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "bench_common.h"
#include "fault/lifecycle.h"
#include "fault/scenarios.h"
#include "util/table.h"

using namespace lgsim;

namespace {

constexpr SimTime kDefaultPeriod = usec(10);

std::string ms_or_dash(SimTime t) {
  return t < 0 ? "-" : TablePrinter::fmt(to_msec(t), 2);
}

}  // namespace

int main(int argc, char** argv) {
  bench::TraceSession trace(argc, argv);
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i] != nullptr ? argv[i] : "";
    if (a == "--smoke") smoke = true;
  }
  bench::banner("telemetry",
                "probe-based loss estimator: oracle-free detection sweep");

  const std::vector<SimTime> periods =
      smoke ? std::vector<SimTime>{kDefaultPeriod}
            : std::vector<SimTime>{usec(5), usec(10), usec(20)};
  const std::vector<std::uint64_t> seeds =
      smoke ? std::vector<std::uint64_t>{1}
            : std::vector<std::uint64_t>{1, 2, 3};

  std::vector<fault::LifecycleConfig> grid;
  for (SimTime period : periods) {
    for (const std::string& name : fault::scenario_names()) {
      for (std::uint64_t seed : seeds) {
        fault::LifecycleConfig cfg;
        cfg.scenario = name;
        cfg.seed = seed;
        cfg.feed = fault::CounterFeed::kEstimator;
        cfg.probe_period = period;
        grid.push_back(cfg);
      }
    }
  }

  const std::vector<fault::LifecycleResult> rows =
      harness::run_grid(grid, fault::run_lifecycle);

  TablePrinter table({"period_us", "scenario", "seed", "onset_ms", "detect_ms",
                      "engage_ms", "det_lat_us", "probes", "probes_rx",
                      "supp", "est_ppm", "lost_pre", "lost_post", "copies"});
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    table.add_row({
        TablePrinter::fmt(to_usec(grid[i].probe_period), 0),
        r.scenario,
        std::to_string(r.seed),
        ms_or_dash(r.onset_at),
        ms_or_dash(r.detected_at),
        ms_or_dash(r.engaged_at),
        r.detection_latency < 0
            ? "-"
            : TablePrinter::fmt(to_usec(r.detection_latency), 1),
        std::to_string(r.probes_sent),
        std::to_string(r.probes_rx),
        std::to_string(r.probes_suppressed),
        r.estimate_known ? TablePrinter::fmt(r.estimate_rate * 1e6, 1) : "-",
        std::to_string(r.lost_before_protection),
        std::to_string(r.lost_after_protection),
        std::to_string(r.retx_copies),
    });
  }
  table.print();

  // Per-period aggregates, and the acceptance gate at the default period.
  std::printf("\n");
  bool default_pass = false;
  for (SimTime period : periods) {
    std::int64_t cells = 0, missed = 0, false_act = 0, detected = 0;
    SimTime lat_sum = 0, lat_max = -1;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      if (grid[i].probe_period != period) continue;
      const auto& r = rows[i];
      ++cells;
      if (r.engaged_at < 0) ++missed;
      if (r.detected_at >= 0 && r.detected_at < r.onset_at) ++false_act;
      if (r.detection_latency >= 0) {
        ++detected;
        lat_sum += r.detection_latency;
        if (r.detection_latency > lat_max) lat_max = r.detection_latency;
      }
    }
    const double mean_us =
        detected > 0 ? to_usec(lat_sum) / static_cast<double>(detected) : -1.0;
    const bool pass = missed == 0 && false_act == 0;
    if (period == kDefaultPeriod) default_pass = pass;
    std::printf(
        "SUMMARY telemetry period=%sus: cells=%lld missed=%lld false=%lld "
        "det_lat_us mean=%s max=%s%s\n",
        TablePrinter::fmt(to_usec(period), 0).c_str(),
        static_cast<long long>(cells), static_cast<long long>(missed),
        static_cast<long long>(false_act),
        mean_us < 0 ? "-" : TablePrinter::fmt(mean_us, 1).c_str(),
        lat_max < 0 ? "-" : TablePrinter::fmt(to_usec(lat_max), 1).c_str(),
        period == kDefaultPeriod
            ? (pass ? " (PASS: oracle-free detection)" : " (FAIL)")
            : "");
  }
  return default_pass ? 0 : 1;
}
