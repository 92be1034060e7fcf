// Fault-lifecycle experiment: the paper's closed loop, end to end, per
// scripted fault scenario (see EXPERIMENTS.md "Fault scenarios").
//
// For every catalogue scenario x seed, one cell runs:
//   scripted fault -> corruptd detection -> pub-sub notification ->
//   live LinkGuardian switchover (Eq. 2 copies) -> AutoFallback mode control.
//
// Reported per cell: detection latency from corruption onset, packets lost
// before vs after protection engaged (per-uid ground truth), and the
// AutoFallback mode trajectory. The "onset" scenario's headline is
// lost(after) == 0: a live ordered-mode switchover masks every corruption
// loss from the moment it engages; the SUMMARY line asserts it.
//
// Output is byte-identical for any LGSIM_BENCH_JOBS (harness::run_grid merge
// order + per-cell determinism); diff two runs to verify.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "fault/lifecycle.h"
#include "fault/scenarios.h"
#include "util/table.h"

using namespace lgsim;

namespace {

std::string mode_path(const fault::LifecycleResult& r) {
  if (r.mode_changes.empty())
    return r.engaged_at >= 0 ? "ordered" : "-";
  std::string s = monitor::lg_mode_name(r.mode_changes.front().from);
  for (const auto& c : r.mode_changes) {
    s += ">";
    s += monitor::lg_mode_name(c.to);
  }
  return s;
}

std::string ms_or_dash(SimTime t) {
  return t < 0 ? "-" : TablePrinter::fmt(to_msec(t), 2);
}

}  // namespace

int main(int argc, char** argv) {
  bench::TraceSession trace(argc, argv);
  bench::banner("fault-lifecycle",
                "scripted degradation: detection -> switchover -> fallback");

  const std::vector<std::uint64_t> seeds = {1, 2, 3};
  std::vector<fault::LifecycleConfig> grid;
  for (const std::string& name : fault::scenario_names()) {
    for (std::uint64_t seed : seeds) {
      fault::LifecycleConfig cfg;
      cfg.scenario = name;
      cfg.seed = seed;
      grid.push_back(cfg);
    }
  }

  const std::vector<fault::LifecycleResult> rows =
      fault::run_lifecycle_grid(grid);

  TablePrinter table({"scenario", "seed", "onset_ms", "detect_ms", "engage_ms",
                      "det_lat_us", "offered", "lost_pre", "lost_post",
                      "dup", "wire_drop", "notif", "drop", "stall", "copies",
                      "modes"});
  for (const auto& r : rows) {
    table.add_row({
        r.scenario,
        std::to_string(r.seed),
        ms_or_dash(r.onset_at),
        ms_or_dash(r.detected_at),
        ms_or_dash(r.engaged_at),
        r.detection_latency < 0
            ? "-"
            : TablePrinter::fmt(to_usec(r.detection_latency), 1),
        std::to_string(r.offered),
        std::to_string(r.lost_before_protection),
        std::to_string(r.lost_after_protection),
        std::to_string(r.duplicates),
        std::to_string(r.wire_corrupted),
        std::to_string(r.notifications),
        std::to_string(r.notifications_dropped),
        std::to_string(r.stalled_polls),
        std::to_string(r.retx_copies),
        mode_path(r),
    });
  }
  table.print();

  // Acceptance assertions, printed so the golden check pins them too.
  std::int64_t onset_lost_after = 0;
  std::int64_t onset_cells = 0;
  bool all_detected = true;
  for (const auto& r : rows) {
    if (r.scenario == "onset") {
      ++onset_cells;
      onset_lost_after += r.lost_after_protection;
      if (r.engaged_at < 0) all_detected = false;
    }
  }
  std::printf(
      "\nSUMMARY onset: cells=%lld engaged=%s lost_after_protection=%lld "
      "(%s)\n",
      static_cast<long long>(onset_cells), all_detected ? "all" : "MISSING",
      static_cast<long long>(onset_lost_after),
      onset_lost_after == 0 && all_detected ? "PASS: zero-loss switchover"
                                            : "FAIL");
  return onset_lost_after == 0 && all_detected ? 0 : 1;
}
