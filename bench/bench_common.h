// Shared helpers for the experiment benchmark binaries.
//
// Every binary prints the rows of one table/figure from the paper. Scale the
// run length with LGSIM_BENCH_SCALE (e.g. 0.1 for a quick pass, 10 for a
// longer, lower-variance run); 1.0 reproduces the defaults quoted in
// EXPERIMENTS.md.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "harness/fct.h"
#include "harness/parallel.h"
#include "obs/chrome_trace.h"
#include "obs/trace.h"
#include "util/env.h"

namespace lgsim::bench {

inline double scale() {
  // parse_positive_double rejects NaN/inf/garbage, which std::atof would
  // happily let through into loop bounds (NaN fails every comparison, so a
  // `for (i < scaled(n))` loop would run zero or forever depending on form).
  static const double s =
      parse_positive_double(std::getenv("LGSIM_BENCH_SCALE"), 1.0);
  return s;
}

inline std::int64_t scaled(std::int64_t n, std::int64_t lo = 1) {
  const auto v = static_cast<std::int64_t>(static_cast<double>(n) * scale());
  return v < lo ? lo : v;
}

inline void banner(const char* id, const char* title) {
  std::printf("\n================================================================\n");
  std::printf("%s — %s\n", id, title);
  std::printf("(LGSIM_BENCH_SCALE=%.3g)\n", scale());
  std::printf("================================================================\n");
}

/// Per-binary trace capture: construct first thing in main(). Activated by
/// `--trace=<path>` or LGSIM_TRACE=<path> (flag wins); otherwise inert.
///
/// When active it installs a process-global obs::TraceCollector plus a "main"
/// sink for code running on the main thread; harness::run_grid then adds one
/// sink per replication cell in grid order. The destructor writes
/// everything as Chrome trace-event JSON (open the file in Perfetto /
/// chrome://tracing). The completion note goes to stderr: stdout rows must
/// stay byte-identical whether or not a trace is being captured.
///
/// Ring capacity per sink is LGSIM_TRACE_CAP records (default 65536; the
/// ring keeps the newest records and the export reports how many were
/// evicted).
class TraceSession {
 public:
  TraceSession(int argc, char** argv) {
    if (const char* env = std::getenv("LGSIM_TRACE"); env != nullptr && *env)
      path_ = env;
    for (int i = 1; i < argc; ++i) {
      const std::string_view a = argv[i] != nullptr ? argv[i] : "";
      if (a.rfind("--trace=", 0) == 0) path_ = std::string(a.substr(8));
    }
    if (path_.empty()) return;
    const auto cap = static_cast<std::size_t>(parse_positive_double(
        std::getenv("LGSIM_TRACE_CAP"),
        static_cast<double>(obs::kDefaultRingCapacity)));
    collector_.emplace(cap);
    collector_->install();
    scope_.emplace(collector_->make_sink("main"));
  }

  ~TraceSession() {
    if (!collector_.has_value()) return;
    scope_.reset();
    collector_->uninstall();
    std::ofstream os(path_, std::ios::binary);
    obs::write_chrome_trace(os, *collector_);
    std::fprintf(stderr, "trace: wrote %s (%zu sinks)\n", path_.c_str(),
                 collector_->sink_count());
  }

  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

  bool active() const { return collector_.has_value(); }

 private:
  std::string path_;
  std::optional<obs::TraceCollector> collector_;
  std::optional<obs::SinkScope> scope_;
};

// ---------------------------------------------------------------------------
// Flow-launch / FCT-collection scaffolding, shared by the testbed FCT benches
// (bench_fig10/11/12). One TrafficConfig describes a transportxprotection
// sweep over one flow size; fct_grid() expands it into the
// harness::FctConfig grid in transport-major order. The seed strides
// reproduce each figure's historical per-cell seeds exactly (fig10: base
// 1000, protection stride 1; fig11: base 2000, strides 7/31; fig12: base
// 3000), so extracting the scaffolding changed no output byte. Every figure
// compares the same four conditions, in kFctProtections order, at the
// paper's ~1e-3 corruption loss on a 100G link.
// ---------------------------------------------------------------------------

inline constexpr harness::Protection kFctProtections[] = {
    harness::Protection::kNoLoss, harness::Protection::kLg,
    harness::Protection::kLgNb, harness::Protection::kLossOnly};
inline constexpr double kFctLossRate = 1e-3;
inline constexpr BitRate kFctRate = gbps(100);

struct TrafficConfig {
  std::vector<harness::Transport> transports{harness::Transport::kDctcp};
  std::int64_t flow_bytes = 143;
  std::int64_t trials = 10'000;
  SimTime inter_trial_gap = usec(20);
  /// Per-cell seed = base + protection * protection_stride +
  /// transport * transport_stride.
  std::uint64_t seed_base = 0;
  std::uint64_t seed_protection_stride = 1;
  std::uint64_t seed_transport_stride = 0;
};

inline std::vector<harness::FctConfig> fct_grid(const TrafficConfig& tc) {
  std::vector<harness::FctConfig> grid;
  grid.reserve(tc.transports.size() * std::size(kFctProtections));
  for (harness::Transport tr : tc.transports) {
    for (harness::Protection pr : kFctProtections) {
      harness::FctConfig c;
      c.transport = tr;
      c.protection = pr;
      c.flow_bytes = tc.flow_bytes;
      c.trials = tc.trials;
      c.loss_rate = kFctLossRate;
      c.rate = kFctRate;
      c.inter_trial_gap = tc.inter_trial_gap;
      c.seed = tc.seed_base +
               static_cast<std::uint64_t>(pr) * tc.seed_protection_stride +
               static_cast<std::uint64_t>(tr) * tc.seed_transport_stride;
      grid.push_back(c);
    }
  }
  return grid;
}

}  // namespace lgsim::bench
