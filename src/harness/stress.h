// Line-rate stress-test harness (§4.1, §4.6, Appendix B.4).
//
// Drives MTU-sized packets at line rate across one protected link — the
// paper's "stress test" done with the Tofino packet generator — and collects
// every metric the evaluation reports from it:
//   - actual vs effective loss rate and the analytic expectation (Fig. 8)
//   - effective link speed (Fig. 8)
//   - ackNoTimeout occurrences (§4.1 "Timeouts in practice")
//   - TX / RX buffer occupancy percentiles (Fig. 14)
//   - retransmission delay distribution (Fig. 19)
//   - recirculation overhead (Table 4)
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "lg/link.h"
#include "net/loss_model.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "util/stats.h"
#include "util/units.h"

namespace lgsim::harness {

struct StressConfig {
  BitRate rate = gbps(100);
  double loss_rate = 1e-3;
  /// Mean burst length of the Gilbert-Elliott corruption process. 1.0 gives
  /// i.i.d. losses; ~1.1 matches the measured burstiness (Fig. 20).
  double mean_burst = 1.0;
  std::int64_t packets = 2'000'000;
  std::int32_t frame_bytes = 1518;  // MTU frame
  lg::LgConfig lg;
  bool enable_lg = true;
  std::uint64_t seed = 1;
  /// Buffer-occupancy sampling period (Fig. 14).
  SimTime sample_period = usec(10);
};

struct StressResult {
  std::int64_t offered_pkts = 0;
  std::int64_t protected_sent = 0;
  std::int64_t corrupted_frames = 0;      // all frames lost on the wire
  std::int64_t data_frames_lost = 0;      // original data frames lost
  std::int64_t effectively_lost = 0;
  std::int64_t forwarded = 0;
  std::int64_t timeouts = 0;
  std::int64_t retx_copies_sent = 0;
  std::int64_t pauses = 0;
  SimTime elapsed = 0;

  double actual_loss_rate = 0.0;      // measured on the wire
  double effective_loss_rate = 0.0;   // seen by the endpoints
  double analytic_loss_rate = 0.0;    // actual^(N+1), Eq. 1
  double effective_speed_frac = 0.0;  // fraction of line rate (Fig. 8)

  lgsim::PercentileTracker tx_buffer_bytes;
  lgsim::PercentileTracker rx_buffer_bytes;
  lgsim::PercentileTracker retx_delay_us;
  double recirc_overhead_tx_frac = 0.0;  // of pipe capacity (Table 4)
  double recirc_overhead_rx_frac = 0.0;
};

/// Runs one stress-test configuration to completion and reports the metrics.
/// The LinkGuardian parameters are auto-tuned for the link speed per
/// Appendix B.1 (recirculation loop, ackNoTimeout, thresholds).
StressResult run_stress(const StressConfig& cfg);

/// Same, but uses cfg.lg verbatim (no per-rate tuning) — for ablations that
/// sweep the dataplane parameters themselves.
StressResult run_stress_with_config(const StressConfig& cfg);

/// Runs a whole grid of stress configurations, fanned out over
/// LGSIM_BENCH_JOBS workers (see harness/parallel.h). Each replication gets
/// its own Simulator/Rng; results come back in submission order and are
/// byte-identical to calling run_stress serially, for any worker count.
std::vector<StressResult> run_stress_grid(const std::vector<StressConfig>& cfgs);

/// Grid variant of run_stress_with_config (no per-rate tuning).
std::vector<StressResult> run_stress_with_config_grid(
    const std::vector<StressConfig>& cfgs);

}  // namespace lgsim::harness
