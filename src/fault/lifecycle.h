// Closed-loop fault-lifecycle experiment: the paper's end-to-end story on
// one protected link, driven by a scripted fault scenario.
//
//   FaultInjector -> link corrupts -> corruptd's counter polls detect it ->
//   notification over the (delayed, droppable) pub-sub bus -> LinkGuardian
//   enabled live with Eq. 2 copies -> AutoFallback steps the mode down/up as
//   the scripted loss evolves.
//
// The harness keeps per-uid ground truth of every offered frame, so loss is
// split at the protection-engagement watermark: frames sent before
// LinkGuardian engaged vs after. The headline acceptance number for the
// "onset" scenario is lost_after_protection == 0 — a live switchover in
// ordered mode masks every corruption loss from the moment it engages.
//
// Determinism: one Simulator/Rng per run, scripted faults only (no ambient
// state), so a {scenario, seed} cell is byte-identical for any
// LGSIM_BENCH_JOBS via harness::run_grid (bench_fault_lifecycle pins
// this with its golden-diff mode).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fault/scenarios.h"
#include "lg/config.h"
#include "monitor/fallback.h"
#include "util/units.h"

namespace lgsim::fault {

/// Where corruptd's per-link counters come from.
///   kOracle    — the forward port's delivered/corrupted counters: ground
///                truth the switch driver would expose, and exactly the
///                pre-PR-6 behaviour (no prober is constructed at all, so
///                oracle cells are event-, RNG- and trace-identical to the
///                old code).
///   kEstimator — a LinkProber emits sequenced probes down the same wire and
///                a SeqWindowEstimator derives the counters from what
///                arrives: the oracle-free closed loop (src/telemetry).
enum class CounterFeed : std::uint8_t { kOracle, kEstimator };

struct LifecycleConfig {
  std::string scenario = "onset";
  std::uint64_t seed = 1;

  // Dataplane.
  BitRate rate = gbps(25);
  std::int32_t frame_bytes = 1518;
  /// Offered load as a fraction of line rate (headroom keeps the normal
  /// queue from congesting so every undelivered uid is a corruption loss).
  double offered_load = 0.9;
  /// Mean burst length of the link's Gilbert-Elliott loss chain (frames).
  /// Default 1 (independent losses): Eq. 2's copy count assumes loss
  /// independence, and the paper's Fig. 20 measures overwhelmingly
  /// single-frame losses. Raise it (or use the burst-episode scenario) to
  /// study how burstiness erodes the zero-loss guarantee.
  double mean_burst = 1.0;

  // Control plane.
  SimTime poll_period = msec(1);
  std::int64_t window_frames = 20'000;
  double detect_threshold = 1e-4;
  /// Modelled Redis-hop latency between corruptd and the activator.
  SimTime bus_delay = usec(50);
  /// Corruptd re-publishes while loss persists (recovers dropped
  /// notifications in the bus-outage scenario).
  SimTime renotify_period = msec(5);
  double lg_target_loss = 1e-8;

  bool auto_fallback = true;
  monitor::FallbackConfig fallback = {5e-3, 5e-2, 0.5, msec(2)};

  lg::LgConfig lg;

  /// Injection stops this long before the scenario horizon so in-flight
  /// frames drain inside the run.
  SimTime drain = msec(5);

  // Telemetry (estimator feed only; ignored for kOracle).
  CounterFeed feed = CounterFeed::kOracle;
  /// Probe emission period. 64 B + overhead every 10 us is ~0.27% of a 25G
  /// link; halving it halves detection latency at low loss rates.
  SimTime probe_period = usec(10);
  /// Sliding estimate window (click's TAU): both the estimator's window and
  /// corruptd's window_tau, so stale probe evidence ages out and recovery is
  /// observable. 20 ms at the default period is ~2000 probes, making one
  /// lost probe a 5e-4 loss estimate — above detect_threshold, so detection
  /// latency is the time to the first lost probe plus a poll quantum.
  SimTime probe_tau = msec(20);
};

struct LifecycleResult {
  std::string scenario;
  std::uint64_t seed = 0;

  // Timeline (ns; -1 = never happened).
  SimTime onset_at = 0;
  SimTime detected_at = -1;   // first corruptd notification (publish time)
  SimTime engaged_at = -1;    // LinkGuardian enabled on the link
  SimTime detection_latency = -1;  // detected_at - onset_at

  // Per-uid ground-truth loss accounting.
  std::int64_t offered = 0;
  std::int64_t delivered = 0;
  std::int64_t duplicates = 0;
  std::int64_t lost_total = 0;
  std::int64_t lost_before_protection = 0;  // uid sent before engagement
  std::int64_t lost_after_protection = 0;   // uid sent after engagement
  std::int64_t wire_corrupted = 0;          // raw FCS drops on the fiber

  // Control plane.
  std::int64_t notifications = 0;
  std::int64_t notifications_dropped = 0;
  std::int64_t polls = 0;
  std::int64_t stalled_polls = 0;
  std::int64_t faults_applied = 0;
  std::int64_t ramp_steps = 0;
  int retx_copies = 0;  // Eq. 2 copies from the engaging notification
  std::vector<monitor::ModeChange> mode_changes;
  monitor::LgMode final_mode = monitor::LgMode::kOff;
  bool lg_enabled_at_end = false;

  // Telemetry (zeros / unknown when oracle-fed).
  std::int64_t probes_sent = 0;
  std::int64_t probes_rx = 0;        // distinct probes the estimator saw
  std::int64_t probes_suppressed = 0; // fires swallowed by a probe stall
  bool estimate_known = false;       // estimator had evidence at run end
  double estimate_rate = 0.0;        // final windowed loss estimate
};

/// Runs one scenario cell end to end.
LifecycleResult run_lifecycle(const LifecycleConfig& cfg);

/// Runs a grid of cells through harness::run_grid; results come back
/// in grid order, byte-identical for any LGSIM_BENCH_JOBS.
std::vector<LifecycleResult> run_lifecycle_grid(
    const std::vector<LifecycleConfig>& grid);

}  // namespace lgsim::fault
