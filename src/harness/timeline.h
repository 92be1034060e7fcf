// Throughput-timeline harness (§4.2, Appendix B.3 — Figs. 9 and 21).
//
// One long-running flow crosses the protected link. Corruption starts at
// t_corruption; LinkGuardian is activated at t_lg (what corruptd would do).
// Samples goodput at the receiver, the sender-switch normal-queue depth, the
// LinkGuardian RX reordering buffer, and end-to-end retransmissions — the
// four panels of Fig. 9.
#pragma once

#include <cstdint>

#include "harness/fct.h"  // Transport enum
#include "util/timeseries.h"
#include "util/units.h"

namespace lgsim::harness {

struct TimelineConfig {
  Transport transport = Transport::kDctcp;
  BitRate rate = gbps(25);
  double loss_rate = 1e-3;
  /// Mean burst length of the corruption process. The paper observed that
  /// 25G losses at 1e-3 are *not* i.i.d. (§4.1); bursts wider than the five
  /// reTxReqs registers are what LinkGuardian cannot recover and what makes
  /// the reordering backlog grow when backpressure is off (Fig. 9b).
  double mean_burst = 2.0;
  bool backpressure = true;  // Fig. 9b disables this
  /// Recirculation (reordering) buffer budget. Our recovery model bounds the
  /// unpaused backlog at ~ackNoTimeout x line rate (~23 KB at 25G), tighter
  /// than the testbed, so the overflow demonstration of Fig. 9b uses a
  /// proportionally reduced budget; 0 keeps the paper's 200 KB.
  std::int64_t recirc_budget_bytes = 0;
  /// Backpressure resume threshold override (pause = resume + 2 MTU);
  /// 0 = the Appendix B.1 defaults for the link speed.
  std::int64_t resume_threshold_bytes = 0;
  /// Timeline (compressed relative to the paper's 15 s wall clock; the
  /// dynamics settle within tens of milliseconds).
  SimTime t_corruption = msec(300);
  SimTime t_lg = msec(700);
  SimTime t_end = msec(1200);
  SimTime sample_period = msec(10);
  std::uint64_t seed = 3;
};

struct TimelineResult {
  TimelineConfig cfg;
  TimeSeries goodput_gbps;     // receiver-app delivery rate
  TimeSeries qdepth_bytes;     // sender-switch normal queue
  TimeSeries rx_buffer_bytes;  // LinkGuardian reordering buffer
  TimeSeries e2e_retx;         // cumulative end-to-end retransmissions
  std::int64_t reorder_drops = 0;     // reordering-buffer overflow drops
  std::int64_t lg_effectively_lost = 0;
  std::int64_t e2e_retx_total = 0;

  double goodput_before() const {
    return goodput_gbps.mean_in(cfg.t_corruption / 2, cfg.t_corruption);
  }
  double goodput_during_loss() const {
    return goodput_gbps.mean_in(cfg.t_corruption + (cfg.t_lg - cfg.t_corruption) / 2,
                                cfg.t_lg);
  }
  double goodput_with_lg() const {
    return goodput_gbps.mean_in(cfg.t_lg + (cfg.t_end - cfg.t_lg) / 2, cfg.t_end);
  }
};

/// Runs one timeline. Throws std::invalid_argument for kRdmaWrite: the
/// timeline drives a TCP flow.
TimelineResult run_timeline(const TimelineConfig& cfg);

}  // namespace lgsim::harness
