// Long-flow testbed (§4.2, §4.7, Appendix B.3 — Figs. 9 and 21, Table 3).
//
// Every throughput experiment measures one long-lived iperf-style TCP flow
// from host A to host B across the corrupting link. LongFlow wires that
// testbed once; its callers differ only in the loss model they install on
// the link, when LinkGuardian turns on and in which mode, and the window
// they read delivered bytes over.
//
// run_timeline is the Figs. 9/21 caller: corruption starts at t_corruption
// and LinkGuardian is activated at t_lg (what corruptd would do). It samples
// goodput at the receiver, the sender-switch normal-queue depth, the
// LinkGuardian RX reordering buffer, and end-to-end retransmissions — the
// four panels of Fig. 9.
#pragma once

#include <cstdint>

#include "harness/fct.h"  // Transport enum, tcp_config
#include "sim/simulator.h"
#include "transport/path.h"
#include "transport/tcp.h"
#include "util/timeseries.h"
#include "util/units.h"

namespace lgsim::harness {

/// The path a long flow crosses: `rate` end to end, LinkGuardian tuned for
/// that rate and sized for the link's true raw loss rate (an explicit 0 for
/// a healthy link: Eq. 2 sizing treats "no losses observed" the same as
/// "below target", so nothing needs a fake floor).
transport::PathConfig long_flow_path(BitRate rate, double loss_rate);

/// One effectively infinite TCP flow from host A to host B over a testbed
/// path, counting the payload bytes host B's application receives.
/// Construction wires the path and both endpoints and schedules nothing: the
/// caller installs the link's loss model and LinkGuardian mode, then
/// start()s the flow.
class LongFlow {
 public:
  /// Throws std::invalid_argument for kRdmaWrite, which is not TCP.
  LongFlow(const transport::PathConfig& pc, Transport transport);
  LongFlow(const LongFlow&) = delete;
  LongFlow& operator=(const LongFlow&) = delete;

  void start();

  /// Runs the flow through `to` and returns the goodput (Gb/s) host B
  /// received over (from, to]. Throws std::invalid_argument unless
  /// 0 <= from < to.
  double goodput_gbps(SimTime from, SimTime to);

  Simulator& sim() { return sim_; }
  lg::ProtectedLink& link() { return path_.link(); }
  const transport::TcpSender& sender() const { return snd_; }
  std::int64_t delivered() const { return delivered_; }

 private:
  Simulator sim_;
  transport::TestbedPath path_;
  transport::TcpSender snd_;
  transport::TcpReceiver rcv_;
  std::int64_t delivered_ = 0;
};

struct TimelineConfig {
  Transport transport = Transport::kDctcp;
  BitRate rate = gbps(25);
  /// In [0, 1).
  double loss_rate = 1e-3;
  /// Mean burst length of the corruption process (>= 1). The paper observed
  /// that 25G losses at 1e-3 are *not* i.i.d. (§4.1); bursts wider than the
  /// five reTxReqs registers are what LinkGuardian cannot recover and what
  /// makes the reordering backlog grow when backpressure is off (Fig. 9b).
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
  /// dynamics settle within tens of milliseconds). t_end and sample_period
  /// must be > 0.
  SimTime t_corruption = msec(300);
  SimTime t_lg = msec(700);
  SimTime t_end = msec(1200);
  SimTime sample_period = msec(10);
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

/// Runs one timeline. Throws std::invalid_argument for kRdmaWrite (the
/// timeline drives a TCP flow) and for the out-of-range values documented on
/// TimelineConfig.
TimelineResult run_timeline(const TimelineConfig& cfg);

}  // namespace lgsim::harness
