// LinkGuardian configuration (§3.5, §4 "Parameters", Appendix B.1).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "util/units.h"

namespace lgsim::lg {

/// Eq. 2: number of retransmitted copies N such that
/// actual_loss^(N+1) <= target_loss. ceil() on the RHS, minimum 1.
inline int retx_copies(double actual_loss_rate, double target_loss_rate) {
  if (actual_loss_rate <= 0.0) return 1;
  if (actual_loss_rate >= 1.0) return 1;
  if (target_loss_rate <= 0.0) return 1;
  if (target_loss_rate >= actual_loss_rate) return 1;
  const double n = std::log10(target_loss_rate) / std::log10(actual_loss_rate) - 1.0;
  return std::max(1, static_cast<int>(std::ceil(n - 1e-9)));
}

struct LgConfig {
  // ---- operating mode -------------------------------------------------
  /// Default mode preserves packet ordering via the receiver-side reordering
  /// buffer; false = LinkGuardianNB (out-of-order retransmission, §3).
  bool preserve_order = true;

  // ---- ablation switches (Table 2) ------------------------------------
  /// Dummy-packet queue for timeout-less tail-loss detection (§3.2).
  bool tail_loss_detection = true;
  /// Backpressure pause/resume of the sender's normal queue (§3.3).
  bool backpressure = true;

  // ---- loss-rate targets (§3.4) ---------------------------------------
  /// Operator-specified target effective loss rate.
  double target_loss_rate = 1e-8;
  /// Measured actual loss rate of the link (corruptd provides this); together
  /// with the target it determines the number of retransmitted copies.
  double actual_loss_rate = 1e-4;

  int n_retx_copies() const {
    return retx_copies(actual_loss_rate, target_loss_rate);
  }

  // ---- timers and thresholds (Appendix B.1) ---------------------------
  /// Receiver-side timeout after which an unrecovered packet is skipped
  /// (ordered mode only). Paper: 7.5 us @25G, 7 us @100G.
  SimTime ack_no_timeout = usec(7);
  /// Granularity of the switch packet-generator timer packets used for
  /// timekeeping (10 Mpps in the paper = 100 ns).
  SimTime timer_period = nsec(100);

  /// Backpressure thresholds on the reordering buffer (bytes). Paper:
  /// resume = 40 KB @25G / 37 KB @100G; pause = resume + 2 MTU hysteresis.
  std::int64_t resume_threshold = 37'000;
  std::int64_t pause_threshold = 37'000 + 2 * kEthernetMtu;

  // ---- dataplane modelling --------------------------------------------
  /// One traversal of the recirculation loop used for packet buffering. This
  /// is the dominant component of the ~2-6 us retransmission delay measured
  /// on the Tofino (Fig. 19); a Tofino2-style zero-recirculation design can
  /// be modelled by setting it near zero.
  SimTime recirc_loop = nsec(1200);
  /// Rate at which the recirculation-based reordering buffer drains
  /// (recirculation ports run at 100G regardless of front-panel speed).
  BitRate recirc_drain_rate = gbps(100);
  /// Byte capacity of the recirculation buffer (the paper restricts the
  /// testbed switches to 200 KB).
  std::int64_t recirc_buffer_bytes = 200'000;
  /// Number of consecutive losses one loss notification can request; the
  /// implementation provisions 5 one-bit reTxReqs registers (§3.5).
  int max_consecutive_retx = 5;
  /// Copies of each loss notification sent (reverse-direction robustness,
  /// relevant under bidirectional corruption, §5).
  int loss_notif_copies = 1;
  /// The pause/resume signal rides the periodic timer-packet stream on the
  /// testbed (§3.5), so it is continuously refreshed; a lost PFC frame is
  /// repaired by the next one. This is the refresh interval of that model
  /// (the resume state is repeated a few times after un-pausing).
  SimTime pfc_refresh_period = usec(1);

  /// Copies of the other reverse-direction control messages (explicit ACKs
  /// and PFC pause/resume frames). §5 "Handling bidirectional corruption":
  /// control redundancy is the first half of the extension; all control
  /// messages are idempotent, so duplicates are harmless.
  int control_copies = 1;
  /// LinkGuardian data/ACK header bytes added to protected packets (§3.5).
  std::int32_t header_bytes = 3;

  /// Seed for the per-packet recirculation-phase jitter (where in the loop
  /// a buffered copy happens to sit when it becomes actionable). Gives the
  /// retransmission-delay distribution its measured spread (Fig. 19).
  std::uint64_t jitter_seed = 0x1234abcd;

  /// Assumed per-pipe forwarding capacity in packets/s, used only to express
  /// recirculation overhead as a percentage (Table 4). The paper states its
  /// 10 Mpps timer stream is ~1% of pipeline capacity => ~1 Gpps.
  double pipe_capacity_pps = 1.0e9;
};

/// Applies the paper's per-link-speed tuning (Appendix B.1): the measured
/// maximum retransmission delays (~6 us at 25G, ~5.5 us at 100G) set the
/// recirculation loop and the ackNoTimeout (7.5 / 7 us); resumeThreshold is
/// sized to tflight_resume at the recirculation drain rate (40 / 37 KB) and
/// pauseThreshold adds 2 MTU of hysteresis.
inline LgConfig tuned_for_rate(LgConfig cfg, BitRate rate) {
  if (rate <= gbps(10)) {
    // The 10G prototype (the APNet workshop predecessor) recovered within
    // TCP's 3-packet reordering window (~3.7 us at 10G) most of the time —
    // the basis of Table 3's LinkGuardianNB row.
    cfg.recirc_loop = nsec(1500);
    cfg.ack_no_timeout = nsec(7'500);
    cfg.resume_threshold = 40'000;
    cfg.pause_threshold = cfg.resume_threshold + 2 * kEthernetMtu;
    return cfg;
  }
  if (rate <= gbps(25)) {
    cfg.recirc_loop = nsec(4500);
    cfg.ack_no_timeout = nsec(7'500);
    cfg.resume_threshold = 40'000;
  } else {
    cfg.recirc_loop = nsec(4300);
    cfg.ack_no_timeout = nsec(7'000);
    cfg.resume_threshold = 37'000;
  }
  cfg.pause_threshold = cfg.resume_threshold + 2 * kEthernetMtu;
  return cfg;
}

}  // namespace lgsim::lg
