// Flow-completion-time experiment harness (§4.3, §4.4, §4.5).
//
// Repeats fixed-size flows back-to-back over the testbed path — the paper's
// 300K-trial FCT measurements — under four conditions: no loss, loss, loss +
// LinkGuardian, loss + LinkGuardianNB. Collects the FCT distribution plus
// the per-trial transport telemetry used by the Fig. 13 classification
// (affected / SACK > 2 MSS / tail loss / pending bytes).
#pragma once

#include <cstdint>
#include <vector>

#include "transport/path.h"
#include "util/stats.h"
#include "util/units.h"

namespace lgsim::harness {

enum class Transport : std::uint8_t { kDctcp, kCubic, kBbr, kRdmaWrite };
enum class Protection : std::uint8_t { kNoLoss, kLossOnly, kLg, kLgNb };

const char* transport_name(Transport t);
const char* protection_name(Protection p);

struct FctConfig {
  Transport transport = Transport::kDctcp;
  Protection protection = Protection::kNoLoss;
  std::int64_t flow_bytes = 143;
  std::int64_t trials = 10'000;
  /// When non-empty, overrides {flow_bytes, trials}: trial i sends
  /// trial_bytes[i]. Lets callers (the fabric traffic engine) replay a
  /// concrete list of flow sizes through the packet-level path.
  std::vector<std::int64_t> trial_bytes;
  double loss_rate = 1e-3;
  BitRate rate = gbps(100);
  /// Idle gap between consecutive trials.
  SimTime inter_trial_gap = usec(20);
  /// Per-trial guard timeout: a trial that exceeds this is recorded at the
  /// cap (only pathological configurations hit it).
  SimTime trial_cap = msec(200);
  std::uint64_t seed = 42;
  transport::PathConfig path;  // link/lg knobs; rate + lg mode are overwritten
};

/// Fig. 13 classification groups for affected DCTCP flows under LG_NB.
struct FlowClassCounts {
  std::int64_t affected = 0;   // received >= 1 SACK while LG recovered a loss
  std::int64_t group_a = 0;    // <= 2 MSS SACKed, not a tail loss
  std::int64_t group_b = 0;    // <= 2 MSS SACKed, tail loss
  std::int64_t group_c = 0;    // > 2 MSS SACKed, nothing left to send
  std::int64_t group_d = 0;    // > 2 MSS SACKed with pending bytes
};

struct FctResult {
  FctConfig cfg;
  lgsim::PercentileTracker fct_us;
  std::int64_t trials_with_wire_loss = 0;  // >=1 data frame corrupted
  std::int64_t trials_with_e2e_retx = 0;   // transport had to retransmit
  std::int64_t trials_with_rto = 0;
  std::int64_t trials_capped = 0;
  FlowClassCounts classes;                  // TCP transports only

  double p(double percentile) const { return fct_us.percentile(percentile); }
};

/// Runs one FCT configuration. Grids fan out through
/// harness::run_grid(grid, run_fct) (harness/parallel.h).
FctResult run_fct(const FctConfig& cfg);

}  // namespace lgsim::harness
