// CorrOpt re-implementation and large-scale deployment simulation (§4.8,
// Appendices C/D of the paper; methodology of Zhuo et al., SIGCOMM'17).
//
// The trace generator draws per-link corruption onset times from a Weibull
// distribution with shape 1 (pure random external causes) and MTTF 10,000
// hours, and corruption loss rates from the Table 1 production buckets.
// CorrOpt's *fast checker* decides whether a newly corrupting link can be
// disabled without violating the capacity constraint; its *optimizer* runs
// whenever a repaired link comes back and greedily disables the worst
// remaining corrupting links that now fit. The LinkGuardian+CorrOpt strategy
// (§3.6) additionally activates LinkGuardian the moment corruption is
// detected, so links that cannot be disabled keep a residual loss of at most
// the operator target.
//
// Scale (DESIGN.md §11): the year-long paper-scale run (~100K links) streams
// corruption events from a per-link next-failure heap (`CorruptionStream`)
// instead of materializing and sorting the whole horizon's trace — O(links)
// state instead of O(events) — and reads every per-sample metric from the
// FabricTopology incremental capacity engine. The optimizer keeps its
// backlog of not-yet-disablable links per pod, and a repair re-optimizes
// only the repaired link's pod: capacity checks are pod-local, so no other
// pod's backlog can have become disablable, and the result is bit-identical
// to a full pass over every backlog. The pre-refactor engine (full backlog
// rescans, scan-based metrics) lives on only as the oracle
// `reference_deployment` (corropt/reference.h, library `lgsim_reference`);
// the differential tests and `bench_deploy` hold the two bit-identical.
#pragma once

#include <cstdint>
#include <queue>
#include <vector>

#include "fabric/topology.h"
#include "sim/random.h"
#include "util/units.h"

namespace lgsim::corropt {

/// Table 1: corruption loss rates observed in Microsoft datacenters.
struct LossBucket {
  double lo;
  double hi;
  double fraction;
};
const std::vector<LossBucket>& table1_buckets();

/// Draw a corruption loss rate from the Table 1 distribution (log-uniform
/// within the bucket). The bucket choice is normalized by the total of the
/// Table 1 fractions (0.9999 — the paper's percentages are rounded), so no
/// probability mass silently falls through to the 10% hard cap.
double sample_loss_rate(Rng& rng);

struct CorruptionEvent {
  double time_hours;
  std::int64_t link;
  double loss_rate;
};

/// Streams the corruption trace of Appendix D in time order without ever
/// materializing it: a min-heap over per-link next-failure entries, each
/// carrying its own RNG stream (seeded from `rng` and the link id). Popping
/// an event draws that link's loss rate and next failure lazily, so memory
/// stays O(links) regardless of the horizon. Ties on time break by link id,
/// making the stream fully deterministic.
class CorruptionStream {
 public:
  CorruptionStream(std::int64_t n_links, double duration_hours,
                   double mttf_hours, Rng& rng);

  bool done() const { return heap_.empty(); }
  /// Time of the next event; only valid when !done().
  double next_time_hours() const { return heap_.top().time_hours; }
  CorruptionEvent pop();

 private:
  struct Entry {
    double time_hours;
    std::int64_t link;
    Rng rng;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.time_hours != b.time_hours) return a.time_hours > b.time_hours;
      return a.link > b.link;
    }
  };

  double duration_hours_;
  double mttf_hours_;
  std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
};

/// Generates the corruption trace of Appendix D for a topology of n links by
/// draining a CorruptionStream: identical events, (time, link)-sorted.
std::vector<CorruptionEvent> generate_trace(std::int64_t n_links,
                                            double duration_hours,
                                            double mttf_hours, Rng& rng);

struct DeploymentConfig {
  fabric::TopologyConfig topo;
  double capacity_constraint = 0.75;  // least-paths-per-ToR floor
  double duration_hours = 24 * 365;
  double mttf_hours = 10'000;
  bool use_linkguardian = false;
  double lg_target_loss = 1e-8;
  /// Repair times: 80% of links repaired in ~2 days, 20% in ~4 days.
  double repair_fast_hours = 48;
  double repair_slow_hours = 96;
  double repair_fast_fraction = 0.8;
  /// Metric sampling period.
  double sample_period_hours = 1.0;
  std::uint64_t seed = 7;
};

struct DeploymentSample {
  double time_hours;
  double total_penalty;
  double least_paths_frac;
  double least_capacity_frac;
  std::int32_t corrupting_links;
  std::int32_t disabled_links;
  std::int32_t lg_links;
};

struct DeploymentResult {
  DeploymentConfig cfg;
  std::vector<DeploymentSample> samples;
  std::int64_t corruption_events = 0;
  std::int64_t disabled_immediately = 0;  // fast checker said yes
  std::int64_t kept_active = 0;           // capacity constraint blocked it
  std::int64_t disabled_by_optimizer = 0;
  std::int32_t max_lg_per_switch = 0;
};

/// Throws std::invalid_argument on a config it cannot run: a sample period
/// or MTTF that is not positive, a negative duration or repair time, a
/// capacity constraint or fast-repair fraction outside [0, 1], or NaN in
/// any of them.
DeploymentResult run_deployment(const DeploymentConfig& cfg);

/// Effective link speed of a LinkGuardian-protected link as a function of
/// the loss rate (the Fig. 8 measurement, ordered mode at 100G).
double lg_effective_speed(double loss_rate);

}  // namespace lgsim::corropt
