// Facebook-fabric datacenter topology model (Fig. 4, §4.8).
//
// Each pod has 48 top-of-rack switches fully meshed to 4 fabric switches;
// fabric switch i of every pod connects to all 48 spine switches of spine
// plane i. With 1:1 oversubscription each pod contributes 192 ToR-fabric
// links and 192 fabric-spine links; ~260 pods give the paper's ~100K optical
// switch-to-switch links.
//
// The capacity metrics follow Zhuo et al. [CorrOpt, SIGCOMM'17]:
//  - paths per ToR: number of valley-free ToR->spine paths,
//    sum over fabric f of up(tor,f) * up_spine_links(f);  max 4*48 = 192.
//  - least paths per ToR: the worst ToR's fraction of its maximum.
//  - least capacity per pod: the worst pod's usable ToR->spine capacity as a
//    fraction of nominal, where a LinkGuardian-protected link contributes
//    its reduced effective speed (Fig. 8).
//
// Incremental capacity engine (DESIGN.md §11). The year-long deployment
// simulation queries these metrics every sample; recomputing them by scanning
// all ~100K links made the paper-scale run infeasible. The topology therefore
// maintains every aggregate incrementally, and all link mutations flow through
// one entry point, `apply(LinkTransition)`, so the invariants live in one
// place:
//  - `up_spine_[pod][fabric]` and `paths_[pod][tor]` — integer counts updated
//    in O(1) (ToR-fabric flip) or O(tors_per_pod) (fabric-spine flip);
//  - a bucketed min-tracker over the per-ToR path counts (domain is
//    0..max_paths_per_tor(), tiny) answering `least_paths_per_tor_frac()`
//    without a scan;
//  - lazily recomputed per-pod capacity fractions: a mutation dirties its
//    (pod, layer), and `least_capacity_per_pod_frac()` re-sums only dirty
//    layers. Per layer the engine counts up links and up links with
//    effective_speed != 1.0; a layer with no slowed link takes its up count
//    as its sum (adding k copies of 1.0 to +0.0 gives exactly k below 2^53),
//    and only a layer with a slowed link is scanned, in the naive scan's
//    summation order — bit-exact against the full naive scan either way;
//  - the ordered set of corrupting-up links with a cached `link_penalty()`
//    term per link, so `total_penalty()` sums O(active) contributions in
//    ascending link order — the same FP order the naive full scan uses,
//    keeping the result bit-identical (a running +=/-= accumulator would
//    drift) — and recomputes only the terms a transition invalidated;
//  - per-switch LinkGuardian counts plus a value histogram answering
//    `max_lg_links_per_switch()` in O(1);
//  - one state byte per link (`link_state()`, kLinkUp | kLinkCorrupting), a
//    ~100 KB copy of the two flags the per-flow readers probe, so ECMP
//    resolution and victim checks stay out of the 48-byte Link records.
// The pre-refactor full-scan implementations live on as
// `NaiveFabricMetrics` (naive_metrics.h); randomized differential tests pin
// the two bit-identical.
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "lg/config.h"

namespace lgsim::fabric {

enum class LinkLayer : std::uint8_t { kTorFabric, kFabricSpine };

struct Link {
  LinkLayer layer = LinkLayer::kTorFabric;
  std::int32_t pod = 0;
  std::int32_t tor = -1;     // ToR index within pod (kTorFabric only)
  std::int32_t fabric = 0;   // fabric switch index within pod (= spine plane)
  std::int32_t spine = -1;   // spine switch index within plane (kFabricSpine)

  bool up = true;            // administratively enabled
  bool corrupting = false;
  double loss_rate = 0.0;    // raw corruption loss rate when corrupting
  bool lg_enabled = false;
  /// Relative link speed when LinkGuardian is active (1.0 otherwise).
  double effective_speed = 1.0;
};

/// Penalty contribution of one corrupting, still-enabled link: the residual
/// loss after N-copy retransmission (Eq. 1) when LinkGuardian protects it,
/// the raw loss rate otherwise. Shared by the incremental engine and the
/// naive reference scan so both compute bit-identical doubles.
inline double link_penalty(const Link& l, double lg_target_loss) {
  if (l.lg_enabled) {
    // Never worse than the raw loss.
    const int n = lg::retx_copies(l.loss_rate, lg_target_loss);
    return std::min(l.loss_rate, std::pow(l.loss_rate, n + 1));
  }
  return l.loss_rate;
}

/// Bits of FabricTopology::link_state().
inline constexpr std::uint8_t kLinkUp = 1;
inline constexpr std::uint8_t kLinkCorrupting = 2;

struct TopologyConfig {
  std::int32_t pods = 4;
  std::int32_t tors_per_pod = 48;
  std::int32_t fabrics_per_pod = 4;
  std::int32_t spines_per_plane = 48;
};

/// Hard bound on fabrics_per_pod: the CorrOpt fast-checker scratch in the
/// naive reference implementation is a fixed `up_spines[kMaxFabricsPerPod]`
/// stack array (indexed by fabric), so the constructor rejects anything
/// larger instead of silently overflowing the stack.
inline constexpr std::int32_t kMaxFabricsPerPod = 64;
/// Sanity ceiling on the remaining dimensions (bounds aggregate-array and
/// histogram sizes; far above the paper's 260/48/4/48 scale).
inline constexpr std::int32_t kMaxDimension = 1 << 20;

/// The one mutation entry point of the topology. Each transition mirrors a
/// deployment-simulation state change; `apply()` updates the link record and
/// every incremental aggregate in the same step.
struct LinkTransition {
  enum class Kind : std::uint8_t {
    /// Corruption onset: sets corrupting + loss_rate (link stays up).
    kCorrupt,
    /// LinkGuardian activated: sets lg_enabled + effective_speed.
    kEnableLg,
    /// LinkGuardian deactivated: clears lg_enabled, speed back to 1.0.
    kDisableLg,
    /// CorrOpt disables the link: up=false, LG cleared, speed reset;
    /// corrupting/loss_rate are kept (the fault survives until repair).
    kDisable,
    /// Repair completes: up=true and the link is factory-fresh (corruption,
    /// LG and speed all cleared).
    kRepair,
  };

  Kind kind = Kind::kCorrupt;
  std::int64_t link = 0;
  double loss_rate = 0.0;        // kCorrupt
  double effective_speed = 1.0;  // kEnableLg
};

class FabricTopology {
 public:
  /// Throws std::invalid_argument unless every dimension is in [1,
  /// kMaxDimension] and fabrics_per_pod <= kMaxFabricsPerPod.
  explicit FabricTopology(const TopologyConfig& cfg);

  std::int64_t n_links() const { return static_cast<std::int64_t>(links_.size()); }
  const Link& link(std::int64_t id) const { return links_[id]; }
  /// `link(id).up` and `link(id).corrupting` as kLinkUp | kLinkCorrupting
  /// bits. Written by apply() in the same step as the Link record.
  std::uint8_t link_state(std::int64_t id) const { return state_[id]; }
  const TopologyConfig& config() const { return cfg_; }

  /// Applies one state transition and updates all maintained aggregates.
  /// No-op transitions (e.g. kDisable on a down link) are tolerated.
  void apply(const LinkTransition& tr);

  std::int64_t tor_fabric_link(std::int32_t pod, std::int32_t tor,
                               std::int32_t fabric) const;
  std::int64_t fabric_spine_link(std::int32_t pod, std::int32_t fabric,
                                 std::int32_t spine) const;

  /// Number of up fabric-spine links of (pod, fabric). O(1).
  std::int32_t up_spine_links(std::int32_t pod, std::int32_t fabric) const {
    return up_spine_[static_cast<std::size_t>(pod) * cfg_.fabrics_per_pod +
                     fabric];
  }
  /// Valley-free ToR->spine path count for one ToR. O(1).
  std::int64_t paths_per_tor(std::int32_t pod, std::int32_t tor) const {
    return paths_[static_cast<std::size_t>(pod) * cfg_.tors_per_pod + tor];
  }
  std::int64_t max_paths_per_tor() const {
    return static_cast<std::int64_t>(cfg_.fabrics_per_pod) * cfg_.spines_per_plane;
  }

  /// Worst-case ToR path fraction across the network ("least paths per ToR").
  /// O(1) amortized via the bucketed min-tracker.
  double least_paths_per_tor_frac() const;

  /// Simulates disabling `link_id` and reports whether every affected ToR
  /// keeps at least `constraint` of its maximum paths (CorrOpt fast checker
  /// predicate). O(1) for ToR-fabric links, O(tors_per_pod) for fabric-spine.
  bool can_disable(std::int64_t link_id, double constraint) const;

  /// Usable ToR->spine capacity fraction of the worst pod, counting each up
  /// link at its effective speed ("least capacity per pod"). O(dirty layers
  /// + slowed dirty layers * layer size + pods): only (pod, layer)s touched
  /// since the last call are re-summed, and one with no slowed up link in
  /// O(1).
  double least_capacity_per_pod_frac() const;

  /// Sum of loss rates over corrupting, still-enabled links, where
  /// LinkGuardian-protected links contribute their effective (residual)
  /// loss rate ("total penalty"). O(corrupting-up links) additions, summed in
  /// ascending link order — bit-identical to the naive full scan. Each
  /// link's term is cached and recomputed only after a transition changed
  /// its loss rate or LG state, or when `lg_target_loss` differs from the
  /// previous call's.
  double total_penalty(double lg_target_loss) const;

  /// Highest number of LinkGuardian-enabled links on any single switch
  /// (pipe) — the deployment-feasibility number discussed in §5. O(1).
  std::int32_t max_lg_links_per_switch() const { return lg_max_; }

  // Maintained counters the deployment sampler reads instead of scanning.
  std::int64_t disabled_links() const { return disabled_links_; }
  std::int64_t corrupting_up_links() const {
    return static_cast<std::int64_t>(corrupting_up_.size());
  }
  std::int64_t lg_up_links() const { return lg_up_links_; }

 private:
  // Re-derives every aggregate delta from an old/new link-record pair; the
  // single place where the maintained-state invariants are written down.
  void reconcile(std::int64_t id, const Link& before, const Link& after);
  void shift_tor_paths(std::int32_t pod, std::int32_t tor, std::int64_t delta);
  void bump_lg_switch_count(std::int32_t* slot, std::int32_t delta);
  // Sum of the effective speeds of one (pod, layer)'s up links: its up
  // count when none is slowed, else the ordered scan (a verbatim copy of
  // NaiveFabricMetrics::least_capacity_per_pod_frac's loop, same order).
  double layer_speed_sum(std::size_t layer) const;

  TopologyConfig cfg_;
  std::vector<Link> links_;
  std::vector<std::uint8_t> state_;  // [n_links], see link_state()
  std::int64_t tor_fabric_base_ = 0;
  std::int64_t fabric_spine_base_ = 0;

  // --- incremental aggregates -------------------------------------------
  std::vector<std::int32_t> up_spine_;   // [pods * fabrics_per_pod]
  std::vector<std::int64_t> paths_;      // [pods * tors_per_pod]
  // Bucketed min-tracker over paths_: paths_hist_[v] counts ToRs with v
  // paths; min_paths_hint_ is a lower bound on the true min, advanced lazily.
  std::vector<std::int64_t> paths_hist_;  // [max_paths_per_tor() + 1]
  mutable std::int64_t min_paths_hint_ = 0;

  // Lazy per-pod capacity, indexed per layer as pod * 2 + LinkLayer: counts
  // of up links and of up links whose effective_speed != 1.0, maintained by
  // reconcile(); the cached layer_speed_sum(), recomputed only for layers a
  // transition dirtied; and each pod's capacity fraction.
  std::vector<std::int32_t> layer_up_;           // [pods * 2]
  std::vector<std::int32_t> layer_slowed_;       // [pods * 2]
  mutable std::vector<double> layer_sum_;        // [pods * 2]
  mutable std::vector<std::uint8_t> layer_dirty_;  // [pods * 2]
  mutable std::vector<std::size_t> dirty_layers_;
  mutable std::vector<double> pod_cap_;          // [pods]

  // Corrupting && up links, ascending id (the penalty summation order).
  std::vector<std::int64_t> corrupting_up_;
  // link_penalty() of each corrupting_up_ entry at penalty_target_, parallel
  // to corrupting_up_; NaN marks a stale term. (A term that is genuinely NaN
  // is merely recomputed every call, to the same bits.)
  mutable std::vector<double> penalty_terms_;
  mutable double penalty_target_ = std::numeric_limits<double>::quiet_NaN();

  // LinkGuardian sender-side counts: ToR switches own ToR-fabric links,
  // fabric switches own fabric-spine links.
  std::vector<std::int32_t> lg_per_tor_;     // [pods * tors_per_pod]
  std::vector<std::int32_t> lg_per_fabric_;  // [pods * fabrics_per_pod]
  std::vector<std::int64_t> lg_hist_;        // [max(fabrics, spines) + 1]
  std::int32_t lg_max_ = 0;
  std::int64_t lg_up_links_ = 0;

  std::int64_t disabled_links_ = 0;
};

}  // namespace lgsim::fabric
