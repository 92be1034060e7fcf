#include "corropt/corropt.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <queue>
#include <stdexcept>
#include <string>

namespace lgsim::corropt {

const std::vector<LossBucket>& table1_buckets() {
  static const std::vector<LossBucket> kBuckets = {
      {1e-8, 1e-5, 0.4723},
      {1e-5, 1e-4, 0.1843},
      {1e-4, 1e-3, 0.2166},
      {1e-3, 1e-1, 0.1267},  // "[1e-3+)": cap at 10% loss
  };
  return kBuckets;
}

double sample_loss_rate(Rng& rng) {
  const auto& buckets = table1_buckets();
  // The Table 1 fractions sum to 0.9999 (the paper rounds to four digits);
  // without normalization ~1e-4 of all draws would skip every bucket and
  // land on the hard cap below instead of a log-uniform draw.
  static const double total = [] {
    double t = 0.0;
    for (const auto& b : table1_buckets()) t += b.fraction;
    return t;
  }();
  double u = rng.uniform() * total;
  for (const auto& b : buckets) {
    if (u < b.fraction) {
      // Log-uniform within the bucket.
      const double f = rng.uniform();
      return std::exp(std::log(b.lo) + f * (std::log(b.hi) - std::log(b.lo)));
    }
    u -= b.fraction;
  }
  // Unreachable barring floating-point rounding on the final subtraction.
  return buckets.back().hi;
}

namespace {

/// Decorrelates per-link RNG streams from one base seed (SplitMix64
/// finalizer over base + link). Each link's failure/loss draws are a fixed
/// function of (base, link) — independent of how many events other links
/// produced, so the trace does not depend on the order links are drawn in.
std::uint64_t per_link_seed(std::uint64_t base, std::int64_t link) {
  std::uint64_t z =
      base + 0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(link) + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

CorruptionStream::CorruptionStream(std::int64_t n_links, double duration_hours,
                                   double mttf_hours, Rng& rng) {
  // Negated comparisons, so NaN is rejected too.
  if (!(mttf_hours > 0))
    throw std::invalid_argument("CorruptionStream: mttf_hours must be > 0");
  if (!(duration_hours >= 0 && std::isfinite(duration_hours)))
    throw std::invalid_argument(
        "CorruptionStream: duration_hours must be finite and >= 0");
  const std::uint64_t base = rng.next_u64();
  for (std::int64_t l = 0; l < n_links; ++l) {
    // Weibull with shape 1 (Appendix D, Eq. 3): memoryless inter-failure
    // times with mean MTTF. A link can fail repeatedly within the horizon;
    // subsequent failures only matter once it has been repaired, which the
    // deployment simulation enforces.
    Rng link_rng(per_link_seed(base, l));
    for (double t = link_rng.weibull(1.0, mttf_hours); t < duration_hours;
         t += link_rng.weibull(1.0, mttf_hours)) {
      events_.push_back({t, l, sample_loss_rate(link_rng)});
    }
  }
  // Drawn link-major, so a stable sort keeps one link's equal-time events
  // in draw order.
  std::stable_sort(events_.begin(), events_.end(),
                   [](const CorruptionEvent& a, const CorruptionEvent& b) {
                     if (a.time_hours != b.time_hours)
                       return a.time_hours < b.time_hours;
                     return a.link < b.link;
                   });
}

std::vector<CorruptionEvent> generate_trace(std::int64_t n_links,
                                            double duration_hours,
                                            double mttf_hours, Rng& rng) {
  CorruptionStream stream(n_links, duration_hours, mttf_hours, rng);
  std::vector<CorruptionEvent> trace;
  while (!stream.done()) trace.push_back(stream.pop());
  return trace;
}

double lg_effective_speed(double loss_rate) {
  // Fig. 8, ordered LinkGuardian on a 100G link: ~99.9% at 1e-5, ~99.5% at
  // 1e-4, ~92% at 1e-3; extrapolate mildly beyond.
  if (loss_rate <= 1e-5) return 0.999;
  if (loss_rate <= 1e-4) return 0.995;
  if (loss_rate <= 1e-3) return 0.92;
  return 0.85;
}

namespace {

struct RepairEvent {
  double time_hours;
  std::int64_t link;
  bool operator>(const RepairEvent& o) const { return time_hours > o.time_hours; }
};

/// Links of one pod waiting for an optimizer pass (corrupting but not
/// disablable yet), kept ordered by (loss_rate desc, link asc) — the greedy
/// optimizer's consideration order — with one binary-search insertion per
/// admitted link and an in-place stable compaction per pass. (A heap would be
/// strictly worse here: every pass must visit *all* entries in order, which a
/// heap only yields by popping and re-pushing the survivors.)
///
/// run_deployment keeps one backlog per pod and a repair re-optimizes only
/// the repaired link's pod. That is exact, not an approximation:
/// `can_disable(X)` reads only the path counts of X's pod and the up state of
/// that pod's ToR-fabric links, and both link layers are pod-local. A repair
/// in pod q only raises pod-q path counts, a disable only lowers its own
/// pod's, and kCorrupt/kEnableLg touch none. So every waiting link fails
/// `can_disable` after each event, and a full pass over all pods at a repair
/// in pod q would disable exactly the pod-q entries, in the same relative
/// order — the repair-duration draws happen in the same order too.
class ActiveCorrupting {
 public:
  struct Entry {
    double loss_rate;
    std::int64_t link;
  };

  void insert(double loss_rate, std::int64_t link) {
    const Entry e{loss_rate, link};
    entries_.insert(std::upper_bound(entries_.begin(), entries_.end(), e,
                                     [](const Entry& a, const Entry& b) {
                                       if (a.loss_rate != b.loss_rate)
                                         return a.loss_rate > b.loss_rate;
                                       return a.link < b.link;
                                     }),
                    e);
  }

  /// Calls `disable(link)` for each entry it should drop (in order); keeps
  /// the rest, preserving order.
  template <typename Pred, typename Disable>
  void drop_if(Pred pred, Disable disable) {
    std::size_t kept = 0;
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if (pred(entries_[i].link)) {
        disable(entries_[i].link);
      } else {
        entries_[kept++] = entries_[i];
      }
    }
    entries_.resize(kept);
  }

 private:
  std::vector<Entry> entries_;
};

/// Rejects configs the main loop cannot run: a period or MTTF that is not
/// positive never advances time (the sample list grows until memory runs
/// out, or one link re-fails at the same instant forever), and an infinite
/// horizon never ends. The negated comparisons also reject NaN.
void validate(const DeploymentConfig& cfg) {
  const auto fail = [](const char* what) {
    throw std::invalid_argument(std::string("DeploymentConfig: ") + what);
  };
  if (!(cfg.sample_period_hours > 0)) fail("sample_period_hours must be > 0");
  if (!(cfg.mttf_hours > 0)) fail("mttf_hours must be > 0");
  if (!(cfg.duration_hours >= 0 && std::isfinite(cfg.duration_hours)))
    fail("duration_hours must be finite and >= 0");
  if (!(cfg.capacity_constraint >= 0 && cfg.capacity_constraint <= 1))
    fail("capacity_constraint must be in [0, 1]");
  if (!(cfg.repair_fast_fraction >= 0 && cfg.repair_fast_fraction <= 1))
    fail("repair_fast_fraction must be in [0, 1]");
  if (!(cfg.repair_fast_hours >= 0) || !(cfg.repair_slow_hours >= 0))
    fail("repair times must be >= 0");
}

}  // namespace

DeploymentResult run_deployment(const DeploymentConfig& cfg) {
  validate(cfg);
  DeploymentResult res;
  res.cfg = cfg;

  using fabric::LinkTransition;
  fabric::FabricTopology topo(cfg.topo);
  Rng rng(cfg.seed);
  Rng repair_rng = rng.split();
  CorruptionStream stream(topo.n_links(), cfg.duration_hours, cfg.mttf_hours,
                          rng);

  std::priority_queue<RepairEvent, std::vector<RepairEvent>, std::greater<>>
      repairs;
  std::vector<ActiveCorrupting> active_corrupting(
      static_cast<std::size_t>(cfg.topo.pods));

  auto repair_duration = [&]() {
    return repair_rng.bernoulli(cfg.repair_fast_fraction) ? cfg.repair_fast_hours
                                                          : cfg.repair_slow_hours;
  };

  auto disable_link = [&](std::int64_t id, double now) {
    topo.apply({LinkTransition::Kind::kDisable, id});
    repairs.push({now + repair_duration(), id});
  };

  auto start_corruption = [&](const CorruptionEvent& ev) {
    const auto& l = topo.link(ev.link);
    if (!l.up || l.corrupting) return;  // already down or already corrupting
    topo.apply({LinkTransition::Kind::kCorrupt, ev.link, ev.loss_rate});
    if (cfg.use_linkguardian) {
      // §3.6: activate LinkGuardian immediately, then try to disable.
      topo.apply({LinkTransition::Kind::kEnableLg, ev.link, 0.0,
                  lg_effective_speed(ev.loss_rate)});
    }
    if (topo.can_disable(ev.link, cfg.capacity_constraint)) {
      ++res.disabled_immediately;
      disable_link(ev.link, ev.time_hours);
    } else {
      ++res.kept_active;
      active_corrupting[static_cast<std::size_t>(l.pod)].insert(ev.loss_rate,
                                                                ev.link);
    }
  };

  auto run_optimizer = [&](std::int32_t pod, double now) {
    // Greedy CorrOpt optimizer: consider the pod's remaining corrupting links
    // in decreasing loss-rate order and disable whatever now fits.
    active_corrupting[static_cast<std::size_t>(pod)].drop_if(
        [&](std::int64_t id) {
          return topo.can_disable(id, cfg.capacity_constraint);
        },
        [&](std::int64_t id) {
          ++res.disabled_by_optimizer;
          disable_link(id, now);
        });
  };

  // Main loop: merge the corruption stream, repair completions, and periodic
  // metric sampling in time order.
  double next_sample = cfg.sample_period_hours;
  double now = 0.0;
  while (now < cfg.duration_hours) {
    const double t_trace = !stream.done() ? stream.next_time_hours() : 1e18;
    const double t_repair = !repairs.empty() ? repairs.top().time_hours : 1e18;
    const double t_next = std::min({t_trace, t_repair, next_sample});
    if (t_next >= cfg.duration_hours) break;
    now = t_next;
    if (t_next == t_trace) {
      ++res.corruption_events;
      start_corruption(stream.pop());
    } else if (t_next == t_repair) {
      const auto ev = repairs.top();
      repairs.pop();
      topo.apply({LinkTransition::Kind::kRepair, ev.link});
      // A repaired link returning is CorrOpt's trigger to re-optimize; only
      // its pod can have gained disablable links (see ActiveCorrupting).
      run_optimizer(topo.link(ev.link).pod, now);
    } else {
      DeploymentSample s;
      s.time_hours = now;
      s.total_penalty = topo.total_penalty(cfg.lg_target_loss);
      s.least_paths_frac = topo.least_paths_per_tor_frac();
      s.least_capacity_frac = topo.least_capacity_per_pod_frac();
      s.corrupting_links = static_cast<std::int32_t>(topo.corrupting_up_links());
      s.disabled_links = static_cast<std::int32_t>(topo.disabled_links());
      s.lg_links = static_cast<std::int32_t>(topo.lg_up_links());
      res.max_lg_per_switch =
          std::max(res.max_lg_per_switch, topo.max_lg_links_per_switch());
      res.samples.push_back(s);
      next_sample += cfg.sample_period_hours;
    }
  }
  return res;
}

}  // namespace lgsim::corropt
