#include "corropt/reference.h"

#include <algorithm>
#include <cstring>
#include <functional>
#include <queue>
#include <vector>

#include "fabric/naive_metrics.h"

namespace lgsim::corropt {

DeploymentResult reference_deployment(const DeploymentConfig& cfg) {
  using fabric::NaiveFabricMetrics;
  using Kind = fabric::LinkTransition::Kind;
  DeploymentResult res;
  res.cfg = cfg;
  fabric::FabricTopology topo(cfg.topo);
  Rng rng(cfg.seed);
  Rng repair_rng = rng.split();
  CorruptionStream stream(topo.n_links(), cfg.duration_hours, cfg.mttf_hours,
                          rng);
  struct Repair {
    double time_hours;
    std::int64_t link;
    bool operator>(const Repair& o) const { return time_hours > o.time_hours; }
  };
  std::priority_queue<Repair, std::vector<Repair>, std::greater<>> repairs;
  struct Active {
    double loss_rate;
    std::int64_t link;
  };
  std::vector<Active> active;

  auto disable = [&](std::int64_t id, double now) {
    topo.apply({Kind::kDisable, id});
    const double d = repair_rng.bernoulli(cfg.repair_fast_fraction)
                         ? cfg.repair_fast_hours
                         : cfg.repair_slow_hours;
    repairs.push({now + d, id});
  };

  double next_sample = cfg.sample_period_hours;
  for (double now = 0.0; now < cfg.duration_hours;) {
    const double t_trace = !stream.done() ? stream.next_time_hours() : 1e18;
    const double t_repair = !repairs.empty() ? repairs.top().time_hours : 1e18;
    const double t_next = std::min({t_trace, t_repair, next_sample});
    if (t_next >= cfg.duration_hours) break;
    now = t_next;
    if (t_next == t_trace) {
      ++res.corruption_events;
      const CorruptionEvent ev = stream.pop();
      const fabric::Link& l = topo.link(ev.link);
      if (!l.up || l.corrupting) continue;
      topo.apply({Kind::kCorrupt, ev.link, ev.loss_rate});
      if (cfg.use_linkguardian) {
        topo.apply({Kind::kEnableLg, ev.link, 0.0,
                    lg_effective_speed(ev.loss_rate)});
      }
      if (topo.can_disable(ev.link, cfg.capacity_constraint)) {
        ++res.disabled_immediately;
        disable(ev.link, ev.time_hours);
      } else {
        ++res.kept_active;
        const Active a{ev.loss_rate, ev.link};
        active.insert(std::upper_bound(active.begin(), active.end(), a,
                                       [](const Active& x, const Active& y) {
                                         if (x.loss_rate != y.loss_rate)
                                           return x.loss_rate > y.loss_rate;
                                         return x.link < y.link;
                                       }),
                      a);
      }
    } else if (t_next == t_repair) {
      const Repair ev = repairs.top();
      repairs.pop();
      topo.apply({Kind::kRepair, ev.link});
      std::size_t kept = 0;
      for (const Active& a : active) {
        if (topo.can_disable(a.link, cfg.capacity_constraint)) {
          ++res.disabled_by_optimizer;
          disable(a.link, now);
        } else {
          active[kept++] = a;
        }
      }
      active.resize(kept);
    } else {
      // Full O(links) scans per sample.
      DeploymentSample s{};
      s.time_hours = now;
      s.total_penalty = NaiveFabricMetrics::total_penalty(topo, cfg.lg_target_loss);
      s.least_paths_frac = NaiveFabricMetrics::least_paths_per_tor_frac(topo);
      s.least_capacity_frac = NaiveFabricMetrics::least_capacity_per_pod_frac(topo);
      for (std::int64_t i = 0; i < topo.n_links(); ++i) {
        const fabric::Link& l = topo.link(i);
        if (!l.up) ++s.disabled_links;
        if (l.up && l.corrupting) ++s.corrupting_links;
        if (l.up && l.lg_enabled) ++s.lg_links;
      }
      res.max_lg_per_switch = std::max(
          res.max_lg_per_switch, NaiveFabricMetrics::max_lg_links_per_switch(topo));
      res.samples.push_back(s);
      next_sample += cfg.sample_period_hours;
    }
  }
  return res;
}

bool bit_identical(const DeploymentResult& a, const DeploymentResult& b) {
  const auto same = [](double x, double y) {
    return std::memcmp(&x, &y, sizeof x) == 0;
  };
  if (a.corruption_events != b.corruption_events ||
      a.disabled_immediately != b.disabled_immediately ||
      a.kept_active != b.kept_active ||
      a.disabled_by_optimizer != b.disabled_by_optimizer ||
      a.max_lg_per_switch != b.max_lg_per_switch ||
      a.samples.size() != b.samples.size())
    return false;
  for (std::size_t i = 0; i < a.samples.size(); ++i) {
    const DeploymentSample& x = a.samples[i];
    const DeploymentSample& y = b.samples[i];
    if (!same(x.time_hours, y.time_hours) ||
        !same(x.total_penalty, y.total_penalty) ||
        !same(x.least_paths_frac, y.least_paths_frac) ||
        !same(x.least_capacity_frac, y.least_capacity_frac) ||
        x.corrupting_links != y.corrupting_links ||
        x.disabled_links != y.disabled_links || x.lg_links != y.lg_links)
      return false;
  }
  return true;
}

}  // namespace lgsim::corropt
