#include "fabric/topology.h"

#include <algorithm>
#include <stdexcept>

namespace lgsim::fabric {

namespace {

constexpr double kStaleTerm = std::numeric_limits<double>::quiet_NaN();

void validate(const TopologyConfig& cfg) {
  const auto dim_ok = [](std::int32_t v) { return v >= 1 && v <= kMaxDimension; };
  if (!dim_ok(cfg.pods) || !dim_ok(cfg.tors_per_pod) ||
      !dim_ok(cfg.fabrics_per_pod) || !dim_ok(cfg.spines_per_plane)) {
    throw std::invalid_argument(
        "TopologyConfig: all dimensions must be in [1, 2^20]");
  }
  if (cfg.fabrics_per_pod > kMaxFabricsPerPod) {
    throw std::invalid_argument(
        "TopologyConfig: fabrics_per_pod exceeds kMaxFabricsPerPod (64)");
  }
}

}  // namespace

FabricTopology::FabricTopology(const TopologyConfig& cfg) : cfg_(cfg) {
  validate(cfg);
  tor_fabric_base_ = 0;
  const std::int64_t n_tf = static_cast<std::int64_t>(cfg.pods) *
                            cfg.tors_per_pod * cfg.fabrics_per_pod;
  fabric_spine_base_ = n_tf;
  const std::int64_t n_fs = static_cast<std::int64_t>(cfg.pods) *
                            cfg.fabrics_per_pod * cfg.spines_per_plane;
  links_.resize(n_tf + n_fs);
  state_.assign(links_.size(), kLinkUp);
  for (std::int32_t p = 0; p < cfg.pods; ++p) {
    for (std::int32_t t = 0; t < cfg.tors_per_pod; ++t) {
      for (std::int32_t f = 0; f < cfg.fabrics_per_pod; ++f) {
        Link& l = links_[tor_fabric_link(p, t, f)];
        l.layer = LinkLayer::kTorFabric;
        l.pod = p;
        l.tor = t;
        l.fabric = f;
      }
    }
    for (std::int32_t f = 0; f < cfg.fabrics_per_pod; ++f) {
      for (std::int32_t s = 0; s < cfg.spines_per_plane; ++s) {
        Link& l = links_[fabric_spine_link(p, f, s)];
        l.layer = LinkLayer::kFabricSpine;
        l.pod = p;
        l.fabric = f;
        l.spine = s;
      }
    }
  }

  // All links start up, uncorrupted, unprotected.
  const std::size_t n_pf =
      static_cast<std::size_t>(cfg.pods) * cfg.fabrics_per_pod;
  const std::size_t n_pt =
      static_cast<std::size_t>(cfg.pods) * cfg.tors_per_pod;
  up_spine_.assign(n_pf, cfg.spines_per_plane);
  paths_.assign(n_pt, max_paths_per_tor());
  paths_hist_.assign(static_cast<std::size_t>(max_paths_per_tor()) + 1, 0);
  paths_hist_.back() = static_cast<std::int64_t>(n_pt);
  min_paths_hint_ = max_paths_per_tor();
  layer_up_.resize(static_cast<std::size_t>(cfg.pods) * 2);
  for (std::size_t i = 0; i < layer_up_.size(); i += 2) {
    layer_up_[i] = cfg.tors_per_pod * cfg.fabrics_per_pod;
    layer_up_[i + 1] = cfg.fabrics_per_pod * cfg.spines_per_plane;
  }
  layer_slowed_.assign(layer_up_.size(), 0);
  layer_sum_.assign(layer_up_.begin(), layer_up_.end());
  layer_dirty_.assign(layer_up_.size(), 0);
  pod_cap_.assign(static_cast<std::size_t>(cfg.pods), 1.0);
  lg_per_tor_.assign(n_pt, 0);
  lg_per_fabric_.assign(n_pf, 0);
  lg_hist_.assign(static_cast<std::size_t>(
                      std::max(cfg.fabrics_per_pod, cfg.spines_per_plane)) + 1,
                  0);
  lg_hist_[0] = static_cast<std::int64_t>(n_pt + n_pf);
}

std::int64_t FabricTopology::tor_fabric_link(std::int32_t pod, std::int32_t tor,
                                             std::int32_t fabric) const {
  return tor_fabric_base_ +
         (static_cast<std::int64_t>(pod) * cfg_.tors_per_pod + tor) *
             cfg_.fabrics_per_pod +
         fabric;
}

std::int64_t FabricTopology::fabric_spine_link(std::int32_t pod,
                                               std::int32_t fabric,
                                               std::int32_t spine) const {
  return fabric_spine_base_ +
         (static_cast<std::int64_t>(pod) * cfg_.fabrics_per_pod + fabric) *
             cfg_.spines_per_plane +
         spine;
}

void FabricTopology::apply(const LinkTransition& tr) {
  Link& l = links_[tr.link];
  const Link before = l;
  switch (tr.kind) {
    case LinkTransition::Kind::kCorrupt:
      l.corrupting = true;
      l.loss_rate = tr.loss_rate;
      break;
    case LinkTransition::Kind::kEnableLg:
      l.lg_enabled = true;
      l.effective_speed = tr.effective_speed;
      break;
    case LinkTransition::Kind::kDisableLg:
      l.lg_enabled = false;
      l.effective_speed = 1.0;
      break;
    case LinkTransition::Kind::kDisable:
      l.up = false;
      l.lg_enabled = false;
      l.effective_speed = 1.0;
      break;
    case LinkTransition::Kind::kRepair:
      l.up = true;
      l.corrupting = false;
      l.loss_rate = 0.0;
      l.lg_enabled = false;
      l.effective_speed = 1.0;
      break;
  }
  state_[tr.link] = static_cast<std::uint8_t>(
      (l.up ? kLinkUp : 0) | (l.corrupting ? kLinkCorrupting : 0));
  reconcile(tr.link, before, l);
}

void FabricTopology::shift_tor_paths(std::int32_t pod, std::int32_t tor,
                                     std::int64_t delta) {
  if (delta == 0) return;
  std::int64_t& p = paths_[static_cast<std::size_t>(pod) * cfg_.tors_per_pod + tor];
  --paths_hist_[static_cast<std::size_t>(p)];
  p += delta;
  ++paths_hist_[static_cast<std::size_t>(p)];
  if (p < min_paths_hint_) min_paths_hint_ = p;
}

void FabricTopology::bump_lg_switch_count(std::int32_t* slot,
                                          std::int32_t delta) {
  --lg_hist_[static_cast<std::size_t>(*slot)];
  *slot += delta;
  ++lg_hist_[static_cast<std::size_t>(*slot)];
  if (*slot > lg_max_) lg_max_ = *slot;
  while (lg_max_ > 0 && lg_hist_[static_cast<std::size_t>(lg_max_)] == 0)
    --lg_max_;
}

void FabricTopology::reconcile(std::int64_t id, const Link& before,
                               const Link& after) {
  const std::int32_t p = after.pod;

  if (before.up != after.up) {
    const std::int64_t sign = after.up ? 1 : -1;
    disabled_links_ -= sign;
    if (after.layer == LinkLayer::kTorFabric) {
      // This ToR gains/loses all paths through the link's fabric plane.
      shift_tor_paths(p, after.tor,
                      sign * up_spine_links(p, after.fabric));
    } else {
      // Every ToR of the pod with an up link to this fabric switch
      // gains/loses one path.
      up_spine_[static_cast<std::size_t>(p) * cfg_.fabrics_per_pod +
                after.fabric] += static_cast<std::int32_t>(sign);
      for (std::int32_t t = 0; t < cfg_.tors_per_pod; ++t) {
        if (state_[tor_fabric_link(p, t, after.fabric)] & kLinkUp)
          shift_tor_paths(p, t, sign);
      }
    }
  }

  const bool was_counted = before.up && before.corrupting;
  const bool now_counted = after.up && after.corrupting;
  const bool term_changed = was_counted && now_counted &&
                            (before.loss_rate != after.loss_rate ||
                             before.lg_enabled != after.lg_enabled);
  if (was_counted != now_counted || term_changed) {
    const auto it =
        std::lower_bound(corrupting_up_.begin(), corrupting_up_.end(), id);
    const auto term = penalty_terms_.begin() + (it - corrupting_up_.begin());
    if (term_changed) {
      *term = kStaleTerm;
    } else if (now_counted) {
      corrupting_up_.insert(it, id);
      penalty_terms_.insert(term, kStaleTerm);
    } else {
      corrupting_up_.erase(it);
      penalty_terms_.erase(term);
    }
  }

  const bool was_lg = before.up && before.lg_enabled;
  const bool now_lg = after.up && after.lg_enabled;
  if (was_lg != now_lg) {
    const std::int32_t delta = now_lg ? 1 : -1;
    lg_up_links_ += delta;
    // Corruption is unidirectional: the protecting sender is the ToR for
    // ToR-fabric links, the fabric switch for fabric-spine links.
    std::int32_t* slot =
        after.layer == LinkLayer::kTorFabric
            ? &lg_per_tor_[static_cast<std::size_t>(p) * cfg_.tors_per_pod +
                           after.tor]
            : &lg_per_fabric_[static_cast<std::size_t>(p) *
                                  cfg_.fabrics_per_pod +
                              after.fabric];
    bump_lg_switch_count(slot, delta);
  }

  if (before.up != after.up ||
      before.effective_speed != after.effective_speed) {
    const std::size_t layer = static_cast<std::size_t>(p) * 2 +
                              static_cast<std::size_t>(after.layer);
    layer_up_[layer] += static_cast<std::int32_t>(after.up) - before.up;
    layer_slowed_[layer] +=
        static_cast<std::int32_t>(after.up && after.effective_speed != 1.0) -
        (before.up && before.effective_speed != 1.0);
    if (!layer_dirty_[layer]) {
      layer_dirty_[layer] = 1;
      dirty_layers_.push_back(layer);
    }
  }
}

double FabricTopology::least_paths_per_tor_frac() const {
  while (paths_hist_[static_cast<std::size_t>(min_paths_hint_)] == 0)
    ++min_paths_hint_;
  // min(x_i / M) == min(x_i) / M: division by a positive constant is
  // monotone, so this matches the naive per-ToR divide-then-min bit for bit.
  return static_cast<double>(min_paths_hint_) /
         static_cast<double>(max_paths_per_tor());
}

bool FabricTopology::can_disable(std::int64_t link_id, double constraint) const {
  const Link& l = links_[link_id];
  if (!l.up) return true;
  const double max_paths = static_cast<double>(max_paths_per_tor());

  if (l.layer == LinkLayer::kTorFabric) {
    // Only this ToR is affected: it loses up_spine_links(pod, fabric) paths.
    const std::int64_t paths =
        paths_per_tor(l.pod, l.tor) - up_spine_links(l.pod, l.fabric);
    return static_cast<double>(paths) / max_paths >= constraint;
  }
  // Fabric-spine: every ToR of the pod connected to this fabric switch loses
  // one path through it.
  for (std::int32_t t = 0; t < cfg_.tors_per_pod; ++t) {
    const std::int64_t paths =
        paths_per_tor(l.pod, t) -
        (state_[tor_fabric_link(l.pod, t, l.fabric)] & kLinkUp);
    if (static_cast<double>(paths) / max_paths < constraint) return false;
  }
  return true;
}

double FabricTopology::layer_speed_sum(std::size_t layer) const {
  // Up links all at 1.0: the ordered scan would add k copies of 1.0 to +0.0,
  // which is exactly k.
  if (layer_slowed_[layer] == 0) return layer_up_[layer];
  const auto p = static_cast<std::int32_t>(layer / 2);
  double sum = 0.0;
  if (static_cast<LinkLayer>(layer % 2) == LinkLayer::kTorFabric) {
    for (std::int32_t t = 0; t < cfg_.tors_per_pod; ++t) {
      for (std::int32_t f = 0; f < cfg_.fabrics_per_pod; ++f) {
        const Link& l = links_[tor_fabric_link(p, t, f)];
        if (l.up) sum += l.effective_speed;
      }
    }
  } else {
    for (std::int32_t f = 0; f < cfg_.fabrics_per_pod; ++f) {
      for (std::int32_t s = 0; s < cfg_.spines_per_plane; ++s) {
        const Link& l = links_[fabric_spine_link(p, f, s)];
        if (l.up) sum += l.effective_speed;
      }
    }
  }
  return sum;
}

double FabricTopology::least_capacity_per_pod_frac() const {
  for (const std::size_t layer : dirty_layers_) {
    layer_sum_[layer] = layer_speed_sum(layer);
    layer_dirty_[layer] = 0;
  }
  const double nominal_tf =
      static_cast<double>(cfg_.tors_per_pod) * cfg_.fabrics_per_pod;
  const double nominal_fs =
      static_cast<double>(cfg_.fabrics_per_pod) * cfg_.spines_per_plane;
  for (const std::size_t layer : dirty_layers_) {
    const std::size_t p = layer / 2;
    // ToR->spine capacity is bounded by the thinner layer.
    pod_cap_[p] = std::min(layer_sum_[2 * p] / nominal_tf,
                           layer_sum_[2 * p + 1] / nominal_fs);
  }
  dirty_layers_.clear();
  double least = 1.0;
  for (const double cap : pod_cap_) least = std::min(least, cap);
  return least;
}

double FabricTopology::total_penalty(double lg_target_loss) const {
  if (lg_target_loss != penalty_target_) {
    std::fill(penalty_terms_.begin(), penalty_terms_.end(), kStaleTerm);
    penalty_target_ = lg_target_loss;
  }
  double penalty = 0.0;
  // Ascending link id == the naive full scan's summation order, and each
  // cached term is the very double link_penalty() returns, so the
  // floating-point result is bit-identical.
  for (std::size_t i = 0; i < corrupting_up_.size(); ++i) {
    double& term = penalty_terms_[i];
    if (std::isnan(term))
      term = link_penalty(links_[corrupting_up_[i]], lg_target_loss);
    penalty += term;
  }
  return penalty;
}

}  // namespace lgsim::fabric
