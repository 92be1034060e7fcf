// Protection-scheme abstraction: the per-scheme knobs a link-reliability
// design plugs into a path.
//
// The paper compares LinkGuardian against Wharf (link-local FEC); the repo
// additionally reproduces RIFL (link-layer retransmission, arXiv 2309.08696)
// and P4-Protect-style 1+1 path duplication (arXiv 2001.11370). All of them
// reduce to the same three knobs at path level:
//
//   * capacity fraction — what share of the protected link's line rate is
//     left for traffic once the scheme's redundancy is paid (Wharf's parity
//     frames, RIFL's framing + retransmissions; 1 for schemes whose cost is
//     provisioned elsewhere),
//   * residual loss process — the loss process traffic experiences after the
//     scheme's recovery, wrapped around the link's raw corruption process,
//   * added latency — the fixed one-way latency of the scheme's framing /
//     merge logic.
//
// plus one accounting knob, provisioned_capacity_x: how much total link
// capacity the scheme consumes per unit of traffic capacity (2 for 1+1
// duplication across disjoint paths — its tax is a second link, not a slower
// one). Benches print it next to goodput so "wins at high loss" can be read
// together with "at twice the provisioning".
//
// Concrete schemes live with their models: wharf::WharfScheme (src/wharf),
// rifl::RiflScheme (src/rifl), protect::OnePlusOneScheme (src/protect).
#pragma once

#include <memory>

#include "net/loss_model.h"
#include "sim/random.h"
#include "util/units.h"

namespace lgsim::net {

/// Specification of a link's raw corruption process: enough to construct the
/// drivable loss model a scheme wraps, and to size rate-dependent scheme
/// parameters (Wharf picks its block geometry per loss rate).
struct LossSpec {
  enum class Kind { kBernoulli, kGilbertElliott };
  Kind kind = Kind::kBernoulli;
  /// Marginal per-frame loss rate (0 = healthy link).
  double rate = 0.0;
  /// Mean bad-burst length in frames (Gilbert-Elliott only).
  double mean_burst = 1.0;
  std::uint64_t seed = 5;

  std::unique_ptr<DrivableLoss> build() const {
    if (kind == Kind::kGilbertElliott)
      return std::make_unique<GilbertElliottLoss>(
          rate > 0.0 ? GilbertElliottLoss::for_rate(rate, mean_burst)
                     : GilbertElliottLoss::Params{0.0, 1.0, 0.0, 1.0},
          Rng(seed));
    return std::make_unique<BernoulliLoss>(rate, Rng(seed));
  }

  const char* kind_name() const {
    return kind == Kind::kGilbertElliott ? "ge" : "bernoulli";
  }
};

/// A scheme's residual loss process plus the handle to the raw drivable
/// process buried inside it. Fault scripts and corruptd drive `raw` (the
/// fiber's corruption level); the link rolls `model` (what survives the
/// scheme's recovery). For an unprotected link the two coincide.
struct ResidualLoss {
  std::unique_ptr<LossModel> model;
  /// Owned by (or equal to) `model`; never null.
  DrivableLoss* raw = nullptr;
};

class ProtectionScheme {
 public:
  virtual ~ProtectionScheme() = default;

  virtual const char* name() const = 0;

  /// Fraction of the protected link's line rate available to traffic under
  /// the given raw process (redundancy + recovery bandwidth tax).
  virtual double capacity_fraction(const LossSpec& raw) const = 0;

  /// Total link capacity provisioned per unit of traffic capacity.
  virtual double provisioned_capacity_x(const LossSpec& raw) const {
    const double f = capacity_fraction(raw);
    return f > 0.0 ? 1.0 / f : 0.0;
  }

  /// Fixed one-way latency the scheme adds to every delivered frame.
  virtual SimTime added_latency() const { return 0; }

  /// Builds the residual loss process around a raw process constructed from
  /// `raw` (each scheme owns its seed discipline for any auxiliary
  /// randomness, e.g. the disjoint path of 1+1).
  virtual ResidualLoss residual(const LossSpec& raw) const = 0;
};

/// No protection: raw capacity, raw loss process, no latency.
class Unprotected final : public ProtectionScheme {
 public:
  const char* name() const override { return "none"; }
  double capacity_fraction(const LossSpec&) const override { return 1.0; }
  ResidualLoss residual(const LossSpec& raw) const override {
    auto model = raw.build();
    DrivableLoss* handle = model.get();
    return ResidualLoss{std::move(model), handle};
  }
};

}  // namespace lgsim::net
