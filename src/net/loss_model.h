// Per-frame loss processes for corrupting links.
//
// The paper's testbed induces corruption with a Variable Optical Attenuator;
// the receiving MAC drops any frame whose FCS fails. We reproduce the *drop
// process* directly: an i.i.d. Bernoulli model for the common case, and a
// Gilbert-Elliott two-state model to reproduce the measured burstiness of
// consecutive losses (Fig. 20: overwhelmingly single losses, occasionally up
// to ~5 in a row even at unreasonably high loss rates).
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "net/packet.h"
#include "sim/random.h"
#include "util/units.h"

namespace lgsim::net {

class LossModel {
 public:
  virtual ~LossModel() = default;
  /// Returns true if this frame is corrupted (and therefore dropped by the
  /// receiving MAC).
  virtual bool lose(SimTime now, const Packet& p) = 0;
};

/// A loss process whose intensity can be re-aimed while the simulation runs —
/// the time-varying drive API the fault-injection subsystem (src/fault) uses
/// to script link degradation. Two orthogonal controls:
///
///   * drive_rate(r): retarget the marginal loss rate. Takes effect on the
///     next frame rolled; the RNG stream is untouched, so a drive back to the
///     original rate replays the exact same drop decisions a never-driven
///     model would have made from that frame on.
///   * set_link_down(true): administratively/physically dead link — every
///     frame is lost *without consuming an RNG draw*, so flap windows do not
///     shift the loss pattern of the up-time around them.
class DrivableLoss : public LossModel {
 public:
  bool lose(SimTime now, const Packet& p) final {
    if (down_) return true;
    return roll(now, p);
  }

  /// Retarget the marginal per-frame loss rate; next frame sees it.
  virtual void drive_rate(double rate) = 0;
  /// The rate the process is currently aimed at (marginal, link-up).
  virtual double driven_rate() const = 0;

  void set_link_down(bool down) { down_ = down; }
  bool link_down() const { return down_; }

 private:
  virtual bool roll(SimTime now, const Packet& p) = 0;

  bool down_ = false;
};

/// Independent and identically distributed corruption at a fixed rate.
class BernoulliLoss final : public DrivableLoss {
 public:
  BernoulliLoss(double rate, Rng rng) : rate_(rate), rng_(rng) {}

  void set_rate(double rate) { rate_ = rate; }
  double rate() const { return rate_; }

  void drive_rate(double rate) override { rate_ = rate; }
  double driven_rate() const override { return rate_; }

 private:
  bool roll(SimTime, const Packet&) override { return rng_.bernoulli(rate_); }

  double rate_;
  Rng rng_;
};

/// Two-state Gilbert-Elliott model. In the good state frames are lost with
/// probability `loss_good` (usually 0); in the bad state with `loss_bad`.
/// State transitions are evaluated per frame.
class GilbertElliottLoss final : public DrivableLoss {
 public:
  struct Params {
    double p_good_to_bad = 0.0;  // per frame
    double p_bad_to_good = 0.5;
    double loss_good = 0.0;
    double loss_bad = 1.0;
  };

  GilbertElliottLoss(Params params, Rng rng) : params_(params), rng_(rng) {}

  /// Builds parameters yielding average loss `rate` with mean burst length
  /// `mean_burst` (in frames). The stationary fraction of bad-state frames is
  /// rate (with loss_bad = 1), so p_b2g = 1/mean_burst and
  /// p_g2b = rate/( (1-rate) * mean_burst ).
  static Params for_rate(double rate, double mean_burst) {
    Params p;
    p.loss_bad = 1.0;
    p.loss_good = 0.0;
    p.p_bad_to_good = 1.0 / mean_burst;
    p.p_good_to_bad = rate / ((1.0 - rate) * mean_burst);
    return p;
  }

  /// Mid-run re-parameterisation (burst-episode injection): the chain keeps
  /// its current good/bad state and RNG position; the new transition and loss
  /// probabilities apply from the next frame.
  void set_params(Params params) { params_ = params; }
  const Params& params() const { return params_; }

  /// Mean burst length implied by the current parameters (frames).
  double mean_burst() const {
    return params_.p_bad_to_good > 0.0 ? 1.0 / params_.p_bad_to_good : 1.0;
  }

  /// Retarget the marginal loss rate, preserving the burst length. A rate of
  /// 0 pins the chain parameters so it can never enter (and always leaves)
  /// the bad state — the "healthy link before onset" configuration.
  void drive_rate(double rate) override {
    if (rate <= 0.0) {
      params_.p_good_to_bad = 0.0;
      params_.loss_good = 0.0;
      return;
    }
    if (rate >= 1.0) rate = 1.0 - 1e-12;
    params_ = for_rate(rate, mean_burst());
  }

  double driven_rate() const override {
    // Stationary bad fraction x loss_bad + good fraction x loss_good.
    const double g2b = params_.p_good_to_bad;
    const double b2g = params_.p_bad_to_good;
    if (g2b + b2g <= 0.0) return params_.loss_good;
    const double bad_frac = g2b / (g2b + b2g);
    return bad_frac * params_.loss_bad + (1.0 - bad_frac) * params_.loss_good;
  }

  bool in_bad_state() const { return bad_; }

 private:
  bool roll(SimTime, const Packet&) override {
    if (bad_) {
      if (rng_.bernoulli(params_.p_bad_to_good)) bad_ = false;
    } else {
      if (rng_.bernoulli(params_.p_good_to_bad)) bad_ = true;
    }
    return rng_.bernoulli(bad_ ? params_.loss_bad : params_.loss_good);
  }

  Params params_;
  Rng rng_;
  bool bad_ = false;
};

/// Drops the frames whose (0-based) index on the link appears in `indices`.
/// Deterministic; used by protocol unit tests to script exact loss patterns.
/// Indices are sorted once at construction; since the frame counter is
/// monotone, a cursor over the sorted list answers each frame in O(1)
/// amortized (the seed implementation rescanned the whole list per frame).
class ScriptedLoss final : public LossModel {
 public:
  explicit ScriptedLoss(std::vector<std::uint64_t> indices)
      : indices_(std::move(indices)) {
    std::sort(indices_.begin(), indices_.end());
  }

  bool lose(SimTime, const Packet&) override {
    const std::uint64_t i = next_++;
    while (cursor_ < indices_.size() && indices_[cursor_] < i) ++cursor_;
    if (cursor_ < indices_.size() && indices_[cursor_] == i) {
      ++cursor_;
      return true;
    }
    return false;
  }

  std::uint64_t frames_seen() const { return next_; }

 private:
  std::vector<std::uint64_t> indices_;
  std::size_t cursor_ = 0;
  std::uint64_t next_ = 0;
};

}  // namespace lgsim::net
