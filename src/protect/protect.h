// 1+1 path protection baseline (P4-Protect, arXiv 2001.11370).
//
// P4-Protect [Lindner et al.] secures traffic between two nodes by sending
// every packet twice, over two disjoint paths, inside a tunneling header
// that carries a sequence number. The merge point forwards the first copy
// of each sequence number and drops the second. Protection is proactive:
// there is no failure detection and no recovery latency — a corrupted copy
// on one path is masked instantly by its twin on the other — at the price
// of permanently consuming twice the fabric capacity (and a dedup lookup at
// the merge point).
//
// Two fidelity levels, differentially tested against each other:
//   * OnePlusOnePath — packet-level: a replication point stamping tunnel
//     sequence numbers, two disjoint simulated links with independent loss
//     processes (optionally skewed in latency), and a SeqDedup filter at
//     the merge point.
//   * TwoPathLoss — the residual collapsed to a loss process (a frame is
//     lost only if both copies are corrupted), for driving a TestbedPath at
//     goodput-sweep scale.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "net/loss_model.h"
#include "net/packet.h"
#include "net/pipeline.h"
#include "net/port.h"
#include "net/protection.h"
#include "sim/simulator.h"
#include "util/units.h"

namespace lgsim::protect {

/// Tunnel-header bytes the replication point adds (sequence number + type,
/// per P4-Protect's 1+1 header).
inline constexpr std::int32_t kDupHeaderBytes = 4;

struct ProtectParams {
  /// Extra one-way latency of the protection path relative to the working
  /// path (0 = equal-cost disjoint paths, the datacenter deployment; the
  /// merge then preserves order).
  SimTime path_skew = 0;
  /// Dedup lookup / tunnel decap latency at the merge point.
  SimTime merge_latency = nsec(50);
  /// Raw corruption rate of the protection path (the working path's process
  /// is scripted/driven; the disjoint path has its own independent one).
  double secondary_rate = 0.0;
  /// Seed offset for the protection path's loss process, so the two paths
  /// draw from independent streams of the same grid seed.
  std::uint64_t secondary_seed_offset = 0x9e3779b9;
  /// Merge-point dedup window in sequence numbers (rounded up to a power of
  /// two; must exceed the worst-case reorder span between the two paths).
  int dedup_window = 8192;
};

/// Wraparound-safe duplicate filter over a 16-bit sequence space: remembers
/// the last `window` sequence numbers relative to the highest seen. accept()
/// returns true exactly once per sequence number within the window;
/// sequence numbers older than the window are reported as duplicates (the
/// conservative direction for a dedup point: never deliver twice).
class SeqDedup {
 public:
  explicit SeqDedup(int window);

  bool accept(std::uint16_t seq);

  std::int64_t accepted() const { return accepted_; }
  std::int64_t duplicates() const { return duplicates_; }
  int window() const { return static_cast<int>(seen_.size()); }

 private:
  std::size_t pos(std::uint16_t seq) const {
    return seq & (seen_.size() - 1);
  }

  std::vector<bool> seen_;  // power-of-two ring indexed by seq & (size-1)
  std::uint16_t head_ = 0;  // highest sequence number observed
  bool any_ = false;
  std::int64_t accepted_ = 0;
  std::int64_t duplicates_ = 0;
};

struct OnePlusOneCounters {
  std::int64_t sent = 0;        // frames entered at the replication point
  std::int64_t delivered = 0;   // first copies forwarded by the merge
  std::int64_t dup_dropped = 0; // second copies dropped by the merge

  /// Frames whose copies were both corrupted. Valid once the element has
  /// drained (no copies in flight on either path).
  std::int64_t lost_both() const { return sent - delivered; }
};

/// Packet-level 1+1 element: replicate -> two disjoint lossy links -> merge.
class OnePlusOnePath {
 public:
  using SinkFn = std::function<void(net::Packet&&)>;

  OnePlusOnePath(Simulator& sim, ProtectParams params, BitRate rate,
                 SimTime prop_delay);

  /// Install the working / protection paths' corruption processes (owned).
  void set_loss_model_a(std::unique_ptr<net::LossModel> m);
  void set_loss_model_b(std::unique_ptr<net::LossModel> m);

  void send(net::Packet p);
  void set_sink(SinkFn fn) { sink_ = std::move(fn); }

  const OnePlusOneCounters& counters() const { return counters_; }
  const SeqDedup& dedup() const { return dedup_; }
  net::EgressPort& path_a() { return path_a_; }
  net::EgressPort& path_b() { return path_b_; }

 private:
  void on_merge_arrival(net::Packet&& p);

  Simulator& sim_;
  ProtectParams params_;
  net::EgressPort path_a_;  // working path
  net::EgressPort path_b_;  // disjoint protection path (prop + skew)
  int qa_ = 0, qb_ = 0;
  std::unique_ptr<net::LossModel> loss_a_;
  std::unique_ptr<net::LossModel> loss_b_;
  SeqDedup dedup_;
  net::PipelineDelay merge_;  // dedup/decap latency before the sink
  std::uint16_t next_seq_ = 0;
  SinkFn sink_;
  OnePlusOneCounters counters_;
};

/// The 1+1 residual as a loss process: a frame is lost only if both copies
/// are corrupted. Both paths are rolled for every frame (no short-circuit),
/// so each path's RNG stream stays frame-indexed and independent of the
/// other path's outcomes — the same property the packet-level element has.
class TwoPathLoss final : public net::LossModel {
 public:
  TwoPathLoss(std::unique_ptr<net::DrivableLoss> a,
              std::unique_ptr<net::DrivableLoss> b)
      : a_(std::move(a)), b_(std::move(b)) {}

  bool lose(SimTime now, const net::Packet& p) override {
    const bool lost_a = a_->lose(now, p);
    const bool lost_b = b_->lose(now, p);
    return lost_a && lost_b;
  }

  net::DrivableLoss* path_a() { return a_.get(); }
  net::DrivableLoss* path_b() { return b_.get(); }

 private:
  std::unique_ptr<net::DrivableLoss> a_;
  std::unique_ptr<net::DrivableLoss> b_;
};

/// 1+1 duplication as a pluggable protection scheme. Traffic runs at full
/// line rate on each of the two disjoint paths (capacity_fraction 1), the
/// tax shows up as provisioned_capacity_x == 2; fault scripts drive the
/// working path's process (ResidualLoss::raw), the protection path keeps
/// its own independent background process.
class OnePlusOneScheme final : public net::ProtectionScheme {
 public:
  explicit OnePlusOneScheme(ProtectParams params = {}) : params_(params) {}

  const char* name() const override { return "1+1"; }

  double capacity_fraction(const net::LossSpec&) const override { return 1.0; }
  double provisioned_capacity_x(const net::LossSpec&) const override {
    return 2.0;
  }
  SimTime added_latency() const override { return params_.merge_latency; }

  net::ResidualLoss residual(const net::LossSpec& raw) const override {
    net::LossSpec secondary = raw;
    secondary.rate = params_.secondary_rate;
    secondary.seed = raw.seed ^ params_.secondary_seed_offset;
    auto model = std::make_unique<TwoPathLoss>(raw.build(), secondary.build());
    net::DrivableLoss* handle = model->path_a();
    return net::ResidualLoss{std::move(model), handle};
  }

  const ProtectParams& params() const { return params_; }

 private:
  ProtectParams params_;
};

}  // namespace lgsim::protect
