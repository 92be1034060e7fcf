// Fault scenarios as data: a FaultScript is an ordered timeline of typed
// fault events, interpreted by a FaultInjector (injector.h) that schedules
// every application through the run's own Simulator. The paper's end-to-end
// story is dynamic — a link *starts* corrupting, corruptd detects it
// (Appendix C), LinkGuardian is enabled live (§3.6), automatic fallback
// steps protection down if the link degrades past the Table 1 regime (§5) —
// and this is the input format that makes those time-varying faults a
// first-class, deterministic experiment parameter.
//
// Determinism contract: a script is pure data (no RNG, no wall clock); the
// injector applies every event at an exact SimTime on the cell's simulator,
// so a {script, seed} pair reproduces byte-identically for any
// LGSIM_BENCH_JOBS value (see DESIGN.md §10).
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "net/loss_model.h"
#include "util/units.h"

namespace lgsim::fault {

/// Trace records carry static_cast<uint16_t>(kind), so the values are part
/// of the trace format and never renumber (2 and 3 are unassigned).
enum class FaultKind : std::uint8_t {
  kBerStep = 0,     // set the link's marginal loss rate to `a`
  kBerRamp = 1,     // ramp loss rate a -> b over `duration`, every `step`
  kGilbertEpisode = 4,  // Gilbert-Elliott burst window: `ge` for `duration`
  kLinkDown,        // link flap: every frame lost until kLinkUp
  kLinkUp,
  kBusDelay,        // inject `a` ns of extra control-plane latency
  kBusOutageStart,  // notifications published in the window are dropped
  kBusOutageEnd,
  kPollStallStart,  // corruptd's counter polls return nothing (blind window)
  kPollStallEnd,
  kProbeStallStart, // the link prober's emission engine wedges (seq freezes)
  kProbeStallEnd,
};

/// How a ramp interpolates between its endpoints. Loss rates span decades,
/// so the physical default for BER ramps is log-linear (a fiber degrading
/// "one decade per interval").
enum class RampShape : std::uint8_t { kLinear, kLog };

/// One timeline entry. `target` names a handle registered with the injector
/// (a link's loss model, a PubSubBus, a Corruptd daemon, a LinkProber);
/// payload fields are kind-specific and documented on the FaultScript
/// builders.
struct FaultEvent {
  SimTime at = 0;
  FaultKind kind = FaultKind::kBerStep;
  std::string target;
  double a = 0.0;
  double b = 0.0;
  SimTime duration = 0;
  SimTime step = 0;
  RampShape shape = RampShape::kLinear;
  net::GilbertElliottLoss::Params ge{};
};

/// Builder for fault timelines. Events may be appended in any order; the
/// injector sorts them stably by time, so same-time events apply in append
/// order (the same (time, sequence) contract the event kernel gives).
class FaultScript {
 public:
  /// Step the marginal loss rate of link `target` to `rate` at `at`.
  FaultScript& ber_step(SimTime at, std::string target, double rate) {
    FaultEvent e;
    e.at = at;
    e.kind = FaultKind::kBerStep;
    e.target = std::move(target);
    e.a = rate;
    events_.push_back(std::move(e));
    return *this;
  }

  /// Ramp the loss rate of `target` from `from` to `to` over `duration`,
  /// re-aiming every `step` (log-linear by default: corrosion and connector
  /// contamination degrade BER over decades, not linearly).
  FaultScript& ber_ramp(SimTime at, std::string target, double from, double to,
                        SimTime duration, SimTime step,
                        RampShape shape = RampShape::kLog) {
    FaultEvent e;
    e.at = at;
    e.kind = FaultKind::kBerRamp;
    e.target = std::move(target);
    e.a = from;
    e.b = to;
    e.duration = duration;
    e.step = step;
    e.shape = shape;
    events_.push_back(std::move(e));
    return *this;
  }

  /// Gilbert-Elliott burst episode: the link's GE model is re-parameterised
  /// to `params` for `duration`, then restored to whatever it had before.
  FaultScript& gilbert_episode(SimTime at, std::string target,
                               net::GilbertElliottLoss::Params params,
                               SimTime duration) {
    FaultEvent e;
    e.at = at;
    e.kind = FaultKind::kGilbertEpisode;
    e.target = std::move(target);
    e.duration = duration;
    e.ge = params;
    events_.push_back(std::move(e));
    return *this;
  }

  /// Link flap: hard-down at `at`, back up `down_for` later. Down frames are
  /// lost without consuming RNG draws, so the surrounding loss pattern is
  /// unshifted (see net::DrivableLoss).
  FaultScript& link_flap(SimTime at, std::string target, SimTime down_for) {
    FaultEvent d;
    d.at = at;
    d.kind = FaultKind::kLinkDown;
    d.target = target;
    events_.push_back(std::move(d));
    FaultEvent u;
    u.at = at + down_for;
    u.kind = FaultKind::kLinkUp;
    u.target = std::move(target);
    events_.push_back(std::move(u));
    return *this;
  }

  /// Inject `extra` ns of control-plane latency on bus `target` from `at`.
  FaultScript& bus_delay(SimTime at, std::string target, SimTime extra) {
    FaultEvent e;
    e.at = at;
    e.kind = FaultKind::kBusDelay;
    e.target = std::move(target);
    e.a = static_cast<double>(extra);
    events_.push_back(std::move(e));
    return *this;
  }

  /// Notification outage window on bus `target`: everything published in
  /// [at, at + duration) is dropped.
  FaultScript& bus_outage(SimTime at, std::string target, SimTime duration) {
    FaultEvent s;
    s.at = at;
    s.kind = FaultKind::kBusOutageStart;
    s.target = target;
    events_.push_back(std::move(s));
    FaultEvent e;
    e.at = at + duration;
    e.kind = FaultKind::kBusOutageEnd;
    e.target = std::move(target);
    events_.push_back(std::move(e));
    return *this;
  }

  /// Monitor-blind window on daemon `target`: counter polls in
  /// [at, at + duration) return nothing.
  FaultScript& poll_stall(SimTime at, std::string target, SimTime duration) {
    FaultEvent s;
    s.at = at;
    s.kind = FaultKind::kPollStallStart;
    s.target = target;
    events_.push_back(std::move(s));
    FaultEvent e;
    e.at = at + duration;
    e.kind = FaultKind::kPollStallEnd;
    e.target = std::move(target);
    events_.push_back(std::move(e));
    return *this;
  }

  /// Probe-engine stall on prober `target`: in [at, at + duration) the
  /// prober's timer fires but nothing is emitted and its sequence number
  /// freezes — the estimator downstream must neither divide by zero nor
  /// report the silence as 100% loss forever (telemetry/estimator.h).
  FaultScript& probe_stall(SimTime at, std::string target, SimTime duration) {
    FaultEvent s;
    s.at = at;
    s.kind = FaultKind::kProbeStallStart;
    s.target = target;
    events_.push_back(std::move(s));
    FaultEvent e;
    e.at = at + duration;
    e.kind = FaultKind::kProbeStallEnd;
    e.target = std::move(target);
    events_.push_back(std::move(e));
    return *this;
  }

  const std::vector<FaultEvent>& events() const { return events_; }

  /// Stable sort by application time; same-time events keep append order.
  /// The injector calls this once in arm() so event indices are stable for
  /// the whole run.
  void stable_sort_by_time() {
    std::stable_sort(events_.begin(), events_.end(),
                     [](const FaultEvent& x, const FaultEvent& y) {
                       return x.at < y.at;
                     });
  }
  bool empty() const { return events_.empty(); }
  std::size_t size() const { return events_.size(); }

  /// Latest event application time (ramp tails included) — the minimum
  /// horizon a run needs to see the whole script.
  SimTime end_time() const {
    SimTime end = 0;
    for (const FaultEvent& e : events_) {
      const SimTime t = e.at + e.duration;
      if (t > end) end = t;
    }
    return end;
  }

 private:
  std::vector<FaultEvent> events_;
};

}  // namespace lgsim::fault
