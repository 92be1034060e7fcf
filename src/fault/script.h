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
#include <stdexcept>
#include <string>
#include <vector>

#include "net/loss_model.h"
#include "util/units.h"

namespace lgsim::fault {

/// Trace records carry static_cast<uint16_t>(kind), so the values are part
/// of the trace format and never renumber (2, 3 and 7 are unassigned).
enum class FaultKind : std::uint8_t {
  kBerStep = 0,     // set the link's marginal loss rate to `a`
  kBerRamp = 1,     // ramp loss rate a -> b over `duration`, every `step`
  kGilbertEpisode = 4,  // Gilbert-Elliott burst window: `ge` for `duration`
  kLinkDown,        // link flap: every frame lost until kLinkUp
  kLinkUp,
  kBusOutageStart = 8,  // notifications published in the window are dropped
  kBusOutageEnd,
  kPollStallStart,  // corruptd's counter polls return nothing (blind window)
  kPollStallEnd,
  kProbeStallStart, // the link prober's emission engine wedges (seq freezes)
  kProbeStallEnd,
};

/// One timeline entry. The kind picks the injector target it acts on (the
/// link's loss process, the pub-sub bus, the corruptd daemon or the link
/// prober; see FaultTargets); payload fields are kind-specific and
/// documented on the FaultScript builders.
struct FaultEvent {
  SimTime at = 0;
  FaultKind kind = FaultKind::kBerStep;
  double a = 0.0;
  double b = 0.0;
  SimTime duration = 0;
  SimTime step = 0;
  net::GilbertElliottLoss::Params ge{};
};

/// Builder for fault timelines. Events may be appended in any order; the
/// injector sorts them stably by time, so same-time events apply in append
/// order (the same (time, sequence) contract the event kernel gives).
///
/// Every builder throws std::invalid_argument on a negative time, duration
/// or step, a loss rate outside [0, 1] (NaN included) or Gilbert-Elliott
/// parameters outside [0, 1]. A zero duration or step is valid: a ramp then
/// degenerates to a single step to its endpoint.
class FaultScript {
 public:
  /// Step the link's marginal loss rate to `rate` at `at`.
  FaultScript& ber_step(SimTime at, double rate) {
    FaultEvent e = event(at, FaultKind::kBerStep);
    e.a = check_rate(rate, "rate");
    events_.push_back(e);
    return *this;
  }

  /// Ramp the link's loss rate from `from` to `to` over `duration`,
  /// re-aiming every `step`. The ramp is log-linear (corrosion and connector
  /// contamination degrade BER over decades, not linearly), and linear when
  /// an endpoint is 0.
  FaultScript& ber_ramp(SimTime at, double from, double to, SimTime duration,
                        SimTime step) {
    FaultEvent e = event(at, FaultKind::kBerRamp);
    e.a = check_rate(from, "from");
    e.b = check_rate(to, "to");
    e.duration = check_span(duration, "duration");
    e.step = check_span(step, "step");
    events_.push_back(e);
    return *this;
  }

  /// Gilbert-Elliott burst episode: the link's GE model is re-parameterised
  /// to `params` for `duration`, then restored to whatever it had before.
  FaultScript& gilbert_episode(SimTime at,
                               net::GilbertElliottLoss::Params params,
                               SimTime duration) {
    for (double p : {params.p_good_to_bad, params.p_bad_to_good,
                     params.loss_good, params.loss_bad})
      check_rate(p, "ge");
    FaultEvent e = event(at, FaultKind::kGilbertEpisode);
    e.duration = check_span(duration, "duration");
    e.ge = params;
    events_.push_back(e);
    return *this;
  }

  /// Link flap: hard-down at `at`, back up `down_for` later. Down frames are
  /// lost without consuming RNG draws, so the surrounding loss pattern is
  /// unshifted (see net::DrivableLoss).
  FaultScript& link_flap(SimTime at, SimTime down_for) {
    return window(at, down_for, FaultKind::kLinkDown, FaultKind::kLinkUp);
  }

  /// Notification outage window on the bus: everything published in
  /// [at, at + duration) is dropped.
  FaultScript& bus_outage(SimTime at, SimTime duration) {
    return window(at, duration, FaultKind::kBusOutageStart,
                  FaultKind::kBusOutageEnd);
  }

  /// Monitor-blind window on the corruptd daemon: counter polls in
  /// [at, at + duration) return nothing.
  FaultScript& poll_stall(SimTime at, SimTime duration) {
    return window(at, duration, FaultKind::kPollStallStart,
                  FaultKind::kPollStallEnd);
  }

  /// Probe-engine stall on the link prober: in [at, at + duration) the
  /// prober's timer fires but nothing is emitted and its sequence number
  /// freezes — the estimator downstream must neither divide by zero nor
  /// report the silence as 100% loss forever (telemetry/estimator.h).
  FaultScript& probe_stall(SimTime at, SimTime duration) {
    return window(at, duration, FaultKind::kProbeStallStart,
                  FaultKind::kProbeStallEnd);
  }

  const std::vector<FaultEvent>& events() const { return events_; }

  /// Stable sort by application time; same-time events keep append order.
  /// The injector calls this once, before it schedules anything, and holds
  /// events by address from then on.
  void stable_sort_by_time() {
    std::stable_sort(events_.begin(), events_.end(),
                     [](const FaultEvent& x, const FaultEvent& y) {
                       return x.at < y.at;
                     });
  }
  bool empty() const { return events_.empty(); }
  std::size_t size() const { return events_.size(); }

 private:
  static FaultEvent event(SimTime at, FaultKind kind) {
    FaultEvent e;
    e.at = check_span(at, "at");
    e.kind = kind;
    return e;
  }

  static SimTime check_span(SimTime t, const char* what) {
    if (t < 0)
      throw std::invalid_argument(std::string("fault script: negative ") +
                                  what);
    return t;
  }

  static double check_rate(double p, const char* what) {
    if (!(p >= 0.0 && p <= 1.0))
      throw std::invalid_argument(std::string("fault script: ") + what +
                                  " outside [0, 1]");
    return p;
  }

  /// A start/end pair: `on` at `at`, `off` at `at + duration`.
  FaultScript& window(SimTime at, SimTime duration, FaultKind on,
                      FaultKind off) {
    check_span(duration, "duration");
    events_.push_back(event(at, on));
    events_.push_back(event(at + duration, off));
    return *this;
  }

  std::vector<FaultEvent> events_;
};

}  // namespace lgsim::fault
