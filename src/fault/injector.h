// FaultInjector: interprets a FaultScript against a live topology.
//
// The constructor takes the script's targets as one FaultTargets struct and
// schedules one simulator event per script entry (plus a self-rescheduling
// step chain per ramp), so fault application rides the same deterministic
// event order as everything else in the run. A null target is counted, not
// fatal — a scenario written for a full control-plane topology can run
// against a dataplane-only cell and simply skip the bus/monitor events.
//
// Every application emits an obs trace record (Cat::kFault / Kind::kInject),
// so experiment post-processing can line up "what the script did" against
// "what the protocol measured".
#pragma once

#include <cstdint>

#include "fault/script.h"
#include "monitor/corruptd.h"
#include "net/loss_model.h"
#include "sim/simulator.h"
#include "telemetry/probe.h"

namespace lgsim::fault {

/// What a script acts on. The event kind picks the target: link events
/// drive `link` (a GE episode needs it to be a net::GilbertElliottLoss),
/// bus outages `bus`, poll stalls `monitor`, probe stalls `prober`.
struct FaultTargets {
  net::DrivableLoss* link = nullptr;
  monitor::PubSubBus* bus = nullptr;
  monitor::Corruptd* monitor = nullptr;
  telemetry::LinkProber* prober = nullptr;
};

class FaultInjector {
 public:
  struct Stats {
    std::int64_t applied = 0;     // script events that found their target
    std::int64_t ramp_steps = 0;  // intermediate ramp re-aims
    std::int64_t unbound = 0;     // events whose target was null
  };

  /// Sorts the script by time and schedules all of it on `sim`. The
  /// scheduled events hold this injector and its events by address, so it
  /// must outlive the run and is neither copied nor moved.
  FaultInjector(Simulator& sim, FaultScript script, FaultTargets targets);
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  const Stats& stats() const { return stats_; }

 private:
  void apply(const FaultEvent& e);
  void ramp_tick(const FaultEvent& e, std::int64_t k, std::int64_t steps);
  void record(const FaultEvent& e, double value);

  Simulator& sim_;
  FaultScript script_;
  FaultTargets targets_;
  Stats stats_;
  std::uint32_t trace_actor_ = 0;
};

}  // namespace lgsim::fault
