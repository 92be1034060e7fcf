// FaultInjector: interprets a FaultScript against a live topology.
//
// Targets are registered by name before arm(); arm() schedules one simulator
// event per script entry (plus a self-rescheduling step chain per ramp), so
// fault application rides the same deterministic event order as everything
// else in the run. Unbound targets are counted, not fatal — a scenario
// written for a full control-plane topology can run against a dataplane-only
// cell and simply skip the bus/monitor events.
//
// Every application emits an obs trace record (Cat::kFault / Kind::kInject)
// and appends to an in-memory log, so experiment post-processing can line up
// "what the script did" against "what the protocol measured".
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "fault/script.h"
#include "monitor/corruptd.h"
#include "net/loss_model.h"
#include "sim/simulator.h"
#include "telemetry/probe.h"

namespace lgsim::fault {

class FaultInjector {
 public:
  struct Applied {
    SimTime at = 0;
    FaultKind kind = FaultKind::kBerStep;
    std::string target;
    double value = 0.0;  // kind-specific: rate, ns or on/off
  };

  struct Stats {
    std::int64_t applied = 0;     // script events that found their target
    std::int64_t ramp_steps = 0;  // intermediate ramp re-aims (not logged)
    std::int64_t unbound = 0;     // events whose target was not registered
  };

  FaultInjector(Simulator& sim, FaultScript script);

  /// Target registration. Names are the `target` strings used in the script.
  void add_link(const std::string& name, net::DrivableLoss* loss);
  void add_bus(const std::string& name, monitor::PubSubBus* bus);
  void add_monitor(const std::string& name, monitor::Corruptd* daemon);
  void add_prober(const std::string& name, telemetry::LinkProber* prober);

  /// Schedules the whole script. Call once, after registering targets.
  void arm();

  const std::vector<Applied>& log() const { return log_; }
  const Stats& stats() const { return stats_; }
  const FaultScript& script() const { return script_; }

 private:
  struct RampState {
    std::size_t event = 0;  // index into script_.events()
    std::int64_t k = 0;     // steps taken
    std::int64_t steps = 0; // total steps
  };

  void apply(std::size_t index);
  void end_episode(std::size_t index);
  void ramp_tick(std::size_t ramp_index);
  void apply_rate(const FaultEvent& e, double rate, bool log_it);
  void record(const FaultEvent& e, double value);

  net::DrivableLoss* find_loss(const std::string& name);
  net::GilbertElliottLoss* find_ge(const std::string& name);

  Simulator& sim_;
  FaultScript script_;
  bool armed_ = false;

  std::map<std::string, net::DrivableLoss*> links_;
  std::map<std::string, monitor::PubSubBus*> buses_;
  std::map<std::string, monitor::Corruptd*> monitors_;
  std::map<std::string, telemetry::LinkProber*> probers_;

  // Saved GE parameters for episode restore, keyed by event index.
  std::map<std::size_t, net::GilbertElliottLoss::Params> saved_ge_;
  // Ramp chains need stable addresses while their events are in flight.
  std::vector<RampState> ramps_;

  std::vector<Applied> log_;
  Stats stats_;
  std::uint32_t trace_actor_ = 0;
};

}  // namespace lgsim::fault
