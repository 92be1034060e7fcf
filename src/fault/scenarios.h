// Named fault-scenario catalogue (see EXPERIMENTS.md §"Fault scenarios").
//
// Each scenario is a FaultScript plus the metadata an experiment needs to
// interpret it: the corruption onset time (the reference point for detection
// latency) and a suggested run horizon. All
// scripts address the canonical single-link lifecycle topology through the
// injector's FaultTargets (the corrupting link's loss process, the corruptd
// pub-sub bus and daemon, the link prober); scenarios that don't use a
// target simply leave it untouched.
#pragma once

#include <string>
#include <vector>

#include "fault/script.h"

namespace lgsim::fault {

struct Scenario {
  std::string name;
  FaultScript script;
  /// When corruption starts (detection latency = detected_at - onset).
  SimTime onset = 0;
  /// Suggested traffic/run horizon covering the whole script plus recovery.
  SimTime horizon = 0;
};

/// Builds a catalogue scenario by name; throws std::invalid_argument for an
/// unknown name. Names: "onset", "ramp", "flap-storm", "burst-episode",
/// "monitor-blind", "bus-outage", "probe-outage".
Scenario make_scenario(const std::string& name);

/// All catalogue names, in presentation order.
std::vector<std::string> scenario_names();

}  // namespace lgsim::fault
