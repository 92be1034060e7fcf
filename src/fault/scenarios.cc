#include "fault/scenarios.h"

#include <stdexcept>

namespace lgsim::fault {

namespace {

// The catalogue is tuned for the lifecycle harness defaults: a 25G link
// (~2 Mfps at MTU), 1 ms corruptd polls, millisecond-scale control plane.
// Onset rates sit well above the detection threshold so a single poll window
// after onset is enough to detect.

// Healthy link suddenly corrupting at 1e-3: detection -> live LinkGuardian
// switchover, zero loss after protection engages.
Scenario onset() {
  Scenario s;
  s.name = "onset";
  s.script.ber_step(msec(20), 1e-3);
  s.onset = msec(20);
  s.horizon = msec(100);
  return s;
}

// Log-linear degradation 1e-5 -> 3e-2 then recovery: drives AutoFallback
// ordered -> NB -> off and back up with hysteresis.
Scenario ramp() {
  Scenario s;
  s.name = "ramp";
  s.script.ber_ramp(msec(10), 1e-5, 3e-2, msec(40), msec(2));
  s.script.ber_ramp(msec(60), 3e-2, 1e-5, msec(40), msec(2));
  s.onset = msec(10);
  s.horizon = msec(130);
  return s;
}

// Low-rate corruption plus three hard down/up flaps: stresses era switchover
// and mass loss recovery under an already-protected link.
Scenario flap_storm() {
  Scenario s;
  s.name = "flap-storm";
  s.script.ber_step(msec(5), 2e-4);
  s.script.link_flap(msec(30), msec(2));
  s.script.link_flap(msec(45), msec(1));
  s.script.link_flap(msec(60), msec(3));
  s.onset = msec(5);
  s.horizon = msec(95);
  return s;
}

// Gilbert-Elliott burst window (mean burst 4 frames, avg 5e-3) on an
// otherwise healthy link, then restoration.
Scenario burst_episode() {
  Scenario s;
  s.name = "burst-episode";
  s.script.gilbert_episode(
      msec(20), net::GilbertElliottLoss::for_rate(5e-3, /*mean_burst=*/4.0),
      msec(30));
  s.onset = msec(20);
  s.horizon = msec(100);
  return s;
}

// Corruption onset inside a counter-poll stall window: detection is delayed
// until the driver responds again (blind-interval latency).
Scenario monitor_blind() {
  Scenario s;
  s.name = "monitor-blind";
  s.script.poll_stall(msec(15), msec(30));
  s.script.ber_step(msec(20), 1e-3);
  s.onset = msec(20);
  s.horizon = msec(120);
  return s;
}

// Corruption onset during a pub-sub outage: the first notification is
// dropped; corruptd's renotify timer engages protection after recovery.
Scenario bus_outage() {
  Scenario s;
  s.name = "bus-outage";
  s.script.bus_outage(msec(15), msec(25));
  s.script.ber_step(msec(20), 1e-3);
  s.onset = msec(20);
  s.horizon = msec(120);
  return s;
}

// Corruption onset while the telemetry prober is wedged: the estimator goes
// evidence-blind (unknown, not 0%) and detection waits for the probe stream
// to resume. Oracle-fed runs have no prober, so the stall is unbound there
// and this degenerates to a plain onset.
Scenario probe_outage() {
  Scenario s;
  s.name = "probe-outage";
  s.script.probe_stall(msec(15), msec(30));
  s.script.ber_step(msec(20), 1e-3);
  s.onset = msec(20);
  s.horizon = msec(120);
  return s;
}

}  // namespace

Scenario make_scenario(const std::string& name) {
  if (name == "onset") return onset();
  if (name == "ramp") return ramp();
  if (name == "flap-storm") return flap_storm();
  if (name == "burst-episode") return burst_episode();
  if (name == "monitor-blind") return monitor_blind();
  if (name == "bus-outage") return bus_outage();
  if (name == "probe-outage") return probe_outage();
  throw std::invalid_argument("unknown fault scenario: " + name);
}

std::vector<std::string> scenario_names() {
  return {"onset",         "ramp",          "flap-storm",   "burst-episode",
          "monitor-blind", "bus-outage",    "probe-outage"};
}

}  // namespace lgsim::fault
