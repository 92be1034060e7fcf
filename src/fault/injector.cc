#include "fault/injector.h"

#include <algorithm>
#include <cmath>

#include "obs/trace.h"

namespace lgsim::fault {

namespace {

// Trace payloads are integers; scale per value domain so small magnitudes
// survive: loss rates in parts-per-billion, booleans as-is.
std::int64_t trace_value(FaultKind kind, double value) {
  switch (kind) {
    case FaultKind::kBerStep:
    case FaultKind::kBerRamp:
    case FaultKind::kGilbertEpisode:
      return static_cast<std::int64_t>(value * 1e9);
    default:
      return static_cast<std::int64_t>(value);
  }
}

}  // namespace

FaultInjector::FaultInjector(Simulator& sim, FaultScript script,
                             FaultTargets targets)
    : sim_(sim),
      script_(std::move(script)),
      targets_(targets),
      trace_actor_(obs::intern_actor("fault-injector")) {
  script_.stable_sort_by_time();
  for (const FaultEvent& e : script_.events())
    sim_.schedule_at(e.at, [this, &e] { apply(e); });
}

void FaultInjector::record(const FaultEvent& e, double value) {
  ++stats_.applied;
  obs::emit(sim_.now(), obs::Cat::kFault, obs::Kind::kInject, trace_actor_,
            trace_value(e.kind, value), 0,
            static_cast<std::uint16_t>(e.kind));
}

void FaultInjector::ramp_tick(const FaultEvent& e, std::int64_t k,
                              std::int64_t steps) {
  const double f = static_cast<double>(k) / static_cast<double>(steps);
  double v;
  if (k >= steps) {
    v = e.b;  // land exactly on the endpoint, no float drift
  } else if (e.a > 0.0 && e.b > 0.0) {
    v = std::exp(std::log(e.a) + (std::log(e.b) - std::log(e.a)) * f);
  } else {
    v = e.a + (e.b - e.a) * f;  // log-linear is undefined at a 0 endpoint
  }
  targets_.link->drive_rate(v);
  if (k == 0 || k >= steps) {
    record(e, v);
  } else {
    ++stats_.ramp_steps;
    obs::emit(sim_.now(), obs::Cat::kFault, obs::Kind::kInject, trace_actor_,
              trace_value(e.kind, v), 1, static_cast<std::uint16_t>(e.kind));
  }
  if (k >= steps) return;
  sim_.schedule_in(e.step,
                   [this, &e, k, steps] { ramp_tick(e, k + 1, steps); });
}

void FaultInjector::apply(const FaultEvent& e) {
  // A null target counts the event as unbound and skips it.
  const auto bound = [this](const void* target) {
    if (target == nullptr) ++stats_.unbound;
    return target != nullptr;
  };
  switch (e.kind) {
    case FaultKind::kBerStep:
      if (!bound(targets_.link)) break;
      targets_.link->drive_rate(e.a);
      record(e, e.a);
      break;
    case FaultKind::kBerRamp:
      if (!bound(targets_.link)) break;
      if (e.duration <= 0 || e.step <= 0) {
        // Degenerate ramp: a single step straight to the endpoint.
        targets_.link->drive_rate(e.b);
        record(e, e.b);
        break;
      }
      ramp_tick(e, 0, std::max<std::int64_t>(1, e.duration / e.step));
      break;
    case FaultKind::kGilbertEpisode: {
      auto* ge = dynamic_cast<net::GilbertElliottLoss*>(targets_.link);
      if (!bound(ge)) break;
      const net::GilbertElliottLoss::Params saved = ge->params();
      ge->set_params(e.ge);
      record(e, ge->driven_rate());
      sim_.schedule_in(e.duration, [this, &e, ge, saved] {
        ge->set_params(saved);
        record(e, ge->driven_rate());
      });
      break;
    }
    case FaultKind::kLinkDown:
    case FaultKind::kLinkUp: {
      if (!bound(targets_.link)) break;
      const bool down = e.kind == FaultKind::kLinkDown;
      targets_.link->set_link_down(down);
      record(e, down ? 1.0 : 0.0);
      break;
    }
    case FaultKind::kBusOutageStart:
    case FaultKind::kBusOutageEnd: {
      if (!bound(targets_.bus)) break;
      const bool on = e.kind == FaultKind::kBusOutageStart;
      targets_.bus->set_drop(on);
      record(e, on ? 1.0 : 0.0);
      break;
    }
    case FaultKind::kPollStallStart:
    case FaultKind::kPollStallEnd: {
      if (!bound(targets_.monitor)) break;
      const bool on = e.kind == FaultKind::kPollStallStart;
      targets_.monitor->set_counter_stall(on);
      record(e, on ? 1.0 : 0.0);
      break;
    }
    case FaultKind::kProbeStallStart:
    case FaultKind::kProbeStallEnd: {
      if (!bound(targets_.prober)) break;
      const bool on = e.kind == FaultKind::kProbeStallStart;
      targets_.prober->set_stalled(on);
      record(e, on ? 1.0 : 0.0);
      break;
    }
  }
}

}  // namespace lgsim::fault
