#include "fault/injector.h"

#include <algorithm>
#include <cmath>

#include "obs/trace.h"

namespace lgsim::fault {

namespace {

// Trace payloads are integers; scale per value domain so small magnitudes
// survive: loss rates in parts-per-billion, delays already in ns, booleans
// as-is.
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

FaultInjector::FaultInjector(Simulator& sim, FaultScript script)
    : sim_(sim),
      script_(std::move(script)),
      trace_actor_(obs::intern_actor("fault-injector")) {}

void FaultInjector::add_link(const std::string& name, net::DrivableLoss* loss) {
  links_[name] = loss;
}

void FaultInjector::add_bus(const std::string& name, monitor::PubSubBus* bus) {
  buses_[name] = bus;
}

void FaultInjector::add_monitor(const std::string& name,
                                monitor::Corruptd* daemon) {
  monitors_[name] = daemon;
}

void FaultInjector::add_prober(const std::string& name,
                               telemetry::LinkProber* prober) {
  probers_[name] = prober;
}

void FaultInjector::arm() {
  if (armed_) return;
  armed_ = true;
  script_.stable_sort_by_time();
  const auto& events = script_.events();
  // One ramp slot per ramp event, sized up front so step chains can index
  // into a vector that never reallocates under them.
  std::size_t n_ramps = 0;
  for (const FaultEvent& e : events)
    if (e.kind == FaultKind::kBerRamp) ++n_ramps;
  ramps_.reserve(n_ramps);
  for (std::size_t i = 0; i < events.size(); ++i)
    sim_.schedule_at(events[i].at, [this, i] { apply(i); });
}

net::DrivableLoss* FaultInjector::find_loss(const std::string& name) {
  auto it = links_.find(name);
  return it == links_.end() ? nullptr : it->second;
}

net::GilbertElliottLoss* FaultInjector::find_ge(const std::string& name) {
  return dynamic_cast<net::GilbertElliottLoss*>(find_loss(name));
}

void FaultInjector::record(const FaultEvent& e, double value) {
  ++stats_.applied;
  log_.push_back({sim_.now(), e.kind, e.target, value});
  obs::emit(sim_.now(), obs::Cat::kFault, obs::Kind::kInject, trace_actor_,
            trace_value(e.kind, value), 0,
            static_cast<std::uint16_t>(e.kind));
}

void FaultInjector::apply_rate(const FaultEvent& e, double rate, bool log_it) {
  net::DrivableLoss* loss = find_loss(e.target);
  if (loss == nullptr) {
    ++stats_.unbound;
    return;
  }
  loss->drive_rate(rate);
  if (log_it) {
    record(e, rate);
  } else {
    ++stats_.ramp_steps;
    obs::emit(sim_.now(), obs::Cat::kFault, obs::Kind::kInject, trace_actor_,
              trace_value(e.kind, rate), 1, static_cast<std::uint16_t>(e.kind));
  }
}

void FaultInjector::ramp_tick(std::size_t ramp_index) {
  RampState& r = ramps_[ramp_index];
  const FaultEvent& e = script_.events()[r.event];
  const double f =
      static_cast<double>(r.k) / static_cast<double>(r.steps);
  double v;
  if (r.k >= r.steps) {
    v = e.b;  // land exactly on the endpoint, no float drift
  } else if (e.shape == RampShape::kLog && e.a > 0.0 && e.b > 0.0) {
    v = std::exp(std::log(e.a) + (std::log(e.b) - std::log(e.a)) * f);
  } else {
    v = e.a + (e.b - e.a) * f;
  }
  apply_rate(e, v, /*log_it=*/r.k == 0 || r.k >= r.steps);
  if (r.k >= r.steps) return;
  ++r.k;
  sim_.schedule_in(e.step, [this, ramp_index] { ramp_tick(ramp_index); });
}

void FaultInjector::apply(std::size_t index) {
  const FaultEvent& e = script_.events()[index];
  switch (e.kind) {
    case FaultKind::kBerStep:
      apply_rate(e, e.a, /*log_it=*/true);
      break;
    case FaultKind::kBerRamp: {
      if (e.duration <= 0 || e.step <= 0) {
        // Degenerate ramp: a single step straight to the endpoint.
        apply_rate(e, e.b, true);
        break;
      }
      const std::int64_t steps = std::max<std::int64_t>(1, e.duration / e.step);
      ramps_.push_back({index, 0, steps});
      ramp_tick(ramps_.size() - 1);
      break;
    }
    case FaultKind::kGilbertEpisode: {
      net::GilbertElliottLoss* ge = find_ge(e.target);
      if (ge == nullptr) {
        ++stats_.unbound;
        break;
      }
      saved_ge_[index] = ge->params();
      ge->set_params(e.ge);
      record(e, ge->driven_rate());
      sim_.schedule_in(e.duration, [this, index] { end_episode(index); });
      break;
    }
    case FaultKind::kLinkDown:
    case FaultKind::kLinkUp: {
      net::DrivableLoss* loss = find_loss(e.target);
      if (loss == nullptr) {
        ++stats_.unbound;
        break;
      }
      const bool down = e.kind == FaultKind::kLinkDown;
      loss->set_link_down(down);
      record(e, down ? 1.0 : 0.0);
      break;
    }
    case FaultKind::kBusDelay: {
      auto it = buses_.find(e.target);
      if (it == buses_.end()) {
        ++stats_.unbound;
        break;
      }
      it->second->set_extra_delay(static_cast<SimTime>(e.a));
      record(e, e.a);
      break;
    }
    case FaultKind::kBusOutageStart:
    case FaultKind::kBusOutageEnd: {
      auto it = buses_.find(e.target);
      if (it == buses_.end()) {
        ++stats_.unbound;
        break;
      }
      const bool on = e.kind == FaultKind::kBusOutageStart;
      it->second->set_drop(on);
      record(e, on ? 1.0 : 0.0);
      break;
    }
    case FaultKind::kPollStallStart:
    case FaultKind::kPollStallEnd: {
      auto it = monitors_.find(e.target);
      if (it == monitors_.end()) {
        ++stats_.unbound;
        break;
      }
      const bool on = e.kind == FaultKind::kPollStallStart;
      it->second->set_counter_stall(on);
      record(e, on ? 1.0 : 0.0);
      break;
    }
    case FaultKind::kProbeStallStart:
    case FaultKind::kProbeStallEnd: {
      auto it = probers_.find(e.target);
      if (it == probers_.end()) {
        ++stats_.unbound;
        break;
      }
      const bool on = e.kind == FaultKind::kProbeStallStart;
      it->second->set_stalled(on);
      record(e, on ? 1.0 : 0.0);
      break;
    }
  }
}

void FaultInjector::end_episode(std::size_t index) {
  const FaultEvent& e = script_.events()[index];
  net::GilbertElliottLoss* ge = find_ge(e.target);
  auto it = saved_ge_.find(index);
  if (ge == nullptr || it == saved_ge_.end()) return;
  ge->set_params(it->second);
  record(e, ge->driven_rate());
}

}  // namespace lgsim::fault
