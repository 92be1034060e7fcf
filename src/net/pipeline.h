// Fixed-latency elements modelling switch pipeline traversal.
#pragma once

#include <functional>
#include <utility>

#include "net/packet.h"
#include "net/packet_pool.h"
#include "sim/simulator.h"
#include "util/units.h"

namespace lgsim::net {

/// A fixed processing delay in front of a handler: models the ingress+egress
/// pipeline latency of a store-and-forward switch ASIC. Packets entered here
/// pop out `latency` ns later, in order. In-flight frames park in a
/// free-listed pool so the scheduled closure is two pointers — inside the
/// kernel's inline-callback budget, with zero steady-state allocation.
class PipelineDelay {
 public:
  using Handler = std::function<void(Packet&&)>;

  PipelineDelay(Simulator& sim, SimTime latency, Handler next)
      : sim_(sim), latency_(latency), next_(std::move(next)) {}

  void accept(Packet&& p) {
    Packet* slot = pool_.acquire(std::move(p));
    auto emerge = [this, slot] {
      next_(std::move(*slot));
      pool_.release(slot);
    };
    static_assert(sizeof(emerge) <= sim::InlineCallback::kInlineBytes);
    sim_.schedule_in(latency_, std::move(emerge));
  }

  SimTime latency() const { return latency_; }

 private:
  Simulator& sim_;
  SimTime latency_;
  Handler next_;
  PacketPool pool_;
};

}  // namespace lgsim::net
