// Multi-port store-and-forward switch model.
//
// A `Switch` owns a set of egress ports and a destination-based forwarding
// table. Packets entering through `ingress()` traverse the pipeline latency
// and are enqueued on the egress port their destination maps to. This is
// the building block for multi-hop topologies like the paper's Fig. 7
// testbed (see fig7_topology_test.cc); the single-link experiments use
// the leaner TestbedPath instead.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/packet.h"
#include "net/pipeline.h"
#include "net/port.h"
#include "sim/simulator.h"

namespace lgsim::net {

class Switch {
 public:
  struct PortCfg {
    BitRate rate = gbps(100);
    SimTime prop_delay = nsec(100);
    std::int64_t queue_bytes = 2'000'000;
    std::int64_t ecn_threshold = -1;
  };

  Switch(Simulator& sim, std::string name, SimTime pipeline_latency = nsec(400))
      : sim_(sim),
        name_(std::move(name)),
        pipeline_latency_(pipeline_latency),
        pipe_(sim, pipeline_latency,
              [this](Packet&& p) { forward(std::move(p)); }) {}

  Switch(const Switch&) = delete;
  Switch& operator=(const Switch&) = delete;

  /// Create an egress port; returns its index. The port gets one normal
  /// queue (index 0) configured from `cfg`.
  int add_port(const PortCfg& cfg) {
    auto port = std::make_unique<EgressPort>(
        sim_, name_ + ".p" + std::to_string(ports_.size()), cfg.rate,
        cfg.prop_delay);
    port->add_queue({.byte_limit = cfg.queue_bytes,
                     .ecn_threshold = cfg.ecn_threshold});
    ports_.push_back(std::move(port));
    return static_cast<int>(ports_.size()) - 1;
  }

  EgressPort& port(int i) { return *ports_.at(i); }

  /// Wire an egress port to another node's ingress.
  void connect(int port_idx, std::function<void(Packet&&)> peer_ingress) {
    ports_.at(port_idx)->set_deliver(std::move(peer_ingress));
  }

  /// Route packets destined to node `dst` out of `port_idx`.
  void add_route(std::uint32_t dst, int port_idx) { routes_[dst] = port_idx; }

  /// Default route for destinations with no specific entry (-1 = drop).
  void set_default_route(int port_idx) { default_route_ = port_idx; }

  /// Override the forwarding decision for one egress port (used to splice a
  /// LinkGuardian-protected link into the path: packets routed to that port
  /// go through the protection shim instead of the raw queue).
  void set_egress_override(int port_idx, std::function<void(Packet&&)> fn) {
    overrides_[port_idx] = std::move(fn);
  }

  /// Packet arriving at this switch.
  void ingress(Packet&& p) {
    ++rx_frames_;
    pipe_.accept(std::move(p));
  }

  std::function<void(Packet&&)> ingress_fn() {
    return [this](Packet&& p) { ingress(std::move(p)); };
  }

  std::int64_t rx_frames() const { return rx_frames_; }
  std::int64_t dropped_no_route() const { return dropped_no_route_; }
  const std::string& name() const { return name_; }

 private:
  void forward(Packet&& p) {
    const auto it = routes_.find(p.dst);
    const int out = it != routes_.end() ? it->second : default_route_;
    if (out < 0) {
      ++dropped_no_route_;
      return;
    }
    if (const auto ov = overrides_.find(out); ov != overrides_.end()) {
      ov->second(std::move(p));
      return;
    }
    ports_.at(out)->enqueue(0, std::move(p));
  }

  Simulator& sim_;
  std::string name_;
  SimTime pipeline_latency_;
  PipelineDelay pipe_;  // shared ingress pipeline stage (in-order, pooled)
  std::vector<std::unique_ptr<EgressPort>> ports_;
  std::unordered_map<std::uint32_t, int> routes_;
  std::unordered_map<int, std::function<void(Packet&&)>> overrides_;
  int default_route_ = -1;
  std::int64_t rx_frames_ = 0;
  std::int64_t dropped_no_route_ = 0;
};

}  // namespace lgsim::net
