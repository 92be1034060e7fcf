// Testbed path model: hostA -> swS -> (protected link) -> swR -> hostB.
//
// Reproduces the data path the paper's FCT experiments traverse (h4 -> sw2
// -> VOA link -> sw6 -> h8 in Fig. 7, collapsed to the segments that affect
// timing): endpoint NIC serialization, switch pipeline latencies, the
// corrupting link with optional LinkGuardian protection, and a fixed
// per-endpoint host-stack delay that calibrates the ~30 us TCP RTT (~2 us
// for NIC-terminated RDMA).
#pragma once

#include <functional>
#include <memory>

#include "lg/link.h"
#include "net/packet.h"
#include "net/pipeline.h"
#include "net/port.h"
#include "net/protection.h"
#include "sim/simulator.h"

namespace lgsim::transport {

/// Switch ingress/egress pipeline latency per traversal.
inline constexpr SimTime kPipelineLatency = nsec(400);
/// Host NIC to switch propagation.
inline constexpr SimTime kNicProp = nsec(100);
/// Host NIC / qdisc queue budget (BQL-style bound).
inline constexpr std::int64_t kNicQueueBytes = 4'000'000;

struct PathConfig {
  BitRate rate = gbps(100);
  /// Per-endpoint processing delay applied on packet receive (host stack for
  /// kernel TCP; DMA/doorbell for RDMA NICs).
  SimTime host_delay = usec(12);
  lg::LinkSpec link;
  lg::LgConfig lg;
};

/// Applies a protection scheme's path-level knobs to a config: the scheme's
/// redundancy shrinks the protected link's usable rate by its capacity
/// fraction under the given raw process, and its framing/merge pipeline adds
/// to the link's one-way latency. The residual loss process is installed
/// separately (the caller owns it and may want the raw handle for fault
/// scripts): `path.link().set_loss_model(residual.model.get())`.
inline PathConfig with_protection(PathConfig pc,
                                  const net::ProtectionScheme& scheme,
                                  const net::LossSpec& raw) {
  pc.link.rate = static_cast<BitRate>(static_cast<double>(pc.link.rate) *
                                      scheme.capacity_fraction(raw));
  pc.link.prop_delay += scheme.added_latency();
  return pc;
}

class TestbedPath {
 public:
  using SinkFn = std::function<void(net::Packet&&)>;

  TestbedPath(Simulator& sim, const PathConfig& cfg)
      : sim_(sim),
        cfg_(cfg),
        link_(sim, cfg.link, cfg.lg),
        nic_a_(sim, "nicA", cfg.rate, kNicProp),
        nic_b_(sim, "nicB", cfg.rate, kNicProp),
        // Each hop's fixed latency is a pooled PipelineDelay stage: the
        // scheduled closures stay within the kernel's inline-callback budget
        // instead of capturing the Packet by value.
        pipe_a_to_link_(sim, kPipelineLatency,
                        [this](net::Packet&& p) { link_.send_forward(std::move(p)); }),
        pipe_b_to_link_(sim, kPipelineLatency,
                        [this](net::Packet&& p) { link_.send_reverse(std::move(p)); }),
        pipe_to_b_(sim, kPipelineLatency + cfg.host_delay,
                   [this](net::Packet&& p) {
                     if (to_b_) to_b_(std::move(p));
                   }),
        pipe_to_a_(sim, kPipelineLatency + cfg.host_delay,
                   [this](net::Packet&& p) {
                     if (to_a_) to_a_(std::move(p));
                   }) {
    nic_a_q_ = nic_a_.add_queue({.byte_limit = kNicQueueBytes});
    nic_b_q_ = nic_b_.add_queue({.byte_limit = kNicQueueBytes});

    // hostA NIC -> sender switch ingress pipeline -> protected link egress.
    nic_a_.set_deliver(
        [this](net::Packet&& p) { pipe_a_to_link_.accept(std::move(p)); });
    // hostB NIC -> receiver switch ingress pipeline -> reverse direction.
    nic_b_.set_deliver(
        [this](net::Packet&& p) { pipe_b_to_link_.accept(std::move(p)); });
    // Protected link output -> receiver switch egress -> hostB stack.
    link_.set_forward_sink(
        [this](net::Packet&& p) { pipe_to_b_.accept(std::move(p)); });
    // Reverse output -> sender switch egress -> hostA stack.
    link_.set_reverse_sink(
        [this](net::Packet&& p) { pipe_to_a_.accept(std::move(p)); });
  }

  /// Install the endpoint receive handlers.
  void set_sink_at_b(SinkFn fn) { to_b_ = std::move(fn); }
  void set_sink_at_a(SinkFn fn) { to_a_ = std::move(fn); }

  /// Transmit from host A (data direction, crosses the corrupting link).
  void send_from_a(net::Packet p) { nic_a_.enqueue(nic_a_q_, std::move(p)); }
  /// Transmit from host B (ACK direction).
  void send_from_b(net::Packet p) { nic_b_.enqueue(nic_b_q_, std::move(p)); }

  lg::ProtectedLink& link() { return link_; }
  net::EgressPort& nic_a() { return nic_a_; }
  net::EgressPort& nic_b() { return nic_b_; }

 private:
  Simulator& sim_;
  PathConfig cfg_;
  lg::ProtectedLink link_;
  net::EgressPort nic_a_;
  net::EgressPort nic_b_;
  net::PipelineDelay pipe_a_to_link_;
  net::PipelineDelay pipe_b_to_link_;
  net::PipelineDelay pipe_to_b_;
  net::PipelineDelay pipe_to_a_;
  int nic_a_q_ = 0;
  int nic_b_q_ = 0;
  SinkFn to_a_;
  SinkFn to_b_;
};

}  // namespace lgsim::transport
