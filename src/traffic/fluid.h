// Analytic (fluid) flow-completion-time model for background traffic.
//
// The hybrid-fidelity engine simulates victim flows (those crossing a
// corrupting link) packet by packet through the real transport + LinkGuardian
// stack, and everything else with this closed-form model — the packet/flow
// split that hybrid fabric simulators (P4sim et al.) use to reach fabric
// scale. The model mirrors the packet path's timing structure:
//
//   rtt   = 2 * (host_delay + hops * kHopLatency) + frame serialization,
//           inflated by an M/M/1-style load term per traversed queue;
//   FCT   = slow-start rounds (cwnd doubling from init_cwnd, capped at the
//           bandwidth-delay product, each round costing max(rtt, send time))
//           + the residual serialization once the window saturates;
//   loss  = with probability 1-(1-p)^frames the flow eats one recovery:
//           an RTO (RTOmin) when the loss cannot be repaired by fast
//           retransmit (short flow, or tail loss ~ 3/n_segs), else one
//           extra round trip — the corruption-induced penalty sampled from
//           the scenario's residual-loss rates.
//
// MSS, header bytes, initial window and RTOmin are TCP's own constants
// (transport/tcp.h) and the host delay defaults to PathConfig's, so
// no-loss fluid FCTs land in the same decade as the packet reference;
// tests/traffic_test.cc pins a coarse agreement band. Victim-flow accuracy
// never depends on this model — that is the whole point of the hybrid split.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "sim/random.h"
#include "transport/tcp.h"
#include "util/units.h"

namespace lgsim::traffic {

/// Fixed one-way latency per traversed switch-to-switch link (switch
/// pipeline + NIC/fiber propagation). The packet path folds the same value
/// into a replayed victim's testbed link per extra fabric hop.
inline constexpr SimTime kHopLatency = nsec(700);

struct FluidConfig {
  /// Per-endpoint host-stack delay (both ends contribute per direction).
  SimTime host_delay = usec(12);
  /// Average utilization of fabric queues; drives the queueing-delay term.
  double load = 0.1;
};

class FluidModel {
 public:
  FluidModel(const FluidConfig& cfg, BitRate rate) : cfg_(cfg) {
    frame_ns_ = static_cast<double>(serialization_time(
        transport::kTcpMss + transport::kTcpHeaderBytes, rate));
    const double rho = std::clamp(cfg.load, 0.0, 0.95);
    queue_ns_per_hop_ = rho / (1.0 - rho) * frame_ns_;
  }

  /// FCT in nanoseconds for one loss-free flow of `bytes` over `n_links`
  /// fabric links. Draws nothing.
  double fct_ns(std::int64_t bytes, std::int32_t n_links) const {
    return lossless(bytes, n_links).fct;
  }

  /// FCT in nanoseconds for one flow of `bytes` over `n_links` fabric links
  /// with residual loss rate `loss` on the path: the loss-free FCT plus at
  /// most one recovery. Draws at most two uniforms from `rng` (loss
  /// Bernoulli + recovery-kind Bernoulli), none when `loss` is 0.
  double fct_ns(std::int64_t bytes, std::int32_t n_links, double loss,
                Rng& rng) const {
    const Lossless l = lossless(bytes, n_links);
    double t = l.fct;
    if (loss > 0.0) {
      const double p_any =
          -std::expm1(static_cast<double>(l.n_segs) * std::log1p(-loss));
      if (rng.bernoulli(p_any)) {
        // Fast retransmit needs >= 3 dupacks after the hole: impossible for
        // very short flows, and a tail loss (~3 trailing segments) also
        // falls back to the timer.
        const bool rto =
            l.n_segs < 4 || rng.bernoulli(3.0 / static_cast<double>(l.n_segs));
        t += rto ? static_cast<double>(transport::kTcpRtoMin) : l.rtt;
      }
    }
    return t;
  }

 private:
  struct Lossless {
    std::int64_t n_segs;
    double rtt;
    double fct;
  };

  Lossless lossless(std::int64_t bytes, std::int32_t n_links) const {
    const auto n_segs = std::max<std::int64_t>(
        1, (bytes + transport::kTcpMss - 1) / transport::kTcpMss);
    const double rtt =
        2.0 * (static_cast<double>(cfg_.host_delay) +
               n_links * (static_cast<double>(kHopLatency) +
                          queue_ns_per_hop_)) +
        frame_ns_;

    // Slow start: rounds of doubling until the window covers the BDP (after
    // which the transfer is serialization-limited) or the flow ends.
    const double bdp_segs = std::max(1.0, rtt / frame_ns_);
    double t = 0.0;
    double cwnd = transport::kTcpInitCwndSegs;
    std::int64_t sent = 0;
    while (sent < n_segs) {
      const double in_round =
          std::min<double>(cwnd, static_cast<double>(n_segs - sent));
      t += std::max(rtt, in_round * frame_ns_);
      sent += static_cast<std::int64_t>(in_round);
      if (cwnd >= bdp_segs) {
        // Window saturated: everything left streams at line rate.
        t += static_cast<double>(n_segs - sent) * frame_ns_;
        break;
      }
      cwnd = std::min(cwnd * 2.0, bdp_segs);
    }
    return {n_segs, rtt, t};
  }

  FluidConfig cfg_;
  double frame_ns_ = 0.0;
  double queue_ns_per_hop_ = 0.0;
};

}  // namespace lgsim::traffic
