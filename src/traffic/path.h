// ECMP-style path resolution on the Facebook-fabric topology for the
// fabric-scale traffic engine.
//
// Hosts are numbered pod-major: host = (pod * tors_per_pod + tor) *
// hosts_per_tor + h. A flow's path is the sequence of optical
// switch-to-switch links it crosses (the links FabricTopology models; host
// NIC and intra-switch hops are timing terms, not Link records):
//   same ToR:   0 links;
//   intra-pod:  srcToR->fabric f, fabric f->dstToR                (2 links);
//   inter-pod:  srcToR->fabric f, fabric f->spine s,
//               spine s->dstPod fabric f, fabric f->dstToR        (4 links).
// Valley-free routing pins the fabric index (= spine plane) and spine index
// across both pods, exactly the path structure paths_per_tor() counts.
//
// ECMP: the flow's hash picks the starting (fabric, spine) candidate; the
// resolver probes candidates in a fixed wrap-around order and returns the
// first one whose links are all administratively up — a deterministic stand-in
// for hash-based spraying that, like real ECMP, spreads flows uniformly and
// never routes over a disabled link. CorrOpt-disabled links are thereby
// routed around (their capacity cost shows up as fewer ECMP choices); links
// it could NOT disable stay in the candidate set corrupting — crossing one
// makes the flow a *victim*. A (src, dst) pair with no up path is *stranded*.
//
// Probes read the topology's one-byte link_state(), not the Link records: at
// 100K links the records are 4.8 MB, the state bytes ~100 KB.
#pragma once

#include <array>
#include <cstdint>

#include "fabric/topology.h"

namespace lgsim::traffic {

struct PathInfo {
  std::array<std::int64_t, 4> links{};  // link ids, [0, n_links) valid
  std::int32_t n_links = 0;
  bool ok = false;
};

class PathResolver {
 public:
  PathResolver(const fabric::FabricTopology& topo, std::int32_t hosts_per_tor)
      : topo_(topo), hosts_per_tor_(hosts_per_tor) {}

  std::int64_t n_hosts() const {
    const auto& c = topo_.config();
    return static_cast<std::int64_t>(c.pods) * c.tors_per_pod * hosts_per_tor_;
  }
  std::int32_t pod_of(std::int64_t host) const {
    const auto& c = topo_.config();
    return static_cast<std::int32_t>(host / (static_cast<std::int64_t>(c.tors_per_pod) * hosts_per_tor_));
  }
  std::int32_t tor_of(std::int64_t host) const {
    const auto& c = topo_.config();
    return static_cast<std::int32_t>(host / hosts_per_tor_ % c.tors_per_pod);
  }

  /// Resolves src->dst under ECMP hash `hash`. Pure const query (thread-safe
  /// on a shared topology: touches no mutable caches).
  PathInfo resolve(std::int64_t src, std::int64_t dst,
                   std::uint64_t hash) const {
    const auto& c = topo_.config();
    PathInfo p;
    const std::int32_t sp = pod_of(src), st = tor_of(src);
    const std::int32_t dp = pod_of(dst), dt = tor_of(dst);

    if (sp == dp && st == dt) {  // same ToR: never touches a fabric link
      p.ok = true;
      return p;
    }

    const std::int32_t F = c.fabrics_per_pod;
    const std::int32_t S = c.spines_per_plane;
    const auto f0 = static_cast<std::int32_t>(hash % static_cast<std::uint64_t>(F));

    if (sp == dp) {  // intra-pod: any fabric switch with both ToR links up
      for (std::int32_t i = 0; i < F; ++i) {
        const std::int32_t f = (f0 + i) % F;
        const std::int64_t up1 = topo_.tor_fabric_link(sp, st, f);
        const std::int64_t dn1 = topo_.tor_fabric_link(sp, dt, f);
        if (is_up(up1) && is_up(dn1)) {
          p.links = {up1, dn1, 0, 0};
          p.n_links = 2;
          p.ok = true;
          return p;
        }
      }
      return p;  // stranded
    }

    // Inter-pod: fabric plane f and spine s must be up end to end.
    const auto s0 =
        static_cast<std::int32_t>((hash >> 16) % static_cast<std::uint64_t>(S));
    for (std::int32_t i = 0; i < F; ++i) {
      const std::int32_t f = (f0 + i) % F;
      const std::int64_t up1 = topo_.tor_fabric_link(sp, st, f);
      const std::int64_t dn1 = topo_.tor_fabric_link(dp, dt, f);
      if (!is_up(up1) || !is_up(dn1)) continue;
      for (std::int32_t j = 0; j < S; ++j) {
        const std::int32_t s = (s0 + j) % S;
        const std::int64_t up2 = topo_.fabric_spine_link(sp, f, s);
        const std::int64_t dn2 = topo_.fabric_spine_link(dp, f, s);
        if (is_up(up2) && is_up(dn2)) {
          p.links = {up1, up2, dn2, dn1};
          p.n_links = 4;
          p.ok = true;
          return p;
        }
      }
    }
    return p;  // stranded
  }

 private:
  bool is_up(std::int64_t link) const {
    return (topo_.link_state(link) & fabric::kLinkUp) != 0;
  }

  const fabric::FabricTopology& topo_;
  std::int32_t hosts_per_tor_;
};

}  // namespace lgsim::traffic
