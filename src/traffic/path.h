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
//
// Link ids come from offsets, not from the topology's link-id calls. Because
// hosts are pod-major, host / hosts_per_tor is the global ToR index g =
// pod * tors_per_pod + tor, and g / tors_per_pod is the pod. A ToR's uplinks
// are one row of fabrics_per_pod ids, tor_fabric_link(0,0,0) + g * F + f;
// a pod's spine links are one row of F * S ids, fabric_spine_link(0,0,0) +
// pod * F * S + f * S + s. The resolver caches both bases at construction,
// so a flow costs at most two divisions per endpoint plus the two hash
// reductions, and a probe that wraps around steps instead of dividing.
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
      : topo_(topo),
        hosts_per_tor_(hosts_per_tor),
        tors_per_pod_(topo.config().tors_per_pod),
        fabrics_(topo.config().fabrics_per_pod),
        spines_(topo.config().spines_per_plane),
        tor_fabric0_(topo.tor_fabric_link(0, 0, 0)),
        fabric_spine0_(topo.fabric_spine_link(0, 0, 0)) {}

  std::int64_t n_hosts() const {
    return static_cast<std::int64_t>(topo_.config().pods) * tors_per_pod_ *
           hosts_per_tor_;
  }

  /// Resolves src->dst under ECMP hash `hash`. Pure const query (thread-safe
  /// on a shared topology: touches no mutable caches).
  PathInfo resolve(std::int64_t src, std::int64_t dst,
                   std::uint64_t hash) const {
    PathInfo p;
    const std::int64_t gs = src / hosts_per_tor_;  // global ToR index
    const std::int64_t gd = dst / hosts_per_tor_;
    if (gs == gd) {  // same ToR: never touches a fabric link
      p.ok = true;
      return p;
    }

    const std::int32_t F = fabrics_;
    const std::int32_t S = spines_;
    const auto f0 = static_cast<std::int32_t>(hash % static_cast<std::uint64_t>(F));
    const auto next = [](std::int32_t i, std::int32_t n) {
      return i + 1 < n ? i + 1 : 0;
    };
    // tor_fabric_link(pod, tor, f) == ToR row + f.
    const std::int64_t src_tor = tor_fabric0_ + gs * F;
    const std::int64_t dst_tor = tor_fabric0_ + gd * F;
    const std::int64_t sp = gs / tors_per_pod_;
    const std::int64_t dp = gd / tors_per_pod_;

    if (sp == dp) {  // intra-pod: any fabric switch with both ToR links up
      for (std::int32_t i = 0, f = f0; i < F; ++i, f = next(f, F)) {
        const std::int64_t up1 = src_tor + f;
        const std::int64_t dn1 = dst_tor + f;
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
    // fabric_spine_link(pod, f, s) == spine row + f * S + s.
    const auto s0 =
        static_cast<std::int32_t>((hash >> 16) % static_cast<std::uint64_t>(S));
    const std::int64_t src_spine = fabric_spine0_ + sp * F * S;
    const std::int64_t dst_spine = fabric_spine0_ + dp * F * S;
    for (std::int32_t i = 0, f = f0; i < F; ++i, f = next(f, F)) {
      const std::int64_t up1 = src_tor + f;
      const std::int64_t dn1 = dst_tor + f;
      if (!is_up(up1) || !is_up(dn1)) continue;
      const std::int64_t up_plane = src_spine + static_cast<std::int64_t>(f) * S;
      const std::int64_t dn_plane = dst_spine + static_cast<std::int64_t>(f) * S;
      for (std::int32_t j = 0, s = s0; j < S; ++j, s = next(s, S)) {
        const std::int64_t up2 = up_plane + s;
        const std::int64_t dn2 = dn_plane + s;
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
  std::int32_t tors_per_pod_;
  std::int32_t fabrics_;
  std::int32_t spines_;
  std::int64_t tor_fabric0_;    // tor_fabric_link(0, 0, 0)
  std::int64_t fabric_spine0_;  // fabric_spine_link(0, 0, 0)
};

}  // namespace lgsim::traffic
