// Packet representation shared by all layers of the simulator.
//
// A `Packet` is a plain value type: copies are cheap (no heap payload) which
// lets LinkGuardian buffer literal copies of protected packets the way the
// Tofino implementation buffers them via egress mirroring. Instead of byte
// buffers we carry small typed header structs for each protocol; the frame
// size accounts for the bytes each header would occupy on the wire.
#pragma once

#include <array>
#include <cstdint>

#include "util/units.h"

namespace lgsim::net {

/// What the frame fundamentally is (the outermost interpretation).
enum class PktKind : std::uint8_t {
  kData,             // transport payload (TCP segment, RDMA packet, raw load)
  kTransportAck,     // TCP ACK / RDMA ACK/NACK
  kLgAck,            // explicit minimum-size LinkGuardian ACK (§3.1)
  kLgLossNotif,      // high-priority loss notification (§A.1)
  kLgDummy,          // tail-loss dummy packet, lowest-priority queue (§3.2)
  kPfcPause,         // priority flow control pause frame (§3.5)
  kPfcResume,        // priority flow control resume frame
  kTimer,            // switch packet-generator timer packet (§3.5)
  kProbe,            // telemetry loss probe (src/telemetry, LinkStat-style)
};

/// 3-byte LinkGuardian data header: 16-bit seqNo, an era bit and the packet
/// type (original vs retransmitted). Attached by the sender switch to every
/// packet protected on the corrupting link (§3.5).
struct LgDataHeader {
  bool valid = false;
  std::uint16_t seq = 0;
  std::uint8_t era = 0;       // toggles on each seqNo wrap-around
  bool retransmitted = false; // original or reTx copy
};

/// 3-byte LinkGuardian ACK header, piggybacked on reverse-direction packets
/// or carried by an explicit kLgAck packet: cumulative latestRxSeqNo + era.
struct LgAckHeader {
  bool valid = false;
  std::uint16_t latest_rx_seq = 0;
  std::uint8_t era = 0;
};

/// One SACK block: [start, end) in byte-sequence space.
struct SackBlock {
  std::int64_t start = 0;
  std::int64_t end = 0;
};

/// Simplified TCP header (byte-sequence based, like the kernel).
struct TcpHeader {
  bool valid = false;
  std::uint32_t flow = 0;     // flow identifier (connection)
  std::int64_t seq = 0;       // first payload byte
  std::int32_t payload = 0;   // payload length in bytes
  std::int64_t ack = 0;       // cumulative ACK (valid on ACK packets)
  bool fin = false;           // last segment of the flow
  bool ce = false;            // ECN CE mark (set by switches)
  bool ece = false;           // ECN echo (receiver -> sender)
  std::uint8_t n_sack = 0;
  std::array<SackBlock, 3> sack{};
};

/// Simplified RoCEv2 RC header (packet-sequence-number based).
enum class RdmaOp : std::uint8_t { kData, kAck, kNack };
struct RdmaHeader {
  bool valid = false;
  std::uint32_t qp = 0;       // queue pair id
  RdmaOp op = RdmaOp::kData;
  std::int64_t psn = 0;       // packet sequence number (data) / expected (nack)
  bool last = false;          // last packet of the message
};

/// PFC pause/resume payload.
struct PfcHeader {
  bool valid = false;
  bool pause = false;         // true = pause, false = resume
};

/// Telemetry probe payload: 16-bit sequence number plus the emission
/// timestamp (what a real probe would carry in its payload bytes). The
/// receiving estimator recovers the sender's emission schedule from these
/// two fields alone — no oracle access to the sender (src/telemetry).
struct ProbeHeader {
  bool valid = false;
  std::uint16_t seq = 0;
  SimTime sent_at = 0;
};

/// RIFL link-layer reliability header (src/rifl): 16-bit frame sequence
/// number plus the original/retransmission flag. The sequence space is far
/// wider than the retransmission window, so 16 bits resolve unambiguously.
struct RiflHeader {
  bool valid = false;
  std::uint16_t seq = 0;
  bool retransmitted = false;
};

/// P4-Protect-style 1+1 duplication header (src/protect): 16-bit tunnel
/// sequence number stamped at the replication point, consumed by the merge
/// point's dedup filter.
struct DupHeader {
  bool valid = false;
  std::uint16_t seq = 0;
};

/// LinkGuardian loss notification (§A.1): the missing range plus the
/// receiver's latestRxSeqNo so the sender can update its copy.
struct LgLossNotifHeader {
  bool valid = false;
  std::uint16_t first_missing = 0;
  std::uint8_t first_missing_era = 0;
  std::uint16_t count = 0;  // consecutive missing seqNos
};

struct Packet {
  PktKind kind = PktKind::kData;
  /// L2 frame size in bytes (Ethernet header + payload + FCS). The port adds
  /// preamble + IFG (20 B) when computing wire occupancy.
  std::int32_t frame_bytes = 64;
  std::uint32_t src = 0;      // source node id (for routing in harnesses)
  std::uint32_t dst = 0;      // destination node id
  std::uint64_t uid = 0;      // unique id assigned by the creator (tracing)
  SimTime created_at = 0;

  LgDataHeader lg;
  LgAckHeader lg_ack;
  LgLossNotifHeader lg_notif;
  TcpHeader tcp;
  RdmaHeader rdma;
  PfcHeader pfc;
  ProbeHeader probe;
  RiflHeader rifl;
  DupHeader dup;

  std::int64_t wire_bytes() const { return frame_bytes + kEthernetPreamble + kEthernetIfg; }
};

/// Minimum-size control frame helper.
inline Packet make_control(PktKind kind) {
  Packet p;
  p.kind = kind;
  p.frame_bytes = kMinFrameSize;
  return p;
}

}  // namespace lgsim::net
