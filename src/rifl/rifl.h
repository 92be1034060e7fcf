// RIFL baseline: reliable link-layer retransmission (arXiv 2309.08696).
//
// RIFL [Shen, Zheng, Chow] makes a single link lossless in the link layer:
// traffic is carried in small fixed-size frames (256-bit cells, a few bits
// of which are sequence number, frame type and verification code), the
// transmitter keeps every frame in a retransmission buffer until it is
// acknowledged, and the receiver detects corrupted/missing frames and has
// them retransmitted hop-locally. Delivery is in order: a lost frame stalls
// the frames behind it until its retransmission lands (head-of-line
// blocking inside the hop), which is how RIFL guarantees exactly-once
// in-order delivery to the layer above.
//
// Cost model (the knobs RiflScheme plugs into a path):
//   * capacity — the per-frame metadata is paid on every frame
//     (efficiency()), and every corrupted frame consumes its wire slot
//     again when retransmitted: expected transmissions per delivered frame
//     at raw loss p is 1/(1-p), so usable capacity is efficiency * (1-p).
//   * latency — a fixed TX+RX framing pipeline per hop; recovered frames
//     additionally wait for their retransmission round trip.
//   * residual loss — a frame is lost only if all max_tx transmission
//     attempts are corrupted (p^max_tx under i.i.d. loss: zero for any
//     practical BER; a Gilbert-Elliott burst outliving the retry budget is
//     the realistic way to beat it).
//
// Two fidelity levels, differentially tested against each other:
//   * RiflLink — packet-level: real sequence numbers, a bounded
//     retransmission buffer, NACK-on-gap plus ACK-timeout retry discipline,
//     in-order release with head-of-line blocking, give-up-and-skip after
//     max_tx attempts.
//   * RiflLossModel — the same retry discipline collapsed to a loss
//     process, for driving a TestbedPath at goodput-sweep scale.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>

#include "net/loss_model.h"
#include "net/packet.h"
#include "net/packet_pool.h"
#include "net/port.h"
#include "net/protection.h"
#include "sim/simulator.h"
#include "util/units.h"

namespace lgsim::rifl {

struct RiflParams {
  /// Wire frame geometry: RIFL carries traffic in fixed 256-bit cells; the
  /// metadata bits (sequence number, frame type, verification code) are the
  /// protocol's fixed bandwidth tax.
  int frame_bits = 256;
  int meta_bits = 16;
  /// Transmission attempts per frame (1 original + max_tx-1 retransmissions)
  /// before the transmitter gives up and tells the receiver to skip it.
  int max_tx = 16;
  /// One-way TX+RX framing pipeline latency added to every frame.
  SimTime framing_latency = nsec(110);
  /// Latency of the reverse control lane (ACK/NACK hop back to the sender).
  SimTime ctrl_delay = nsec(200);
  /// Tail-loss retransmission timer: re-send an unacknowledged frame this
  /// long after its last transmission.
  SimTime ack_timeout = usec(2);
  /// Retransmission-buffer budget in frames (BDP-sized in the paper).
  std::int64_t tx_window = 4096;

  /// Payload fraction of the wire rate.
  double efficiency() const {
    return static_cast<double>(frame_bits - meta_bits) /
           static_cast<double>(frame_bits);
  }
};

struct RiflCounters {
  std::int64_t offered = 0;    // frames entered at the sender
  std::int64_t delivered = 0;  // frames released in order at the receiver
  std::int64_t failed = 0;     // frames given up after max_tx attempts
  std::int64_t data_tx = 0;    // first transmissions onto the wire
  std::int64_t retx_tx = 0;    // retransmissions onto the wire
  std::int64_t dup_rx = 0;     // duplicate arrivals dropped by the receiver
  std::int64_t nacks = 0;      // gap notifications sent by the receiver
  std::int64_t skips = 0;      // give-up notices sent to the receiver
};

/// One direction of a RIFL hop: sender retransmission buffer, the corrupting
/// wire (an EgressPort running at efficiency() x line rate, so metadata and
/// retransmissions consume real capacity), and the receiver's in-order
/// release logic. The reverse ACK/NACK lane is modelled as a fixed-latency
/// control channel (reverse-direction corruption is handled symmetrically by
/// RIFL itself and is out of scope here, matching the paper's unidirectional
/// evaluation).
class RiflLink {
 public:
  using SinkFn = std::function<void(net::Packet&&)>;

  RiflLink(Simulator& sim, RiflParams params, BitRate line_rate,
           SimTime prop_delay);

  /// Install the wire's raw corruption process (owned by the link).
  void set_loss_model(std::unique_ptr<net::LossModel> m);

  /// Offer a frame for reliable transfer. Frames are delivered to the sink
  /// exactly once and in offer order (unless given up after max_tx).
  void send(net::Packet p);
  void set_sink(SinkFn fn) { sink_ = std::move(fn); }

  const RiflCounters& counters() const { return counters_; }
  const RiflParams& params() const { return params_; }
  /// Frames currently held in the retransmission buffer.
  std::int64_t tx_buffered() const { return static_cast<std::int64_t>(buf_.size()); }

 private:
  struct TxEntry {
    net::Packet copy;
    std::uint64_t true_seq = 0;
    int tx_count = 0;
    bool failed = false;  // gave up; waiting for cumulative release
  };

  // --- sender side ---
  void transmit(TxEntry& e, bool retx);
  void arm_timeout(std::uint64_t true_seq);
  void drain_backlog();
  TxEntry* find(std::uint64_t true_seq);
  void on_ack(std::uint64_t cum_true_seq);          // receiver -> sender
  void on_nack(std::uint64_t from, std::uint64_t to);  // missing [from, to)
  void give_up(TxEntry& e);

  // --- receiver side ---
  void on_wire_arrival(net::Packet&& p);
  void on_skip(std::uint64_t true_seq);             // sender -> receiver
  void release_in_order();
  void send_ctrl_ack();

  Simulator& sim_;
  RiflParams params_;
  net::EgressPort wire_;
  int retx_q_ = 0;
  int data_q_ = 0;
  std::unique_ptr<net::LossModel> loss_;
  SinkFn sink_;

  // Sender: retransmission buffer ordered by true sequence number, plus a
  // backlog for frames offered while the buffer is at its window budget.
  std::deque<TxEntry> buf_;
  std::uint64_t buf_base_ = 0;  // true seq of buf_.front()
  std::uint64_t next_seq_ = 0;
  std::deque<net::Packet> backlog_;

  // Receiver: next expected true seq and the out-of-order hold buffer
  // (frame + arrival flag per slot ahead of rx_next_).
  struct RxSlot {
    bool present = false;
    bool skipped = false;
    net::Packet frame;
  };
  std::deque<RxSlot> rx_buf_;
  std::uint64_t rx_next_ = 0;
  std::uint64_t highest_nacked_ = 0;  // dedup gap notifications
  bool ack_pending_ = false;          // coalesce cumulative ACKs
  net::PacketPool out_pool_;          // frames in the release pipeline

  RiflCounters counters_;
};

/// RIFL's retry discipline as a residual loss process: a frame survives if
/// any of its max_tx wire traversals survives the raw process. Attempts are
/// rolled back to back, so a bursty raw process (Gilbert-Elliott) correlates
/// consecutive attempts — the conservative direction: a burst has to outlive
/// the whole retry budget to get a frame lost, and with this model it does
/// so more easily than with attempts spread over the real retransmission
/// round trips.
class RiflLossModel final : public net::LossModel {
 public:
  RiflLossModel(RiflParams params, std::unique_ptr<net::DrivableLoss> raw)
      : params_(params), raw_(std::move(raw)) {}

  bool lose(SimTime now, const net::Packet& p) override {
    for (int attempt = 0; attempt < params_.max_tx; ++attempt) {
      if (!raw_->lose(now, p)) return false;
      ++wire_corruptions_;
    }
    ++frames_failed_;
    return true;
  }

  net::DrivableLoss* raw() { return raw_.get(); }
  std::int64_t wire_corruptions() const { return wire_corruptions_; }
  std::int64_t frames_failed() const { return frames_failed_; }

 private:
  RiflParams params_;
  std::unique_ptr<net::DrivableLoss> raw_;
  std::int64_t wire_corruptions_ = 0;
  std::int64_t frames_failed_ = 0;
};

/// RIFL as a pluggable protection scheme.
class RiflScheme final : public net::ProtectionScheme {
 public:
  explicit RiflScheme(RiflParams params = {}) : params_(params) {}

  const char* name() const override { return "rifl"; }

  double capacity_fraction(const net::LossSpec& raw) const override {
    // Metadata on every frame, plus one extra wire slot per corruption:
    // expected transmissions per delivered frame at raw loss p is 1/(1-p).
    return params_.efficiency() * (1.0 - raw.rate);
  }

  SimTime added_latency() const override { return params_.framing_latency; }

  net::ResidualLoss residual(const net::LossSpec& raw) const override {
    auto model = std::make_unique<RiflLossModel>(params_, raw.build());
    net::DrivableLoss* handle = model->raw();
    return net::ResidualLoss{std::move(model), handle};
  }

  const RiflParams& params() const { return params_; }

 private:
  RiflParams params_;
};

}  // namespace lgsim::rifl
