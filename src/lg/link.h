// ProtectedLink: the public entry point of the library.
//
// Wires together one corrupting switch-to-switch link: the sender switch's
// egress port (retx / normal / dummy strict-priority queues), the forward
// fiber with its corruption loss model, the receiver switch's LinkGuardian
// ingress logic, and the reverse fiber carrying ACKs, loss notifications and
// PFC backpressure. Upstream code (traffic generators, transport hosts,
// switch forwarding logic) talks only to send_forward/send_reverse and the
// two sinks.
//
//           +--------- sender switch ---------+      forward fiber
//  send_forward --> [LgSender: seq, Tx buffer] --> (loss model) -->+
//                                                                  |
//           +-------- receiver switch --------+                    v
//  forward_sink <-- [LgReceiver: order, dedup] <-------------------+
//        |                   |
//        |                   +--> reverse fiber: notif/ACK/PFC --> LgSender
//  send_reverse -------------^        (piggybacked on reverse traffic)
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "lg/config.h"
#include "lg/receiver.h"
#include "lg/sender.h"
#include "net/loss_model.h"
#include "net/packet.h"
#include "net/port.h"
#include "sim/simulator.h"

namespace lgsim::lg {

struct LinkSpec {
  BitRate rate = gbps(100);
  /// One-way propagation delay of the fiber (~100 ns for a 20 m run).
  SimTime prop_delay = nsec(100);
  /// Byte budget of the sender switch's normal egress queue.
  std::int64_t normal_queue_bytes = 2'000'000;
  /// DCTCP-style ECN marking threshold on the normal queue (-1 = off;
  /// the paper uses 100 KB).
  std::int64_t ecn_threshold_bytes = -1;
  std::string name = "link";
};

class ProtectedLink {
 public:
  using SinkFn = std::function<void(net::Packet&&)>;

  /// Throws std::invalid_argument for a config lg::validate rejects.
  ProtectedLink(Simulator& sim, const LinkSpec& spec, const LgConfig& cfg)
      : sim_(sim),
        cfg_(cfg),
        fwd_port_(sim, spec.name + ".fwd", spec.rate, spec.prop_delay),
        rev_port_(sim, spec.name + ".rev", spec.rate, spec.prop_delay) {
    validate(cfg_);
    retx_q_ = fwd_port_.add_queue({});  // highest priority: retransmissions
    normal_q_ = fwd_port_.add_queue(
        {.byte_limit = spec.normal_queue_bytes,
         .ecn_threshold = spec.ecn_threshold_bytes});
    dummy_q_ = fwd_port_.add_queue({});  // strictly lowest: dummy packets

    ctrl_q_ = rev_port_.add_queue({});  // loss notifications + PFC
    rev_normal_q_ = rev_port_.add_queue({.byte_limit = spec.normal_queue_bytes});
    ack_q_ = rev_port_.add_queue({});  // strictly lowest: explicit ACKs

    sender_ = std::make_unique<LgSender>(sim, cfg_, fwd_port_, retx_q_,
                                         normal_q_, dummy_q_);
    receiver_ = std::make_unique<LgReceiver>(sim, cfg_, rev_port_, ctrl_q_,
                                             rev_normal_q_, ack_q_);

    fwd_port_.set_deliver([this](net::Packet&& p) { receiver_->receive(std::move(p)); });
    rev_port_.set_deliver([this](net::Packet&& p) { on_reverse_arrival(std::move(p)); });
  }

  /// Install the forward-direction corruption process (owned by the link).
  void set_loss_model(std::unique_ptr<net::LossModel> m) {
    loss_ = std::move(m);
    fwd_port_.set_loss_model(loss_.get());
  }
  net::LossModel* loss_model() { return loss_.get(); }

  /// Install a reverse-direction corruption process (§5 "Handling
  /// bidirectional corruption"): ACKs, loss notifications and PFC frames can
  /// now be lost too; pair this with LgConfig::control_copies > 1 and
  /// loss_notif_copies > 1 for the paper's redundancy countermeasure.
  void set_reverse_loss_model(std::unique_ptr<net::LossModel> m) {
    rev_loss_ = std::move(m);
    rev_port_.set_loss_model(rev_loss_.get());
  }

  /// Traffic to carry over the protected link.
  void send_forward(net::Packet p) { sender_->send(std::move(p)); }
  /// Regular reverse-direction traffic (ACK info rides on it for free).
  void send_reverse(net::Packet p) { receiver_->send_reverse(std::move(p)); }

  /// Where in-order (or NB out-of-order) packets pop out on the receiver
  /// switch, headed to the rest of the network.
  void set_forward_sink(SinkFn fn) { receiver_->set_forward_sink(std::move(fn)); }
  /// Where reverse traffic pops out on the sender switch.
  void set_reverse_sink(SinkFn fn) { reverse_sink_ = std::move(fn); }

  /// Activate LinkGuardian on both switches (what corruptd does once the
  /// link is found to be corrupting, §3.6).
  void enable_lg() {
    sender_->enable();
    receiver_->enable();
  }
  void disable_lg() {
    sender_->disable();
    receiver_->disable();
  }
  bool lg_enabled() const { return sender_->enabled(); }

  /// Live control-plane reconfiguration (AutoFallback, corruptd): the sender
  /// and receiver read the link's LgConfig through a const reference, so
  /// these take effect on the next frame processed.
  ///
  /// Switch between ordered LinkGuardian and LinkGuardianNB on a running
  /// link. Sequence state is preserved (no era reset), and the receiver
  /// performs an explicit state handoff: ordered -> NB releases the
  /// reordering buffer in sequence order and lifts backpressure; NB ->
  /// ordered restarts ordering at the next new frame.
  void set_preserve_order(bool ordered) {
    if (cfg_.preserve_order == ordered) return;
    cfg_.preserve_order = ordered;
    receiver_->on_mode_change();
  }
  bool preserve_order() const { return cfg_.preserve_order; }

  /// Feed the measured loss rate (corruptd's estimate) into Eq. 2: the retx
  /// copy count the sender uses from the next loss notification on. Throws
  /// std::invalid_argument for a rate outside [0, 1], NaN included.
  void set_actual_loss_rate(double rate) {
    LgConfig next = cfg_;
    next.actual_loss_rate = rate;
    validate(next);
    cfg_.actual_loss_rate = rate;
  }

  const LgConfig& config() const { return cfg_; }

  LgSender& sender() { return *sender_; }
  LgReceiver& receiver() { return *receiver_; }
  const LgSender& sender() const { return *sender_; }
  const LgReceiver& receiver() const { return *receiver_; }
  net::EgressPort& forward_port() { return fwd_port_; }
  net::EgressPort& reverse_port() { return rev_port_; }
  int normal_queue() const { return normal_q_; }

 private:
  void on_reverse_arrival(net::Packet&& p) {
    // All LinkGuardian control state rides the reverse direction: explicit
    // ACKs, piggybacked ACK headers, loss notifications and PFC frames are
    // consumed by the sender switch; everything else continues upstream.
    sender_->handle_reverse(p);
    switch (p.kind) {
      case net::PktKind::kLgAck:
      case net::PktKind::kLgLossNotif:
      case net::PktKind::kPfcPause:
      case net::PktKind::kPfcResume:
        return;  // consumed by the RX MAC / LinkGuardian logic
      default:
        break;
    }
    if (reverse_sink_) reverse_sink_(std::move(p));
  }

  Simulator& sim_;
  LgConfig cfg_;
  net::EgressPort fwd_port_;
  net::EgressPort rev_port_;
  int retx_q_ = 0, normal_q_ = 0, dummy_q_ = 0;
  int ctrl_q_ = 0, rev_normal_q_ = 0, ack_q_ = 0;
  std::unique_ptr<net::LossModel> loss_;
  std::unique_ptr<net::LossModel> rev_loss_;
  std::unique_ptr<LgSender> sender_;
  std::unique_ptr<LgReceiver> receiver_;
  SinkFn reverse_sink_;
};

}  // namespace lgsim::lg
