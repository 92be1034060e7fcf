// corruptd: the control-plane corruption-monitoring daemon (Appendix C).
//
// One daemon instance runs per switch. It periodically polls the driver for
// per-port RX frame counters (framesRxOk / framesRxAll), computes the loss
// rate over a moving window of frames, and — when a link's loss rate crosses
// the detection threshold — publishes a notification on a Redis-style
// pub-sub bus. The daemon on the *upstream* switch subscribes to topics for
// its own egress links and activates LinkGuardian with the retransmission
// copy count from Eq. 2.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "lg/config.h"
#include "obs/trace.h"
#include "sim/simulator.h"
#include "util/units.h"

namespace lgsim::monitor {

/// In-process stand-in for the Redis pub-sub channel the daemons share.
///
/// Delivery latency: a real deployment hops through a Redis instance, so a
/// notification is not seen by subscribers in the same instant it is
/// published. bind() a Simulator and set_delay() to model that hop; with the
/// default delay of 0 (or no simulator bound) delivery stays synchronous —
/// exactly the pre-existing behaviour, keeping trace goldens byte-identical.
///
/// Fault hooks (driven by src/fault's FaultInjector): set_drop(true) opens an
/// outage window during which published notifications vanish (counted, still
/// recorded in history()).
class PubSubBus {
 public:
  struct Notification {
    std::string topic;
    double loss_rate = 0.0;
    SimTime at = 0;  // publish time (the publisher's clock)
  };

  struct Counters {
    std::int64_t published = 0;
    std::int64_t delivered = 0;  // notifications handed to >= 0 subscribers
    std::int64_t dropped = 0;    // lost to an injected outage window
    std::int64_t deferred = 0;   // went through the simulator (delay > 0)
  };

  using Handler = std::function<void(const Notification&)>;

  /// Enables scheduled delivery. Without a bound simulator every publish
  /// delivers synchronously regardless of the configured delay.
  void bind(Simulator& sim) { sim_ = &sim; }

  /// Control-plane hop latency applied to every delivery (default 0).
  void set_delay(SimTime d) { delay_ = d; }
  SimTime delay() const { return delay_; }

  /// Fault injection: while true, published notifications are dropped.
  void set_drop(bool drop) { drop_ = drop; }

  void subscribe(const std::string& topic, Handler h) {
    subs_[topic].push_back(std::move(h));
  }

  void publish(const Notification& n) {
    history_.push_back(n);
    ++counters_.published;
    if (drop_) {
      ++counters_.dropped;
      return;
    }
    if (delay_ <= 0 || sim_ == nullptr) {
      deliver(n);
      return;
    }
    ++counters_.deferred;
    // Init-capture: a plain `[this, n]` capture of the const reference would
    // make the member const and demote the closure's move to a throwing
    // string copy, which the event kernel's nothrow-move contract rejects.
    sim_->schedule_in(delay_, [this, m = n] { deliver(m); });
  }

  const std::vector<Notification>& history() const { return history_; }
  const Counters& counters() const { return counters_; }

 private:
  void deliver(const Notification& n) {
    ++counters_.delivered;
    auto it = subs_.find(n.topic);
    if (it == subs_.end()) return;
    for (auto& h : it->second) h(n);
  }

  Simulator* sim_ = nullptr;
  SimTime delay_ = 0;
  bool drop_ = false;
  std::map<std::string, std::vector<Handler>> subs_;
  std::vector<Notification> history_;
  Counters counters_;
};

struct CorruptdConfig {
  /// Counter polling period (1 s in the paper).
  SimTime poll_period = sec(1);
  /// Moving window length in frames (100M frames in the paper). Loss rate is
  /// computed over the most recent window of polls covering this many polls'
  /// worth of frames.
  std::int64_t window_frames = 100'000'000;
  /// Detection threshold: activate once L >= 1e-8 (a healthy link's BER).
  double threshold = 1e-8;
  /// While the loss rate stays above threshold, repeat the notification at
  /// most this often — the robustness countermeasure for a lossy/flaky
  /// control plane (a dropped notification is retried instead of lost
  /// forever). 0 = notify exactly once per link (the original behaviour).
  SimTime renotify_period = 0;
  /// Time-based window eviction (TAU). 0 keeps the original frame-budget-only
  /// trimming. When > 0, a poll sample is evicted once it is *at least* this
  /// old (eviction triggers exactly at age == window_tau), and unlike the
  /// frame-budget trim this may empty the window entirely — at which point
  /// the link's loss rate is unknown, not zero (see estimate()). Estimator-
  /// backed counters (src/telemetry) want this: probe counts are small, so a
  /// frame budget alone would average over the whole run.
  SimTime window_tau = 0;
};

/// Counter source the daemon polls (the switch driver in production; the
/// port model's counters here).
struct PortCounterFn {
  std::string link_topic;  // pub-sub topic identifying the upstream link
  std::function<std::int64_t()> frames_rx_ok;
  std::function<std::int64_t()> frames_rx_all;
};

class Corruptd {
 public:
  Corruptd(Simulator& sim, const CorruptdConfig& cfg, PubSubBus& bus);

  /// Register a monitored ingress port.
  void add_port(PortCounterFn port);

  void start();
  void stop();

  /// Poll counters once (also driven periodically by start()).
  void poll(SimTime now);

  /// Current estimated loss rate for a monitored link (by topic).
  /// Returns 0.0 when the window is empty — prefer estimate() for consumers
  /// that must distinguish "no loss" from "no information".
  double loss_rate(const std::string& topic) const;

  /// The windowed estimate with its evidence. `known` is false while the
  /// window holds no frames (before the first productive poll, or after
  /// window_tau evicted everything): an empty window means the daemon knows
  /// nothing, and reporting 0% loss would mask a dead counter source.
  struct WindowEstimate {
    double rate = 0.0;
    bool known = false;
    std::int64_t frames = 0;  // frames in the window (the denominator)
    SimTime age = -1;         // now - newest sample in the window; -1 unknown
  };
  WindowEstimate estimate(const std::string& topic) const;
  std::int64_t polls() const { return polls_; }
  std::int64_t stalled_polls() const { return stalled_polls_; }

  /// Fault injection: while stalled, the poll timer still fires but the
  /// driver does not respond — no counters are read, no loss estimate is
  /// updated, nothing is published (a monitor-blind interval). When the
  /// stall clears, the next successful poll reads the cumulative counters,
  /// so the whole blind window arrives as one large delta.
  void set_counter_stall(bool stalled) { stalled_ = stalled; }

 private:
  struct Window {
    struct Sample {
      std::int64_t ok;
      std::int64_t all;
      SimTime at;  // poll time the delta was read (drives window_tau)
    };
    std::deque<Sample> deltas;  // per-poll deltas
    std::int64_t last_ok = 0;
    std::int64_t last_all = 0;
    std::int64_t win_ok = 0;
    std::int64_t win_all = 0;
    bool notified = false;
    SimTime last_notify = 0;
  };

  Simulator& sim_;
  CorruptdConfig cfg_;
  PubSubBus& bus_;
  std::vector<PortCounterFn> ports_;
  std::vector<Window> windows_;
  std::unique_ptr<PeriodicTask> task_;
  std::int64_t polls_ = 0;
  std::int64_t stalled_polls_ = 0;
  bool stalled_ = false;
};

/// Wires a Corruptd notification to LinkGuardian activation: on first
/// notification for the topic, enables LG on the provided link with the
/// retransmission copy count from Eq. 2 (returned for inspection).
struct ActivationRecord {
  std::string topic;
  double measured_loss = 0.0;
  int retx_copies = 0;
  SimTime at = 0;
};

class LgActivator {
 public:
  LgActivator(PubSubBus& bus, double target_loss_rate)
      : bus_(bus), target_(target_loss_rate) {}

  /// Subscribe to `topic`; on notification run `activate(copies)`.
  void watch(const std::string& topic, std::function<void(int)> activate) {
    bus_.subscribe(topic, [this, activate = std::move(activate),
                           topic](const PubSubBus::Notification& n) {
      const int copies = lg::retx_copies(n.loss_rate, target_);
      records_.push_back({topic, n.loss_rate, copies, n.at});
      obs::emit(n.at, obs::Cat::kMonitor, obs::Kind::kActivate,
                obs::intern_actor(topic),
                static_cast<std::int64_t>(n.loss_rate * 1e9), copies);
      activate(copies);
    });
  }

  const std::vector<ActivationRecord>& records() const { return records_; }

 private:
  PubSubBus& bus_;
  double target_;
  std::vector<ActivationRecord> records_;
};

}  // namespace lgsim::monitor
