#include "harness/timeline.h"

#include <memory>
#include <stdexcept>
#include <string>

#include "net/loss_model.h"

namespace lgsim::harness {

namespace {

/// Seed of the timeline's corruption process.
constexpr std::uint64_t kTimelineSeed = 3;

/// Loss model that can be switched on mid-run (the VOA being engaged).
/// Gilbert-Elliott burstiness per the paper's 25G observation (§4.1).
class SwitchableLoss final : public net::LossModel {
 public:
  SwitchableLoss(double rate, double mean_burst, Rng rng)
      : inner_(net::GilbertElliottLoss::for_rate(rate, mean_burst), rng) {}
  bool lose(SimTime now, const net::Packet& p) override {
    return active_ && inner_.lose(now, p);
  }
  void activate() { active_ = true; }

 private:
  net::GilbertElliottLoss inner_;
  bool active_ = false;
};

void validate(const TimelineConfig& cfg) {
  const auto fail = [](const char* what) {
    throw std::invalid_argument(std::string("TimelineConfig: ") + what);
  };
  if (!(cfg.loss_rate >= 0.0 && cfg.loss_rate < 1.0))
    fail("loss_rate must be in [0, 1)");
  if (!(cfg.mean_burst >= 1.0)) fail("mean_burst must be >= 1");
  if (cfg.t_end <= 0) fail("t_end must be > 0");
  if (cfg.sample_period <= 0) fail("sample_period must be > 0");
}

}  // namespace

transport::PathConfig long_flow_path(BitRate rate, double loss_rate) {
  transport::PathConfig pc;
  pc.rate = rate;
  pc.link.rate = rate;
  pc.lg = lg::tuned_for_rate(pc.lg, rate);
  pc.lg.actual_loss_rate = loss_rate;
  return pc;
}

LongFlow::LongFlow(const transport::PathConfig& pc, Transport transport)
    : path_(sim_, pc),
      snd_(sim_, tcp_config(transport), 1,
           [this](net::Packet&& p) { path_.send_from_a(std::move(p)); },
           [](SimTime) {}),
      rcv_(1, [this](net::Packet&& p) { path_.send_from_b(std::move(p)); }) {
  path_.set_sink_at_b([this](net::Packet&& p) {
    delivered_ += p.tcp.payload;
    rcv_.on_data(p);
  });
  path_.set_sink_at_a([this](net::Packet&& p) { snd_.on_ack(p); });
}

void LongFlow::start() { snd_.start(1'000'000'000'000LL); }

double LongFlow::goodput_gbps(SimTime from, SimTime to) {
  if (!(from >= 0 && from < to))
    throw std::invalid_argument("LongFlow::goodput_gbps: need 0 <= from < to");
  sim_.run(from);
  const std::int64_t base = delivered_;
  sim_.run(to);
  return static_cast<double>(delivered_ - base) * 8.0 /
         static_cast<double>(to - from);
}

TimelineResult run_timeline(const TimelineConfig& cfg) {
  validate(cfg);
  TimelineResult res;
  res.cfg = cfg;

  transport::PathConfig pc = long_flow_path(cfg.rate, cfg.loss_rate);
  pc.link.normal_queue_bytes = 800'000;
  pc.lg.backpressure = cfg.backpressure;
  if (cfg.transport == Transport::kDctcp) pc.link.ecn_threshold_bytes = 100'000;
  pc.lg.recirc_buffer_bytes =
      cfg.recirc_budget_bytes > 0 ? cfg.recirc_budget_bytes : 200'000;
  if (cfg.resume_threshold_bytes > 0) {
    pc.lg.resume_threshold = cfg.resume_threshold_bytes;
    pc.lg.pause_threshold = cfg.resume_threshold_bytes + 2 * kEthernetMtu;
  }

  LongFlow flow(pc, cfg.transport);
  Simulator& sim = flow.sim();
  lg::ProtectedLink& link = flow.link();
  auto loss_owned = std::make_unique<SwitchableLoss>(
      cfg.loss_rate, cfg.mean_burst, Rng(kTimelineSeed));
  SwitchableLoss* loss = loss_owned.get();
  link.set_loss_model(std::move(loss_owned));
  flow.start();

  sim.schedule_at(cfg.t_corruption, [loss] { loss->activate(); });
  sim.schedule_at(cfg.t_lg, [&link] { link.enable_lg(); });

  std::int64_t sampled = 0;
  PeriodicTask sampler(sim, cfg.sample_period, [&](SimTime now) {
    res.goodput_gbps.record(
        now, static_cast<double>(flow.delivered() - sampled) * 8.0 /
                 static_cast<double>(cfg.sample_period));
    sampled = flow.delivered();
    res.qdepth_bytes.record(
        now, static_cast<double>(
                 link.forward_port().queue_bytes(link.normal_queue())));
    res.rx_buffer_bytes.record(
        now, static_cast<double>(link.receiver().reorder_buffer_bytes()));
    res.e2e_retx.record(
        now, static_cast<double>(flow.sender().stats().retransmissions));
  });
  sampler.start(cfg.sample_period);
  sim.schedule_at(cfg.t_end, [&] { sampler.stop(); });

  sim.run(cfg.t_end);
  res.reorder_drops = link.receiver().stats().reorder_drops;
  res.lg_effectively_lost = link.receiver().stats().effectively_lost;
  res.e2e_retx_total = flow.sender().stats().retransmissions;
  return res;
}

}  // namespace lgsim::harness
