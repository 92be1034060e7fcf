#include "harness/timeline.h"

#include <memory>

#include "net/loss_model.h"
#include "transport/path.h"

namespace lgsim::harness {

namespace {

/// Loss model that can be switched on mid-run (the VOA being engaged).
/// Gilbert-Elliott burstiness per the paper's 25G observation (§4.1).
class SwitchableLoss final : public net::LossModel {
 public:
  SwitchableLoss(double rate, double mean_burst, Rng rng)
      : inner_(net::GilbertElliottLoss::for_rate(rate, std::max(1.0, mean_burst)),
               rng) {}
  bool lose(SimTime now, const net::Packet& p) override {
    return active_ && inner_.lose(now, p);
  }
  void activate() { active_ = true; }

 private:
  net::GilbertElliottLoss inner_;
  bool active_ = false;
};

}  // namespace

TimelineResult run_timeline(const TimelineConfig& cfg) {
  const transport::TcpConfig tcfg = tcp_config(cfg.transport);
  Simulator sim;
  TimelineResult res;
  res.cfg = cfg;

  transport::PathConfig pc;
  pc.rate = cfg.rate;
  pc.host_delay = usec(12);
  pc.link.rate = cfg.rate;
  pc.link.normal_queue_bytes = 800'000;
  pc.lg = lg::tuned_for_rate(pc.lg, cfg.rate);
  pc.lg.actual_loss_rate = cfg.loss_rate;
  pc.lg.backpressure = cfg.backpressure;
  if (cfg.transport == Transport::kDctcp) pc.link.ecn_threshold_bytes = 100'000;
  pc.lg.recirc_buffer_bytes =
      cfg.recirc_budget_bytes > 0 ? cfg.recirc_budget_bytes : 200'000;
  if (cfg.resume_threshold_bytes > 0) {
    pc.lg.resume_threshold = cfg.resume_threshold_bytes;
    pc.lg.pause_threshold = cfg.resume_threshold_bytes + 2 * kEthernetMtu;
  }

  transport::TestbedPath path(sim, pc);
  auto loss_owned = std::make_unique<SwitchableLoss>(cfg.loss_rate, cfg.mean_burst,
                                                     Rng(cfg.seed));
  SwitchableLoss* loss = loss_owned.get();
  path.link().set_loss_model(std::move(loss_owned));

  transport::TcpSender snd(
      sim, tcfg, 1, [&](net::Packet&& p) { path.send_from_a(std::move(p)); },
      [](SimTime) {});
  transport::TcpReceiver rcv(
      1, [&](net::Packet&& p) { path.send_from_b(std::move(p)); });
  std::int64_t delivered_window = 0;
  path.set_sink_at_b([&](net::Packet&& p) {
    delivered_window += p.tcp.payload;
    rcv.on_data(p);
  });
  path.set_sink_at_a([&](net::Packet&& p) { snd.on_ack(p); });

  // Effectively infinite iperf flow.
  snd.start(1'000'000'000'000LL);

  sim.schedule_at(cfg.t_corruption, [&] { loss->activate(); });
  sim.schedule_at(cfg.t_lg, [&] { path.link().enable_lg(); });

  PeriodicTask sampler(sim, cfg.sample_period, [&](SimTime now) {
    res.goodput_gbps.record(
        now, static_cast<double>(delivered_window) * 8.0 /
                 static_cast<double>(cfg.sample_period));
    delivered_window = 0;
    res.qdepth_bytes.record(
        now, static_cast<double>(
                 path.link().forward_port().queue_bytes(path.link().normal_queue())));
    res.rx_buffer_bytes.record(
        now, static_cast<double>(path.link().receiver().reorder_buffer_bytes()));
    res.e2e_retx.record(now, static_cast<double>(snd.stats().retransmissions));
  });
  sampler.start(cfg.sample_period);
  sim.schedule_at(cfg.t_end, [&] { sampler.stop(); });

  sim.run(cfg.t_end);
  res.reorder_drops = path.link().receiver().stats().reorder_drops;
  res.lg_effectively_lost = path.link().receiver().stats().effectively_lost;
  res.e2e_retx_total = snd.stats().retransmissions;
  return res;
}

}  // namespace lgsim::harness
