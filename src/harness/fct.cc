#include "harness/fct.h"

#include <memory>
#include <stdexcept>
#include <string>

#include "net/loss_model.h"
#include "transport/rdma.h"

namespace lgsim::harness {

const char* transport_name(Transport t) {
  switch (t) {
    case Transport::kDctcp: return "DCTCP";
    case Transport::kCubic: return "CUBIC";
    case Transport::kBbr: return "BBR";
    case Transport::kRdmaWrite: return "RDMA_WR";
  }
  return "?";
}

const char* protection_name(Protection p) {
  switch (p) {
    case Protection::kNoLoss: return "No loss";
    case Protection::kLossOnly: return "Loss";
    case Protection::kLg: return "LG";
    case Protection::kLgNb: return "LG_NB";
  }
  return "?";
}

transport::TcpConfig tcp_config(Transport t) {
  switch (t) {
    case Transport::kDctcp: return {transport::TcpCc::kDctcp};
    case Transport::kCubic: return {transport::TcpCc::kCubic};
    case Transport::kBbr: return {transport::TcpCc::kBbr};
    case Transport::kRdmaWrite: break;
  }
  throw std::invalid_argument(std::string("tcp_config: ") + transport_name(t) +
                              " is not a TCP transport");
}

namespace {

/// Loss model wrapper that records, per trial, which original data frames
/// (by uid = segment/PSN index) were corrupted. Drives the Fig. 13 tail-loss
/// classification and the "affected flow" bookkeeping.
class RecordingLoss final : public net::LossModel {
 public:
  explicit RecordingLoss(std::unique_ptr<net::LossModel> inner)
      : inner_(std::move(inner)) {}

  bool lose(SimTime now, const net::Packet& p) override {
    const bool lost = inner_->lose(now, p);
    if (lost && p.kind == net::PktKind::kData && !p.lg.retransmitted) {
      lost_original_uids_.push_back(p.uid);
    }
    return lost;
  }

  void begin_trial() { lost_original_uids_.clear(); }
  const std::vector<std::uint64_t>& lost_uids() const { return lost_original_uids_; }

 private:
  std::unique_ptr<net::LossModel> inner_;
  std::vector<std::uint64_t> lost_original_uids_;
};

void validate(const FctConfig& cfg) {
  const auto fail = [](const char* what) {
    throw std::invalid_argument(std::string("FctConfig: ") + what);
  };
  if (cfg.trials < 0) fail("trials must be >= 0");
  if (cfg.trial_bytes.empty() && cfg.flow_bytes <= 0)
    fail("flow_bytes must be > 0");
  for (const std::int64_t b : cfg.trial_bytes)
    if (b <= 0) fail("every trial_bytes entry must be > 0");
  if (!(cfg.loss_rate >= 0.0 && cfg.loss_rate < 1.0))
    fail("loss_rate must be in [0, 1)");
  if (cfg.rate <= 0) fail("rate must be > 0");
  if (cfg.inter_trial_gap < 0) fail("inter_trial_gap must be >= 0");
  if (cfg.trial_cap <= 0) fail("trial_cap must be > 0");
}

}  // namespace

FctResult run_fct(const FctConfig& cfg) {
  validate(cfg);
  Simulator sim;
  FctResult res;
  res.cfg = cfg;

  transport::PathConfig pc = cfg.path;
  pc.rate = cfg.rate;
  pc.link.rate = cfg.rate;
  // Host-side processing: kernel TCP stack ~12 us per receive; NIC-based
  // RDMA ~6 us (the paper's RDMA no-loss FCTs sit in the 10-20 us decade).
  pc.host_delay = cfg.transport == Transport::kRdmaWrite ? usec(6) : usec(12);
  pc.lg = lg::tuned_for_rate(pc.lg, cfg.rate);
  pc.lg.actual_loss_rate = cfg.loss_rate;
  // kLgNb forces out-of-order mode; kLg honours cfg.path.lg so the Table 2
  // ablations can toggle ordering / tail handling individually.
  if (cfg.protection == Protection::kLgNb) pc.lg.preserve_order = false;
  if (cfg.transport == Transport::kDctcp) pc.link.ecn_threshold_bytes = 100'000;

  transport::TestbedPath path(sim, pc);

  Rng rng(cfg.seed);
  RecordingLoss* loss = nullptr;
  if (cfg.protection != Protection::kNoLoss) {
    auto rec = std::make_unique<RecordingLoss>(
        std::make_unique<net::BernoulliLoss>(cfg.loss_rate, rng.split()));
    loss = rec.get();
    path.link().set_loss_model(std::move(rec));
  }
  if (cfg.protection == Protection::kLg || cfg.protection == Protection::kLgNb) {
    path.link().enable_lg();
  }

  const bool is_rdma = cfg.transport == Transport::kRdmaWrite;

  // One long-lived sender/receiver pair, reset per trial with a fresh flow
  // id (exactly like back-to-back client invocations on the testbed hosts).
  SimTime trial_fct = -1;
  auto on_done = [&](SimTime fct) { trial_fct = fct; };

  std::unique_ptr<transport::TcpSender> tcp_snd;
  std::unique_ptr<transport::TcpReceiver> tcp_rcv;
  std::unique_ptr<transport::RdmaSender> rdma_snd;
  std::unique_ptr<transport::RdmaReceiver> rdma_rcv;
  if (is_rdma) {
    rdma_snd = std::make_unique<transport::RdmaSender>(
        sim, 1, [&](net::Packet&& p) { path.send_from_a(std::move(p)); },
        on_done);
    rdma_rcv = std::make_unique<transport::RdmaReceiver>(
        1, [&](net::Packet&& p) { path.send_from_b(std::move(p)); });
    path.set_sink_at_b([&](net::Packet&& p) { rdma_rcv->on_data(p); });
    path.set_sink_at_a([&](net::Packet&& p) { rdma_snd->on_transport(p); });
  } else {
    tcp_snd = std::make_unique<transport::TcpSender>(
        sim, tcp_config(cfg.transport), 1,
        [&](net::Packet&& p) { path.send_from_a(std::move(p)); }, on_done);
    tcp_rcv = std::make_unique<transport::TcpReceiver>(
        1, [&](net::Packet&& p) { path.send_from_b(std::move(p)); });
    path.set_sink_at_b([&](net::Packet&& p) { tcp_rcv->on_data(p); });
    path.set_sink_at_a([&](net::Packet&& p) { tcp_snd->on_ack(p); });
  }

  const std::int64_t n_trials =
      cfg.trial_bytes.empty() ? cfg.trials
                              : static_cast<std::int64_t>(cfg.trial_bytes.size());

  for (std::int64_t trial = 0; trial < n_trials; ++trial) {
    const std::int64_t flow_bytes =
        cfg.trial_bytes.empty() ? cfg.flow_bytes : cfg.trial_bytes[trial];
    const std::int64_t seg_bytes =
        is_rdma ? transport::kRdmaPayload : transport::kTcpMss;
    const std::int64_t n_segs = (flow_bytes + seg_bytes - 1) / seg_bytes;
    const std::uint32_t fid = static_cast<std::uint32_t>(trial + 1);
    trial_fct = -1;
    if (loss != nullptr) loss->begin_trial();
    if (is_rdma) {
      rdma_snd->reset(fid);
      rdma_rcv->reset(fid);
      rdma_snd->start(flow_bytes);
    } else {
      tcp_snd->reset(fid);
      tcp_rcv->reset(fid);
      tcp_snd->start(flow_bytes);
    }
    const SimTime deadline = sim.now() + cfg.trial_cap;
    // Run until the flow completes or the cap is hit. The simulator is
    // single-threaded, so stepping in slices is cheap.
    while (trial_fct < 0 && sim.now() < deadline) {
      if (!sim.step()) break;
      if (sim.now() > deadline) break;
    }
    SimTime fct = trial_fct;
    if (fct < 0) {
      fct = cfg.trial_cap;
      ++res.trials_capped;
    }
    res.fct_us.add(to_usec(fct));

    const bool wire_loss = loss != nullptr && !loss->lost_uids().empty();
    if (wire_loss) ++res.trials_with_wire_loss;

    if (is_rdma) {
      const auto& ss = rdma_snd->stats();
      if (ss.retransmissions > 0) ++res.trials_with_e2e_retx;
      if (ss.rtos > 0) ++res.trials_with_rto;
    } else {
      const auto& ss = tcp_snd->stats();
      if (ss.retransmissions > 0) ++res.trials_with_e2e_retx;
      if (ss.rtos > 0) ++res.trials_with_rto;
      // Fig. 13 classification (meaningful for TCP under LG_NB).
      if (wire_loss && ss.ever_sacked) {
        ++res.classes.affected;
        bool tail = false;
        for (auto uid : loss->lost_uids()) {
          if (static_cast<std::int64_t>(uid) >= n_segs - 3) tail = true;
        }
        if (!ss.sacked_over_2mss) {
          if (tail) {
            ++res.classes.group_b;
          } else {
            ++res.classes.group_a;
          }
        } else if (ss.sacked_over_2mss_before_done) {
          ++res.classes.group_d;
        } else {
          ++res.classes.group_c;
        }
      }
    }

    // Idle gap before the next trial; lets LinkGuardian finish any recovery.
    const SimTime next_start = sim.now() + cfg.inter_trial_gap;
    sim.run(next_start);
  }

  return res;
}

}  // namespace lgsim::harness
