// The four workloads of the repository benchmark (README.md explains why each
// was chosen and what it bypasses). Every workload is a closed batch of fixed
// work derived from the seed, run on one worker through the simulator's
// public entry points. Traced runs add replays of single layers, timed from
// here, around the same public calls.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <map>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "corropt/corropt.h"
#include "fabric/topology.h"
#include "harness/fct.h"
#include "harness/stress.h"
#include "lg/config.h"
#include "net/loss_model.h"
#include "net/packet.h"
#include "obs/trace.h"
#include "traffic/engine.h"
#include "traffic/fluid.h"
#include "traffic/path.h"
#include "workload/arrivals.h"
#include "workload/flow_sizes.h"

namespace lgbench {
namespace {

using namespace lgsim;

/// Per-cell input seed: an independent stream per (run seed, cell).
std::uint64_t cell_seed(std::uint64_t seed, std::size_t cell) {
  return workload::mix_stream(seed, 0x6c6762656e6368ULL, cell);
}

double seconds_since(std::int64_t t0) {
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

// ---------------------------------------------------------------------------
// stress_fig08: the Fig. 8 line-rate stress grid over one protected link,
// plus Gilbert-Elliott cells at the measured burstiness (Fig. 20).

class StressWorkload final : public Workload {
 public:
  explicit StressWorkload(std::uint64_t seed) : seed_(seed) {}

  const char* rate_name() const override { return "frames_per_s"; }

  void setup() override {
    grid_.clear();
    names_.clear();
    last_allocs_.clear();
    struct Axis {
      double burst;
      std::vector<double> losses;
    };
    for (const Axis& ax : {Axis{1.0, {1e-5, 1e-4, 1e-3}}, Axis{1.1, {1e-3}}}) {
      for (BitRate rate : {gbps(25), gbps(100)}) {
        for (double loss : ax.losses) {
          for (bool nb : {false, true}) {
            harness::StressConfig c;
            c.rate = rate;
            c.loss_rate = loss;
            c.mean_burst = ax.burst;
            c.lg.preserve_order = !nb;
            c.packets = kPackets;
            c.seed = cell_seed(seed_, grid_.size());
            char name[64];
            std::snprintf(name, sizeof name, "%s/%.0e/%s%s",
                          rate == gbps(25) ? "25G" : "100G", loss,
                          nb ? "LG_NB" : "LG", ax.burst > 1.0 ? "/GE1.1" : "");
            names_.push_back(name);
            grid_.push_back(c);
            last_allocs_.push_back(0);
          }
        }
      }
    }
  }

  std::string config() const override {
    std::string s = "stress_fig08 packets=" + std::to_string(kPackets);
    for (const auto& c : grid_) {
      s += " [" + std::to_string(c.rate) + "," + std::to_string(c.loss_rate) +
           "," + std::to_string(c.mean_burst) + "," +
           std::to_string(c.lg.preserve_order) + "," +
           std::to_string(c.seed) + "]";
    }
    return s;
  }

  double ops_per_batch() const override {
    return static_cast<double>(kPackets) * static_cast<double>(grid_.size());
  }

  void run_batch(Tracer* tr, bool traced) override {
    results_.assign(grid_.size(), {});
    if (traced) harvest_ = {};
    for (std::size_t i = 0; i < grid_.size(); ++i) {
      SpanScope span(tr, "harness.run_stress");
      if (traced) {
        obs::TraceSink sink("stress " + names_[i]);
        {
          obs::SinkScope scope(&sink);
          results_[i] = harness::run_stress(grid_[i]);
        }
        harvest(sink.metrics());
      } else {
        const std::uint64_t a0 = heap_allocs();
        times_.time(i, [&] { results_[i] = harness::run_stress(grid_[i]); });
        last_allocs_[i] = heap_allocs() - a0;
      }
    }
  }

  std::vector<CellResult> check_batch() const override {
    std::vector<CellResult> out;
    for (std::size_t i = 0; i < grid_.size(); ++i) out.push_back(check(i));
    return out;
  }

  void layers(Tracer& tr, LayerReport& out) override {
    report_cells(times_, out);
    double frames_ord = 0, frames_nb = 0, prot_ord = 0, prot_nb = 0;
    double unprot_ord = 0, unprot_nb = 0, unprot_all = 0;
    double draws = 0, draw_s = 0, lg_allocs = 0;
    for (std::size_t i = 0; i < grid_.size(); ++i) {
      const harness::StressConfig& c = grid_[i];
      const bool ordered = c.lg.preserve_order;
      const double frames = static_cast<double>(c.packets);

      // The same cell with LinkGuardian off: the port/queue datapath, the
      // loss draws and the event kernel without the LG sender/receiver.
      harness::StressConfig off = c;
      off.enable_lg = false;
      tr.begin("net.unprotected_replay");
      harness::run_stress(off);
      const double unprot = tr.end();
      unprot_all += unprot;
      (ordered ? frames_ord : frames_nb) += frames;
      (ordered ? prot_ord : prot_nb) += times_.wall(i);
      (ordered ? unprot_ord : unprot_nb) += unprot;
      lg_allocs += static_cast<double>(last_allocs_[i]);

      // The public loss models alone, at the cell's rate and frame count.
      Rng rng(c.seed);
      std::unique_ptr<net::LossModel> loss;
      if (c.mean_burst <= 1.0) {
        loss = std::make_unique<net::BernoulliLoss>(c.loss_rate, rng.split());
      } else {
        loss = std::make_unique<net::GilbertElliottLoss>(
            net::GilbertElliottLoss::for_rate(c.loss_rate, c.mean_burst),
            rng.split());
      }
      net::Packet p;
      p.kind = net::PktKind::kData;
      p.frame_bytes = c.frame_bytes;
      std::int64_t lost = 0;
      tr.begin("net.loss_draws");
      for (std::int64_t f = 0; f < c.packets; ++f) lost += loss->lose(0, p);
      draw_s += tr.end();
      draws += frames;
      keep(static_cast<double>(lost));
    }
    const double frames = frames_ord + frames_nb;
    out.values["net.port_ns_per_frame"] = unprot_all / frames * 1e9;
    out.values["net.loss_draw_ns"] = draw_s / draws * 1e9;
    out.values["lg.ordered.ns_per_frame"] =
        (prot_ord - unprot_ord) / frames_ord * 1e9;
    out.values["lg.nb.ns_per_frame"] = (prot_nb - unprot_nb) / frames_nb * 1e9;
    out.values["lg.allocs_per_frame"] = lg_allocs / frames;
    out.values["sim.events"] = harvest_.events;
    out.values["sim.peak_pending"] = harvest_.peak_pending;
    out.values["sim.ns_per_event"] = (prot_ord + prot_nb) / harvest_.events * 1e9;
    out.values["net.frames_enqueued"] = harvest_.enqueued;
    out.values["net.frames_dropped"] = harvest_.dropped;
    out.values["lg.retx_copies"] = harvest_.retx_copies;
    out.values["lg.recovered"] = harvest_.recovered;
    out.values["lg.timeouts"] = harvest_.timeouts;
    out.values["lg.pauses"] = harvest_.pauses;
  }

 private:
  static constexpr std::int64_t kPackets = 100'000;

  struct Harvest {
    double events = 0, peak_pending = 0, enqueued = 0, dropped = 0;
    double retx_copies = 0, recovered = 0, timeouts = 0, pauses = 0;
  };

  void harvest(const obs::MetricsRegistry& m) {
    for (const auto& [name, v] : m.snapshot()) {
      if (name == "sim.events_executed") harvest_.events += v;
      if (name == "sim.peak_heap_depth")
        harvest_.peak_pending = std::max(harvest_.peak_pending, v);
      if (name == "lg.retx_copies_sent") harvest_.retx_copies += v;
      if (name == "lg.recovered") harvest_.recovered += v;
      if (name == "lg.timeouts") harvest_.timeouts += v;
      if (name == "lg.pauses_sent") harvest_.pauses += v;
      if (name.rfind("port.", 0) == 0 && ends_with(name, ".enq_frames"))
        harvest_.enqueued += v;
      if (name.rfind("port.", 0) == 0 && ends_with(name, ".drop_frames"))
        harvest_.dropped += v;
    }
  }

  CellResult check(std::size_t i) const {
    const harness::StressConfig& c = grid_[i];
    const harness::StressResult& r = results_[i];
    CellResult cell;
    cell.name = names_[i];
    Digest d;
    for (std::int64_t v : {r.offered_pkts, r.protected_sent, r.corrupted_frames,
                           r.data_frames_lost, r.effectively_lost, r.forwarded,
                           r.timeouts, r.retx_copies_sent, r.pauses,
                           static_cast<std::int64_t>(r.elapsed)})
      d.add(v);
    for (double v : {r.actual_loss_rate, r.effective_loss_rate,
                     r.analytic_loss_rate, r.effective_speed_frac,
                     r.recirc_overhead_tx_frac, r.recirc_overhead_rx_frac})
      d.add(v);
    d.add(r.tx_buffer_bytes);
    d.add(r.rx_buffer_bytes);
    d.add(r.retx_delay_us);
    cell.digest = d.value();

    std::string& b = cell.broken;
    expect(r.offered_pkts == c.packets, b, "offered != packets");
    expect(r.protected_sent == c.packets, b, "protected_sent != packets");
    expect(r.forwarded + r.effectively_lost == r.offered_pkts, b,
           "forwarded + effectively_lost != offered");
    expect(r.effectively_lost <= r.data_frames_lost, b,
           "LG lost more frames than the wire");
    // Wire losses within 8 sigma of the configured rate (bursts inflate the
    // variance by about the mean burst length).
    const double mean = c.loss_rate * static_cast<double>(c.packets);
    expect(std::fabs(static_cast<double>(r.data_frames_lost) - mean) <=
               8.0 * std::sqrt(mean * c.mean_burst) + 3.0,
           b, "wire loss rate off the configured rate");
    expect(r.effective_speed_frac > 0.5 && r.effective_speed_frac <= 1.0 + 1e-9,
           b, "effective speed outside (0.5, 1]");
    return cell;
  }

  std::uint64_t seed_;
  std::vector<harness::StressConfig> grid_;
  std::vector<std::string> names_;
  std::vector<harness::StressResult> results_;
  std::vector<std::uint64_t> last_allocs_;
  Harvest harvest_;
};


// ---------------------------------------------------------------------------
// fct_testbed: the Figs. 10-12/21 testbed FCT runs, every transport under
// every protection at the three paper flow sizes.

class FctWorkload final : public Workload {
 public:
  explicit FctWorkload(std::uint64_t seed) : seed_(seed) {}

  const char* rate_name() const override { return "trials_per_s"; }

  void setup() override {
    grid_.clear();
    names_.clear();
    using harness::Protection;
    using harness::Transport;
    for (const Size& sz : kSizes) {
      for (Transport t : {Transport::kDctcp, Transport::kCubic, Transport::kBbr,
                          Transport::kRdmaWrite}) {
        for (Protection p : {Protection::kNoLoss, Protection::kLossOnly,
                             Protection::kLg, Protection::kLgNb}) {
          harness::FctConfig c;
          c.transport = t;
          c.protection = p;
          c.flow_bytes = sz.bytes;
          c.trials = sz.trials;
          c.loss_rate = 1e-3;
          c.rate = gbps(100);
          c.seed = cell_seed(seed_, grid_.size());
          names_.push_back(std::string(harness::transport_name(t)) + "/" +
                           harness::protection_name(p) + "/" +
                           std::to_string(sz.bytes) + "B");
          grid_.push_back(c);
        }
      }
    }
  }

  std::string config() const override {
    std::string s = "fct_testbed";
    for (const auto& c : grid_) {
      s += " [" + std::to_string(static_cast<int>(c.transport)) + "," +
           std::to_string(static_cast<int>(c.protection)) + "," +
           std::to_string(c.flow_bytes) + "," + std::to_string(c.trials) +
           "," + std::to_string(c.loss_rate) + "," + std::to_string(c.rate) +
           "," + std::to_string(c.seed) + "]";
    }
    return s;
  }

  double ops_per_batch() const override {
    double n = 0;
    for (const auto& c : grid_) n += static_cast<double>(c.trials);
    return n;
  }

  void run_batch(Tracer* tr, bool traced) override {
    results_.assign(grid_.size(), {});
    for (std::size_t i = 0; i < grid_.size(); ++i) {
      SpanScope span(tr, "harness.run_fct");
      if (traced) {
        obs::TraceSink sink("fct " + names_[i]);
        obs::SinkScope scope(&sink);
        results_[i] = harness::run_fct(grid_[i]);
      } else {
        const std::uint64_t a0 = heap_allocs();
        times_.time(i, [&] { results_[i] = harness::run_fct(grid_[i]); });
        allocs_ = (i == 0 ? 0 : allocs_) + (heap_allocs() - a0);
      }
    }
  }

  std::vector<CellResult> check_batch() const override {
    std::vector<CellResult> out;
    for (std::size_t i = 0; i < grid_.size(); ++i) {
      const harness::FctConfig& c = grid_[i];
      const harness::FctResult& r = results_[i];
      CellResult cell;
      cell.name = names_[i];
      Digest d;
      d.add(r.fct_us);
      for (std::int64_t v :
           {r.trials_with_wire_loss, r.trials_with_e2e_retx, r.trials_with_rto,
            r.trials_capped, r.classes.affected, r.classes.group_a,
            r.classes.group_b, r.classes.group_c, r.classes.group_d})
        d.add(v);
      cell.digest = d.value();
      std::string& b = cell.broken;
      expect(r.fct_us.count() == c.trials, b, "FCT samples != trials");
      expect(r.trials_capped == 0, b, "trials hit the 200 ms cap");
      expect(r.fct_us.min() > 0, b, "non-positive FCT");
      if (c.protection == harness::Protection::kNoLoss) {
        expect(r.trials_with_wire_loss == 0 && r.trials_with_e2e_retx == 0, b,
               "loss or retransmission without a loss model");
      }
      expect(r.classes.group_a + r.classes.group_b + r.classes.group_c +
                     r.classes.group_d ==
                 r.classes.affected,
             b, "Fig. 13 groups do not partition affected flows");
      out.push_back(std::move(cell));
    }
    return out;
  }

  void layers(Tracer&, LayerReport& out) override {
    report_cells(times_, out);
    using harness::Protection;
    const char* const keys[] = {"transport.dctcp.us_per_trial",
                                "transport.cubic.us_per_trial",
                                "transport.bbr.us_per_trial",
                                "transport.rdma.us_per_trial"};
    double loss_s[4] = {}, loss_trials[4] = {};
    double lg_s = 0, lg_base_s = 0, lg_trials = 0;
    // Cells are ordered size-major, then transport, then protection, so the
    // loss-only cell of (size, transport) sits at the block's offset 1.
    for (std::size_t i = 0; i < grid_.size(); ++i) {
      const harness::FctConfig& c = grid_[i];
      const auto t = static_cast<std::size_t>(c.transport);
      if (c.protection == Protection::kLossOnly) {
        loss_s[t] += times_.wall(i);
        loss_trials[t] += static_cast<double>(c.trials);
      }
      if (c.protection == Protection::kLg || c.protection == Protection::kLgNb) {
        const std::size_t base = i - static_cast<std::size_t>(c.protection) +
                                 static_cast<std::size_t>(Protection::kLossOnly);
        lg_s += times_.wall(i);
        lg_base_s += times_.wall(base);
        lg_trials += static_cast<double>(c.trials);
      }
    }
    for (std::size_t t = 0; t < 4; ++t)
      out.values[keys[t]] = loss_s[t] / loss_trials[t] * 1e6;
    out.values["lg.fct_overhead_us"] = (lg_s - lg_base_s) / lg_trials * 1e6;
    out.values["transport.allocs_per_trial"] =
        static_cast<double>(allocs_) / ops_per_batch();
    const char* why =
        "harness::run_fct exports no Simulator, port or LG counters to the "
        "installed sink";
    for (const char* name :
         {"sim.events", "sim.peak_pending", "sim.ns_per_event",
          "net.frames_enqueued", "net.frames_dropped", "lg.retx_copies",
          "lg.recovered", "lg.timeouts", "lg.pauses"})
      out.unmeasured[name] = why;
  }

 private:
  struct Size {
    std::int64_t bytes;
    std::int64_t trials;
  };
  static constexpr Size kSizes[] = {{143, 4000}, {24'387, 1000}, {2'000'000, 10}};

  std::uint64_t seed_;
  std::vector<harness::FctConfig> grid_;
  std::vector<std::string> names_;
  std::vector<harness::FctResult> results_;
  std::uint64_t allocs_ = 0;
};

// ---------------------------------------------------------------------------
// traffic_fabric: the paper-scale fabric (260 pods, 99,840 links, 64
// corrupting links at capacity constraint 0.9) under CorrOpt-only and
// CorrOpt+LG, hybrid fidelity.

/// The engine's corruption scenario rebuilt from public calls: which links
/// corrupt, which CorrOpt disables, and the hot links the result must report.
struct ScenarioReplica {
  fabric::FabricTopology topo;
  std::vector<traffic::HotLink> hot;     // ascending link id
  std::vector<std::int32_t> hot_index;   // link id -> index into hot, or -1
  std::int64_t disabled = 0;

  explicit ScenarioReplica(const traffic::EngineConfig& cfg) : topo(cfg.topo) {
    Rng rng(cfg.scenario_seed);
    const std::int64_t n_links = topo.n_links();
    std::vector<std::uint8_t> picked(static_cast<std::size_t>(n_links), 0);
    std::vector<std::int64_t> ids;
    while (static_cast<std::int64_t>(ids.size()) <
           std::min<std::int64_t>(cfg.corrupting_links, n_links)) {
      const auto id = static_cast<std::int64_t>(
          rng.uniform_int(static_cast<std::uint64_t>(n_links)));
      if (picked[static_cast<std::size_t>(id)]) continue;
      picked[static_cast<std::size_t>(id)] = 1;
      ids.push_back(id);
    }
    using Kind = fabric::LinkTransition::Kind;
    for (const std::int64_t id : ids) {
      const double loss = corropt::sample_loss_rate(rng);
      topo.apply({Kind::kCorrupt, id, loss, 1.0});
      if (topo.can_disable(id, cfg.capacity_constraint)) {
        topo.apply({Kind::kDisable, id, 0.0, 1.0});
        ++disabled;
        continue;
      }
      traffic::HotLink h{id, loss, loss, false};
      if (cfg.scheme == traffic::Scheme::kCorrOptLg) {
        topo.apply({Kind::kEnableLg, id, 0.0, corropt::lg_effective_speed(loss)});
        const int n = lg::retx_copies(loss, cfg.lg_target_loss);
        h.residual = std::min(loss, std::pow(loss, n + 1));
        h.lg = true;
      }
      hot.push_back(h);
    }
    std::sort(hot.begin(), hot.end(),
              [](const auto& a, const auto& b) { return a.id < b.id; });
    hot_index.assign(static_cast<std::size_t>(n_links), -1);
    for (std::size_t i = 0; i < hot.size(); ++i)
      hot_index[static_cast<std::size_t>(hot[i].id)] = static_cast<std::int32_t>(i);
  }
};

class TrafficWorkload final : public Workload {
 public:
  explicit TrafficWorkload(std::uint64_t seed) : seed_(seed) {}

  const char* rate_name() const override { return "flows_per_s"; }

  void setup() override {
    arms_.clear();
    scenarios_.clear();
    for (traffic::Scheme s :
         {traffic::Scheme::kCorrOptOnly, traffic::Scheme::kCorrOptLg}) {
      traffic::EngineConfig c;
      c.topo = {.pods = 260, .tors_per_pod = 48, .fabrics_per_pod = 4,
                .spines_per_plane = 48};
      c.hosts_per_tor = 4;
      c.duration_sec = 0.005;
      c.slices = 8;
      c.seeds = {seed_};
      c.scheme = s;
      c.fidelity = traffic::Fidelity::kHybrid;
      c.corrupting_links = 64;
      c.capacity_constraint = 0.9;
      // One corruption snapshot for every seed; the seed draws the flows.
      // Which links are hot and how lossy they are decides how much packet
      // replay a batch does, so a per-seed snapshot would swing the batch's
      // work by up to a fifth between seeds and hide code changes in the
      // spread.
      c.scenario_seed = 17;
      c.arrivals.load_fraction = 0.1;
      c.transport = harness::Transport::kDctcp;
      c.link_rate = gbps(100);
      c.shards = 1;
      arms_.push_back(c);
      const std::int64_t t0 = now_ns();
      scenarios_.push_back(std::make_unique<ScenarioReplica>(c));
      build_s_.push_back(seconds_since(t0));
    }
  }

  std::string config() const override {
    std::string s = "traffic_fabric";
    for (const auto& c : arms_) {
      s += " [" + std::to_string(c.topo.pods) + "," +
           std::to_string(c.topo.tors_per_pod) + "," +
           std::to_string(c.topo.fabrics_per_pod) + "," +
           std::to_string(c.topo.spines_per_plane) + "," +
           std::to_string(c.hosts_per_tor) + "," +
           std::to_string(c.duration_sec) + "," + std::to_string(c.slices) +
           "," + std::to_string(c.seeds.front()) + "," +
           traffic::scheme_name(c.scheme) + "," +
           std::to_string(c.corrupting_links) + "," +
           std::to_string(c.capacity_constraint) + "," +
           std::to_string(c.scenario_seed) + "," +
           std::to_string(c.arrivals.load_fraction) + "," +
           std::to_string(c.max_packet_flows_per_cell) + "]";
    }
    return s;
  }

  double ops_per_batch() const override { return flows_; }

  void run_batch(Tracer* tr, bool traced) override {
    results_.assign(arms_.size(), {});
    flows_ = 0;
    if (traced) harvest_ = {};
    for (std::size_t i = 0; i < arms_.size(); ++i) {
      if (traced) {
        obs::TraceSink sink(traffic::scheme_name(arms_[i].scheme));
        {
          obs::SinkScope scope(&sink);
          results_[i] = traffic::run_traffic(arms_[i], 1);
        }
        for (const auto& [name, v] : sink.metrics().snapshot())
          harvest_[name] += v;
        read_tails(results_[i]);
      } else {
        times_.time(i, [&] {
          const std::uint64_t a0 = heap_allocs();
          const std::int64_t t0 = now_ns();
          {
            SpanScope span(tr, "traffic.run_traffic");
            results_[i] = traffic::run_traffic(arms_[i], 1);
          }
          run_s_[i].push_back(seconds_since(t0));
          allocs_[i] = heap_allocs() - a0;
          const std::int64_t q0 = now_ns();
          SpanScope span(tr, "util.percentile");
          read_tails(results_[i]);
          percentile_s_.push_back(seconds_since(q0));
        });
      }
      flows_ += static_cast<double>(results_[i].generated);
    }
  }

  std::vector<CellResult> check_batch() const override {
    std::vector<CellResult> out;
    for (std::size_t i = 0; i < arms_.size(); ++i) {
      const traffic::TrafficResult& r = results_[i];
      const ScenarioReplica& sc = *scenarios_[i];
      CellResult cell;
      cell.name = traffic::scheme_name(arms_[i].scheme);
      Digest d;
      for (std::int64_t v : {r.generated, r.completed, r.stranded, r.victims,
                             r.packet_flows, r.fluid_flows,
                             r.victim_fluid_fallback, r.disabled_links})
        d.add(v);
      for (const traffic::HotLink& h : r.hot_links) {
        d.add(h.id);
        d.add(h.loss_rate);
        d.add(h.residual);
        d.add(static_cast<std::int64_t>(h.lg));
      }
      d.add(r.sim_hours);
      d.add(r.fct_victim_us);
      d.add(r.fct_bg_us);
      cell.digest = d.value();

      std::string& b = cell.broken;
      expect(r.generated == r.completed + r.stranded, b,
             "generated != completed + stranded");
      expect(r.completed == r.packet_flows + r.fluid_flows, b,
             "completed != packet + fluid");
      expect(r.fct_victim_us.count() == r.victims, b,
             "victim FCT samples != victims");
      expect(r.fct_victim_us.count() + r.fct_bg_us.count() == r.completed, b,
             "FCT samples != completed flows");
      expect(r.victims > 0 && r.generated > 2'000'000, b,
             "paper-scale arm produced too few flows or no victims");
      bool same_hot = r.hot_links.size() == sc.hot.size() &&
                      r.disabled_links == sc.disabled;
      for (std::size_t h = 0; same_hot && h < sc.hot.size(); ++h) {
        same_hot = r.hot_links[h].id == sc.hot[h].id &&
                   r.hot_links[h].loss_rate == sc.hot[h].loss_rate &&
                   r.hot_links[h].residual == sc.hot[h].residual &&
                   r.hot_links[h].lg == sc.hot[h].lg;
      }
      expect(same_hot, b, "hot links differ from the CorrOpt scenario");
      out.push_back(std::move(cell));
    }
    return out;
  }

  void layers(Tracer& tr, LayerReport& out) override;

 private:
  struct Flow {
    std::int64_t src, dst, bytes;
    std::uint64_t hash, aux;
    traffic::PathInfo path;
    std::int32_t hot = -1;
  };

  /// What a user reads off a result: victim and background FCT tails.
  static void read_tails(const traffic::TrafficResult& r) {
    for (double p : {50.0, 99.0, 99.9}) keep(r.p_victim(p) + r.p_bg(p));
  }

  std::uint64_t seed_;
  std::vector<traffic::EngineConfig> arms_;
  std::vector<std::unique_ptr<ScenarioReplica>> scenarios_;
  std::vector<traffic::TrafficResult> results_;
  double flows_ = 0;
  std::vector<double> run_s_[2];
  std::uint64_t allocs_[2] = {};
  std::vector<double> percentile_s_;
  std::vector<double> build_s_;
  std::map<std::string, double> harvest_;
};

/// Replays both arms' cell pipelines from public calls, one layer at a time
/// (generation, path resolution, fluid model, packet replay), and checks the
/// replay reproduces run_traffic's result bit for bit before reporting the
/// per-layer times.
void TrafficWorkload::layers(Tracer& tr, LayerReport& out) {
  double resolve_s = 0, fluid_s = 0, replay_s = 0;
  double n_flows = 0, n_fluid = 0;
  CellTimes cells;
  std::size_t cell_index = 0;
  bool replica_ok = true;
  for (std::size_t arm = 0; arm < arms_.size(); ++arm) {
    const traffic::EngineConfig& cfg = arms_[arm];
    const ScenarioReplica& sc = *scenarios_[arm];
    const traffic::PathResolver resolver(sc.topo, cfg.hosts_per_tor);
    const std::int64_t n_hosts = resolver.n_hosts();
    const auto dist = workload::FlowSizeDistribution::make(cfg.workload);
    traffic::FluidConfig fl = cfg.fluid;
    fl.load = cfg.arrivals.load_fraction;
    const traffic::FluidModel fluid(fl, cfg.link_rate);
    PercentileTracker victim_us, bg_us;
    std::int64_t generated = 0, stranded = 0, victims = 0;

    for (std::int32_t slice = 0; slice < cfg.slices; ++slice, ++cell_index) {
      const std::int64_t cell_t0 = now_ns();
      const double cell_c0 = cpu_seconds();
      const double slice_dur = cfg.duration_sec / cfg.slices;
      const double t0 = slice * slice_dur, t1 = (slice + 1) * slice_dur;
      const std::uint64_t seed = cfg.seeds.front();
      std::vector<Flow> flows;

      tr.begin("workload.generate");
      for (std::int64_t host = 0; host < n_hosts; ++host) {
        Rng hr = workload::stream_rng(seed, static_cast<std::uint64_t>(slice),
                                      static_cast<std::uint64_t>(host));
        workload::ArrivalProcess arrivals(cfg.arrivals, dist.mean_bytes(),
                                          hr.split());
        for (double t = t0 + arrivals.next_gap_sec(); t < t1;
             t += arrivals.next_gap_sec()) {
          Flow f{};
          f.src = host;
          f.bytes = dist.sample(hr);
          f.dst = static_cast<std::int64_t>(
              hr.uniform_int(static_cast<std::uint64_t>(n_hosts - 1)));
          if (f.dst >= host) ++f.dst;
          f.hash = hr.next_u64();
          f.aux = hr.next_u64();
          flows.push_back(f);
        }
      }
      tr.end();

      tr.begin("traffic.resolve");
      for (Flow& f : flows) f.path = resolver.resolve(f.src, f.dst, f.hash);
      resolve_s += tr.end();
      n_flows += static_cast<double>(flows.size());

      // Classification and the per-cell packet budget (engine glue).
      std::map<std::pair<std::int32_t, std::int32_t>, std::vector<std::int64_t>>
          groups;
      std::int64_t budget = cfg.max_packet_flows_per_cell;
      std::vector<const Flow*> fluid_flows;
      for (Flow& f : flows) {
        ++generated;
        if (!f.path.ok) {
          ++stranded;
          continue;
        }
        for (std::int32_t l = 0; l < f.path.n_links && f.hot < 0; ++l)
          f.hot = sc.hot_index[static_cast<std::size_t>(f.path.links[l])];
        if (f.hot >= 0) ++victims;
        if (f.hot >= 0 && budget > 0) {
          --budget;
          groups[{f.hot, f.path.n_links}].push_back(f.bytes);
        } else {
          fluid_flows.push_back(&f);
        }
      }

      tr.begin("traffic.fluid");
      for (const Flow* f : fluid_flows) {
        Rng fr(f->aux);
        const double loss = f->hot >= 0 ? sc.hot[f->hot].residual : 0.0;
        (f->hot >= 0 ? victim_us : bg_us)
            .add(fluid.fct_ns(f->bytes, f->path.n_links, loss, fr) / 1000.0);
      }
      fluid_s += tr.end();
      n_fluid += static_cast<double>(fluid_flows.size());

      tr.begin("traffic.replay");
      for (const auto& [key, sizes] : groups) {
        const traffic::HotLink& h = sc.hot[static_cast<std::size_t>(key.first)];
        harness::FctConfig fc;
        fc.transport = cfg.transport;
        fc.rate = cfg.link_rate;
        fc.path.lg.target_loss_rate = cfg.lg_target_loss;
        fc.path.link.prop_delay +=
            nsec(700) * std::max<std::int32_t>(0, key.second - 1);
        fc.protection =
            h.lg ? harness::Protection::kLg : harness::Protection::kLossOnly;
        fc.loss_rate = h.loss_rate;
        fc.trial_bytes = sizes;
        fc.seed = workload::mix_stream(
            seed, 0x5eedf10c00000000ULL | static_cast<std::uint64_t>(slice),
            (static_cast<std::uint64_t>(key.first + 1) << 8) |
                static_cast<std::uint64_t>(key.second));
        victim_us.merge(harness::run_fct(fc).fct_us);
      }
      replay_s += tr.end();
      cells.record(cell_index, seconds_since(cell_t0), cpu_seconds() - cell_c0);
    }

    const traffic::TrafficResult& r = results_[arm];
    Digest mine, theirs;
    mine.add(victim_us);
    mine.add(bg_us);
    theirs.add(r.fct_victim_us);
    theirs.add(r.fct_bg_us);
    replica_ok = replica_ok && mine.value() == theirs.value() &&
                 generated == r.generated && stranded == r.stranded &&
                 victims == r.victims;
  }

  // Flow-size and arrival-gap draws alone, over as many draws as the
  // population has flows.
  {
    const auto dist =
        workload::FlowSizeDistribution::make(arms_.front().workload);
    Rng rng(seed_);
    std::int64_t acc = 0;
    const auto n = static_cast<std::int64_t>(n_flows);
    tr.begin("workload.sample");
    for (std::int64_t i = 0; i < n; ++i) acc += dist.sample(rng);
    out.values["workload.sample_ns"] = tr.end() / n_flows * 1e9;
    workload::ArrivalProcess arrivals(arms_.front().arrivals, dist.mean_bytes(),
                                      rng.split());
    double t = 0;
    tr.begin("workload.gap");
    for (std::int64_t i = 0; i < n; ++i) t += arrivals.next_gap_sec();
    out.values["workload.gap_ns"] = tr.end() / n_flows * 1e9;
    keep(static_cast<double>(acc) + t);
  }

  double run_s = 0;
  for (const auto& v : run_s_) run_s += CellTimes::estimate(v);
  double allocs = 0;
  for (std::uint64_t a : allocs_) allocs += static_cast<double>(a);
  report_cells(cells, out);
  out.values["traffic.resolve_ns"] = resolve_s / n_flows * 1e9;
  out.values["traffic.fluid_ns"] = fluid_s / n_fluid * 1e9;
  out.values["traffic.replay_s"] = replay_s;
  // Glue: everything run_traffic does besides the replayed layer calls
  // (stream set-up, destination and hash draws, classification, budgets,
  // grouping, merging).
  const double layer_s =
      n_flows * (out.values["workload.sample_ns"] + out.values["workload.gap_ns"]) * 1e-9 +
      resolve_s + fluid_s + replay_s;
  out.values["traffic.glue_s"] = run_s - layer_s;
  out.values["traffic.allocs_per_flow"] = allocs / flows_;
  out.values["util.percentile_s"] =
      CellTimes::estimate(percentile_s_) * static_cast<double>(arms_.size());
  out.values["fabric.build_s"] = median(build_s_);
  for (const char* k : {"generated", "victim", "packet", "fluid", "stranded"})
    out.values[std::string("traffic.flows_") + k] =
        harvest_["traffic.flows_" + std::string(k)];
  if (!replica_ok) {
    for (const char* k : {"traffic.resolve_ns", "traffic.fluid_ns",
                          "traffic.replay_s", "traffic.glue_s"}) {
      out.values.erase(k);
      out.unmeasured[k] =
          "the benchmark's replay of the cell pipeline no longer reproduces "
          "run_traffic; update perfbench/workloads.cc";
    }
  }
}

// ---------------------------------------------------------------------------
// deploy_year: the §4.8 deployment simulation at paper scale (260 pods, 52
// weeks), CorrOpt with and without LinkGuardian.

/// One fabric call of the deployment loop, recorded by the replica so the
/// fabric layer can be timed alone.
struct FabricOp {
  bool is_apply = true;       // else can_disable(tr.link)
  fabric::LinkTransition tr;
};

/// run_deployment rebuilt from public calls (CorruptionStream,
/// FabricTopology::apply / can_disable and the metric queries), recording
/// every fabric call in order.
corropt::DeploymentResult replay_deployment(const corropt::DeploymentConfig& cfg,
                                            std::vector<FabricOp>& ops) {
  using fabric::LinkTransition;
  using Kind = LinkTransition::Kind;
  corropt::DeploymentResult res;
  res.cfg = cfg;
  fabric::FabricTopology topo(cfg.topo);
  Rng rng(cfg.seed);
  Rng repair_rng = rng.split();
  corropt::CorruptionStream stream(topo.n_links(), cfg.duration_hours,
                                   cfg.mttf_hours, rng);
  struct Repair {
    double time_hours;
    std::int64_t link;
    bool operator>(const Repair& o) const { return time_hours > o.time_hours; }
  };
  std::priority_queue<Repair, std::vector<Repair>, std::greater<>> repairs;
  struct Active {
    double loss_rate;
    std::int64_t link;
  };
  std::vector<Active> active;  // (loss desc, link asc): the optimizer's order

  auto apply = [&](LinkTransition tr) {
    ops.push_back({true, tr});
    topo.apply(tr);
  };
  auto can_disable = [&](std::int64_t id) {
    ops.push_back({false, {Kind::kCorrupt, id}});
    return topo.can_disable(id, cfg.capacity_constraint);
  };
  auto disable = [&](std::int64_t id, double now) {
    apply({Kind::kDisable, id});
    const double d = repair_rng.bernoulli(cfg.repair_fast_fraction)
                         ? cfg.repair_fast_hours
                         : cfg.repair_slow_hours;
    repairs.push({now + d, id});
  };

  double next_sample = cfg.sample_period_hours;
  for (double now = 0.0; now < cfg.duration_hours;) {
    const double t_trace = !stream.done() ? stream.next_time_hours() : 1e18;
    const double t_repair = !repairs.empty() ? repairs.top().time_hours : 1e18;
    const double t_next = std::min({t_trace, t_repair, next_sample});
    if (t_next >= cfg.duration_hours) break;
    now = t_next;
    if (t_next == t_trace) {
      ++res.corruption_events;
      const corropt::CorruptionEvent ev = stream.pop();
      const fabric::Link& l = topo.link(ev.link);
      if (!l.up || l.corrupting) continue;
      apply({Kind::kCorrupt, ev.link, ev.loss_rate});
      if (cfg.use_linkguardian) {
        apply({Kind::kEnableLg, ev.link, 0.0,
               corropt::lg_effective_speed(ev.loss_rate)});
      }
      if (can_disable(ev.link)) {
        ++res.disabled_immediately;
        disable(ev.link, ev.time_hours);
      } else {
        ++res.kept_active;
        const Active a{ev.loss_rate, ev.link};
        active.insert(std::upper_bound(active.begin(), active.end(), a,
                                       [](const Active& x, const Active& y) {
                                         if (x.loss_rate != y.loss_rate)
                                           return x.loss_rate > y.loss_rate;
                                         return x.link < y.link;
                                       }),
                      a);
      }
    } else if (t_next == t_repair) {
      const Repair ev = repairs.top();
      repairs.pop();
      apply({Kind::kRepair, ev.link});
      std::size_t kept = 0;
      for (const Active& a : active) {
        if (can_disable(a.link)) {
          ++res.disabled_by_optimizer;
          disable(a.link, now);
        } else {
          active[kept++] = a;
        }
      }
      active.resize(kept);
    } else {
      corropt::DeploymentSample s;
      s.time_hours = now;
      s.total_penalty = topo.total_penalty(cfg.lg_target_loss);
      s.least_paths_frac = topo.least_paths_per_tor_frac();
      s.least_capacity_frac = topo.least_capacity_per_pod_frac();
      s.corrupting_links = static_cast<std::int32_t>(topo.corrupting_up_links());
      s.disabled_links = static_cast<std::int32_t>(topo.disabled_links());
      s.lg_links = static_cast<std::int32_t>(topo.lg_up_links());
      res.max_lg_per_switch =
          std::max(res.max_lg_per_switch, topo.max_lg_links_per_switch());
      res.samples.push_back(s);
      next_sample += cfg.sample_period_hours;
    }
  }
  return res;
}

std::uint64_t deployment_digest(const corropt::DeploymentResult& r) {
  Digest d;
  for (std::int64_t v : {r.corruption_events, r.disabled_immediately,
                         r.kept_active, r.disabled_by_optimizer,
                         static_cast<std::int64_t>(r.max_lg_per_switch),
                         static_cast<std::int64_t>(r.samples.size())})
    d.add(v);
  for (const corropt::DeploymentSample& s : r.samples) {
    d.add(s.time_hours);
    d.add(s.total_penalty);
    d.add(s.least_paths_frac);
    d.add(s.least_capacity_frac);
    d.add(static_cast<std::int64_t>(s.corrupting_links));
    d.add(static_cast<std::int64_t>(s.disabled_links));
    d.add(static_cast<std::int64_t>(s.lg_links));
  }
  return d.value();
}

class DeployWorkload final : public Workload {
 public:
  explicit DeployWorkload(std::uint64_t seed) : seed_(seed) {}

  const char* rate_name() const override { return "sim_hours_per_s"; }

  void setup() override {
    arms_.clear();
    for (bool lg : {false, true}) {
      corropt::DeploymentConfig c;
      c.topo = {.pods = 260, .tors_per_pod = 48, .fabrics_per_pod = 4,
                .spines_per_plane = 48};
      c.duration_hours = 24.0 * 7.0 * 52.0;
      c.mttf_hours = 10'000;
      c.capacity_constraint = 0.75;
      c.use_linkguardian = lg;
      c.sample_period_hours = 1.0;
      c.seed = cell_seed(seed_, 0);
      arms_.push_back(c);
    }
    // The fabric the year runs on; its link count sizes the checks.
    const std::int64_t t0 = now_ns();
    n_links_ = fabric::FabricTopology(arms_.front().topo).n_links();
    build_s_.push_back(seconds_since(t0));
  }

  std::string config() const override {
    std::string s = "deploy_year";
    for (const auto& c : arms_) {
      s += " [" + std::to_string(c.topo.pods) + "," +
           std::to_string(c.topo.tors_per_pod) + "," +
           std::to_string(c.topo.fabrics_per_pod) + "," +
           std::to_string(c.topo.spines_per_plane) + "," +
           std::to_string(c.duration_hours) + "," +
           std::to_string(c.mttf_hours) + "," +
           std::to_string(c.capacity_constraint) + "," +
           std::to_string(c.use_linkguardian) + "," +
           std::to_string(c.sample_period_hours) + "," +
           std::to_string(c.seed) + "]";
    }
    return s;
  }

  double ops_per_batch() const override {
    double h = 0;
    for (const auto& c : arms_) h += c.duration_hours;
    return h;
  }

  void run_batch(Tracer* tr, bool traced) override {
    results_.assign(arms_.size(), {});
    for (std::size_t i = 0; i < arms_.size(); ++i) {
      SpanScope span(tr, "corropt.run_deployment");
      if (traced) {
        obs::TraceSink sink(arms_[i].use_linkguardian ? "CorrOpt+LG" : "CorrOpt");
        obs::SinkScope scope(&sink);
        results_[i] = corropt::run_deployment(arms_[i]);
      } else {
        times_.time(i, [&] { results_[i] = corropt::run_deployment(arms_[i]); });
      }
    }
  }

  std::vector<CellResult> check_batch() const override {
    std::vector<CellResult> out;
    for (std::size_t i = 0; i < arms_.size(); ++i) {
      const corropt::DeploymentConfig& c = arms_[i];
      const corropt::DeploymentResult& r = results_[i];
      CellResult cell;
      cell.name = c.use_linkguardian ? "CorrOpt+LG" : "CorrOpt";
      cell.digest = deployment_digest(r);
      std::string& b = cell.broken;
      const auto expected_samples = static_cast<std::size_t>(
          std::ceil(c.duration_hours / c.sample_period_hours) - 1);
      expect(r.samples.size() == expected_samples, b,
             "one sample per period expected");
      expect(r.corruption_events > 10'000, b, "too few corruption events");
      expect(r.disabled_immediately + r.kept_active <= r.corruption_events, b,
             "more CorrOpt decisions than corruption events");
      bool ok = true;
      double last = 0;
      for (const corropt::DeploymentSample& s : r.samples) {
        ok = ok && s.time_hours > last &&
             s.least_paths_frac >= c.capacity_constraint - 1e-12 &&
             s.disabled_links >= 0 && s.disabled_links <= n_links_ &&
             (c.use_linkguardian || s.lg_links == 0);
        last = s.time_hours;
      }
      expect(ok, b, "a sample breaks time order, the capacity floor or LG use");
      out.push_back(std::move(cell));
    }
    return out;
  }

  void layers(Tracer& tr, LayerReport& out) override {
    report_cells(times_, out);
    double run_s = 0, events = 0, samples = 0, kept = 0, by_opt = 0;
    for (std::size_t i = 0; i < arms_.size(); ++i) {
      run_s += times_.wall(i);
      events += static_cast<double>(results_[i].corruption_events);
      samples += static_cast<double>(results_[i].samples.size());
      kept += static_cast<double>(results_[i].kept_active);
      by_opt += static_cast<double>(results_[i].disabled_by_optimizer);
    }
    out.values["corropt.ns_per_event"] = run_s / events * 1e9;
    out.values["corropt.events"] = events;
    out.values["corropt.samples"] = samples;
    out.values["corropt.kept_active"] = kept;
    out.values["corropt.disabled_by_optimizer"] = by_opt;

    // The corruption stream alone, drained over the year.
    const corropt::DeploymentConfig& lg = arms_.back();
    {
      Rng rng(lg.seed);
      rng.split();
      corropt::CorruptionStream stream(n_links_, lg.duration_hours,
                                       lg.mttf_hours, rng);
      double pops = 0, acc = 0;
      tr.begin("corropt.stream_pop");
      for (; !stream.done(); ++pops) acc += stream.pop().loss_rate;
      out.values["corropt.stream_pop_ns"] = tr.end() / pops * 1e9;
      keep(acc);
    }

    // The fabric calls of the LG arm's year, replayed on fresh topologies:
    // once in full and once with the transitions only.
    std::vector<FabricOp> ops;
    const bool same = deployment_digest(replay_deployment(lg, ops)) ==
                      deployment_digest(results_.back());
    double applies = 0, checks = 0;
    for (const FabricOp& op : ops) (op.is_apply ? applies : checks) += 1;
    std::uint64_t apply_allocs = 0;
    auto replay = [&](bool with_checks, const char* name) {
      tr.begin("fabric.build");
      fabric::FabricTopology topo(lg.topo);
      build_s_.push_back(tr.end());
      std::int64_t yes = 0;
      const std::uint64_t a0 = heap_allocs();
      tr.begin(name);
      for (const FabricOp& op : ops) {
        if (op.is_apply) {
          topo.apply(op.tr);
        } else if (with_checks) {
          yes += topo.can_disable(op.tr.link, lg.capacity_constraint);
        }
      }
      const double sec = tr.end();
      apply_allocs = heap_allocs() - a0;
      keep(static_cast<double>(yes));
      return sec;
    };
    const double full_s = replay(true, "fabric.apply+can_disable");
    const double apply_s = replay(false, "fabric.apply");
    out.values["fabric.apply_ns"] = apply_s / applies * 1e9;
    out.values["fabric.can_disable_ns"] = (full_s - apply_s) / checks * 1e9;
    out.values["fabric.allocs_per_transition"] =
        static_cast<double>(apply_allocs) / applies;
    out.values["fabric.build_s"] = median(build_s_);
    if (!same) {
      for (const char* k : {"fabric.apply_ns", "fabric.can_disable_ns",
                            "fabric.allocs_per_transition"}) {
        out.values.erase(k);
        out.unmeasured[k] =
            "the benchmark's replay of run_deployment no longer reproduces "
            "it; update perfbench/workloads.cc";
      }
    }
  }

 private:
  std::uint64_t seed_;
  std::vector<corropt::DeploymentConfig> arms_;
  std::vector<corropt::DeploymentResult> results_;
  std::int64_t n_links_ = 0;
  std::vector<double> build_s_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "stress_fig08") return std::make_unique<StressWorkload>(seed);
  if (name == "fct_testbed") return std::make_unique<FctWorkload>(seed);
  if (name == "traffic_fabric") return std::make_unique<TrafficWorkload>(seed);
  if (name == "deploy_year") return std::make_unique<DeployWorkload>(seed);
  return nullptr;
}

}  // namespace lgbench
