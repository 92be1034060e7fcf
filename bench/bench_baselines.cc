// Four-scheme baseline comparison (ROADMAP item 3): TCP CUBIC goodput on a
// 10G link under no protection, Wharf (link-local FEC), RIFL (link-layer
// retransmission, arXiv 2309.08696), P4-Protect-style 1+1 duplication
// (arXiv 2001.11370), LinkGuardian and LinkGuardianNB, swept across
//   * a Bernoulli (i.i.d.) loss grid including the Wharf FEC-cliff points,
//   * a Gilbert-Elliott burst-loss grid (mean burst 4 frames), and
//   * the PR 4 fault-catalogue scenarios (scripted onset/ramp/flap/burst
//     faults driving the raw process of every scheme's residual model).
//
// All cells fan out over the replication runner and print in grid order:
// output is byte-identical for any LGSIM_BENCH_JOBS.
//
//   --smoke              reduced grid; exit code asserts the expected
//                        ordering relations between the schemes
//   --bench_json=<path>  additionally write every cell as a JSON row
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "fault/injector.h"
#include "fault/scenarios.h"
#include "util/table.h"

namespace {

using namespace lgsim;

constexpr bench::Scheme kSchemes[] = {
    bench::Scheme::kNone, bench::Scheme::kWharf,      bench::Scheme::kRifl,
    bench::Scheme::kOnePlusOne, bench::Scheme::kLg,   bench::Scheme::kLgNb};

/// One fault-catalogue measurement: every scheme is provisioned at design
/// time for the canonical onset rate (1e-3, what the catalogue's steady
/// faults drive), starts on a healthy link, and the scenario script drives
/// the raw Gilbert-Elliott process buried inside the scheme's residual
/// model. Goodput is measured over the scenario's whole horizon (healthy
/// lead-in, fault, recovery).
struct FaultCell {
  bench::Scheme scheme = bench::Scheme::kNone;
  std::string scenario;
};

constexpr double kFaultProvisionRate = 1e-3;

double run_fault_goodput(const FaultCell& cell) {
  const fault::Scenario sc = fault::make_scenario(cell.scenario);

  Simulator sim;
  transport::PathConfig pc;
  pc.rate = gbps(10);
  pc.host_delay = usec(12);
  pc.link.rate = gbps(10);
  pc.link.normal_queue_bytes = 600'000;
  pc.lg = lg::tuned_for_rate(pc.lg, pc.rate);
  pc.lg.actual_loss_rate = kFaultProvisionRate;
  pc.lg.preserve_order = (cell.scheme != bench::Scheme::kLgNb);

  net::LossSpec provision;
  provision.kind = net::LossSpec::Kind::kGilbertElliott;
  provision.rate = kFaultProvisionRate;
  provision.mean_burst = 4.0;

  const std::unique_ptr<net::ProtectionScheme> scheme =
      bench::make_scheme(cell.scheme);
  pc = transport::with_protection(pc, *scheme, provision);

  transport::TestbedPath path(sim, pc);
  // The link starts healthy: the residual is built around a rate-0 GE
  // process whose drivable handle the scenario script then re-aims.
  net::LossSpec raw = provision;
  raw.rate = 0.0;
  net::ResidualLoss residual = scheme->residual(raw);
  net::DrivableLoss* handle = residual.raw;
  path.link().set_loss_model(std::move(residual.model));
  if (cell.scheme == bench::Scheme::kLg || cell.scheme == bench::Scheme::kLgNb)
    path.link().enable_lg();

  fault::FaultInjector injector(sim, sc.script);
  injector.add_link(fault::kLinkTarget, handle);
  injector.arm();  // bus/monitor/probe targets stay unbound: dataplane cell

  transport::TcpSender snd(
      sim, {transport::TcpCc::kCubic}, 1,
      [&](net::Packet&& p) { path.send_from_a(std::move(p)); }, [](SimTime) {});
  transport::TcpReceiver rcv(
      1, [&](net::Packet&& p) { path.send_from_b(std::move(p)); });
  std::int64_t delivered = 0;
  path.set_sink_at_b([&](net::Packet&& p) {
    delivered += p.tcp.payload;
    rcv.on_data(p);
  });
  path.set_sink_at_a([&](net::Packet&& p) { snd.on_ack(p); });
  snd.start(1'000'000'000'000LL);

  sim.run(sc.horizon);
  return static_cast<double>(delivered) * 8.0 /
         static_cast<double>(sc.horizon);  // Gbps over the scenario
}

/// Tagged cell so the whole bench shares one worker pool (and one
/// deterministic grid order) across its three sections.
struct Cell {
  enum class Kind { kGrid, kFault };
  Kind kind = Kind::kGrid;
  bench::GoodputCell grid;
  FaultCell fault;
};

struct JsonRow {
  std::string section;
  std::string scheme;
  std::string detail;  // loss kind + rate, or scenario name
  double rate = 0.0;
  double goodput = 0.0;
  double capacity_x = 0.0;
};

std::string rate_label(double r) {
  if (r == 0.0) return "0";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", r);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  lgsim::bench::TraceSession trace_session(argc, argv);
  using namespace lgsim;

  bool smoke = false;
  const char* json_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strncmp(argv[i], "--bench_json=", 13) == 0)
      json_path = argv[i] + 13;
  }

  bench::banner("Baselines",
                "four-scheme goodput comparison (Gb/s) on a 10G link");

  const SimTime duration = smoke ? msec(40) : msec(bench::scaled(400, 60));
  const std::vector<double> bern_losses =
      smoke ? std::vector<double>{0.0, 1e-3, 1e-2}
            : std::vector<double>{0.0, 1e-5, 1e-4, 1e-3, 3e-3, 1e-2};
  const std::vector<double> ge_losses =
      smoke ? std::vector<double>{1e-2}
            : std::vector<double>{1e-4, 1e-3, 1e-2};
  const std::vector<std::string> scenarios =
      smoke ? std::vector<std::string>{"onset", "flap-storm"}
            : fault::scenario_names();

  std::vector<Cell> grid;
  auto add_grid = [&](bench::Scheme s, net::LossSpec::Kind kind, double rate) {
    Cell c;
    c.kind = Cell::Kind::kGrid;
    c.grid.scheme = s;
    c.grid.loss.kind = kind;
    c.grid.loss.rate = rate;
    c.grid.loss.mean_burst = 4.0;
    c.grid.duration = duration;
    grid.push_back(c);
  };

  for (bench::Scheme s : kSchemes)
    for (double l : bern_losses) add_grid(s, net::LossSpec::Kind::kBernoulli, l);
  for (bench::Scheme s : kSchemes)
    for (double l : ge_losses)
      add_grid(s, net::LossSpec::Kind::kGilbertElliott, l);
  for (const std::string& sc : scenarios) {
    for (bench::Scheme s : kSchemes) {
      Cell c;
      c.kind = Cell::Kind::kFault;
      c.fault.scheme = s;
      c.fault.scenario = sc;
      grid.push_back(c);
    }
  }

  const std::vector<double> results =
      harness::run_grid(grid, [](const Cell& c) {
        return c.kind == Cell::Kind::kGrid ? bench::run_goodput(c.grid)
                                           : run_fault_goodput(c.fault);
      });
  std::vector<JsonRow> rows;
  std::size_t next = 0;

  // Capacity accounting: what each scheme costs before any loss happens.
  {
    net::LossSpec at;
    at.rate = 1e-3;
    std::printf("\nCapacity accounting at raw loss 1e-3 (provisioned link "
                "capacity per unit of traffic capacity):\n");
    TablePrinter t({"Scheme", "capacity fraction", "provisioned x"});
    for (bench::Scheme s : kSchemes) {
      // LG's reTx bandwidth is loss-proportional, not a fixed fraction; the
      // Unprotected knobs (1.0 / 1x) are its idle cost, which is the point.
      const auto model = bench::make_scheme(s);
      t.add_row({std::string(bench::scheme_name(s)),
                 TablePrinter::fmt(model->capacity_fraction(at), 4),
                 TablePrinter::fmt(model->provisioned_capacity_x(at), 2)});
    }
    t.print();
  }

  auto print_grid = [&](const char* title, net::LossSpec::Kind kind,
                        const std::vector<double>& losses) {
    std::printf("\n%s\n", title);
    std::vector<std::string> header{"Loss rate ->"};
    for (double l : losses) header.push_back(rate_label(l));
    TablePrinter t(header);
    for (bench::Scheme s : kSchemes) {
      std::vector<std::string> cells{bench::scheme_name(s)};
      for (double l : losses) {
        const double g = results[next++];
        cells.push_back(TablePrinter::fmt(g, 2));
        net::LossSpec at;
        at.kind = kind;
        at.rate = l;
        at.mean_burst = 4.0;
        rows.push_back(JsonRow{
            kind == net::LossSpec::Kind::kBernoulli ? "bernoulli" : "gilbert",
            bench::scheme_name(s), at.kind_name(), l, g,
            bench::make_scheme(s)->provisioned_capacity_x(at)});
      }
      t.add_row(cells);
    }
    t.print();
  };

  print_grid("Bernoulli (i.i.d.) corruption:",
             net::LossSpec::Kind::kBernoulli, bern_losses);
  print_grid("Gilbert-Elliott corruption (mean burst 4 frames):",
             net::LossSpec::Kind::kGilbertElliott, ge_losses);

  // Fault-catalogue scenarios: goodput over each scenario's whole horizon.
  {
    std::printf("\nFault-catalogue scenarios (schemes provisioned for 1e-3; "
                "scripts drive the raw process):\n");
    std::vector<std::string> header{"Scenario"};
    for (bench::Scheme s : kSchemes) header.push_back(bench::scheme_name(s));
    TablePrinter t(header);
    for (const std::string& sc : scenarios) {
      std::vector<std::string> cells{sc};
      for (bench::Scheme s : kSchemes) {
        const double g = results[next++];
        cells.push_back(TablePrinter::fmt(g, 2));
        net::LossSpec at;
        at.rate = kFaultProvisionRate;
        rows.push_back(JsonRow{"fault", bench::scheme_name(s), sc,
                               kFaultProvisionRate, g,
                               bench::make_scheme(s)->provisioned_capacity_x(at)});
      }
      t.add_row(cells);
    }
    t.print();
  }

  std::printf(
      "\nShape: Wharf pays its redundancy always and falls off the FEC cliff "
      "at 1e-2; RIFL pays framing+reTx bandwidth but holds goodput to high "
      "BER; 1+1 masks everything its second path doesn't lose, at 2x "
      "provisioning; LinkGuardian pays only when losses happen.\n");

  if (json_path != nullptr) {
    std::ofstream os(json_path, std::ios::binary);
    os << "[\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const JsonRow& r = rows[i];
      os << "  {\"section\": \"" << r.section << "\", \"scheme\": \""
         << r.scheme << "\", \"detail\": \"" << r.detail
         << "\", \"rate\": " << r.rate << ", \"goodput_gbps\": " << r.goodput
         << ", \"provisioned_capacity_x\": " << r.capacity_x << "}"
         << (i + 1 < rows.size() ? ",\n" : "\n");
    }
    os << "]\n";
    std::fprintf(stderr, "bench_json: wrote %s (%zu rows)\n", json_path,
                 rows.size());
  }

  if (!smoke) return 0;

  // Smoke assertions: the ordering relations the schemes exist to show.
  // Cells are deterministic, so fixed margins are safe under sanitizers too.
  auto grid_at = [&](bench::Scheme s, net::LossSpec::Kind kind, double rate) {
    std::size_t idx = 0;
    for (bench::Scheme sc : kSchemes) {
      for (double l : bern_losses) {
        if (sc == s && kind == net::LossSpec::Kind::kBernoulli && l == rate)
          return results[idx];
        ++idx;
      }
    }
    for (bench::Scheme sc : kSchemes) {
      for (double l : ge_losses) {
        if (sc == s && kind == net::LossSpec::Kind::kGilbertElliott &&
            l == rate)
          return results[idx];
        ++idx;
      }
    }
    return -1.0;
  };
  using K = net::LossSpec::Kind;
  int failures = 0;
  auto expect = [&](bool ok, const char* what) {
    if (!ok) {
      ++failures;
      std::printf("SMOKE FAIL: %s\n", what);
    }
  };
  for (std::size_t i = 0; i < results.size(); ++i)
    expect(results[i] > 0.05, "every cell moves traffic");
  expect(grid_at(bench::Scheme::kLg, K::kBernoulli, 0.0) >
             grid_at(bench::Scheme::kNone, K::kBernoulli, 0.0) - 0.2,
         "LG tracks the unprotected healthy link");
  expect(grid_at(bench::Scheme::kWharf, K::kBernoulli, 1e-2) <
             grid_at(bench::Scheme::kWharf, K::kBernoulli, 1e-3),
         "Wharf falls off its FEC cliff at 1e-2");
  expect(grid_at(bench::Scheme::kWharf, K::kBernoulli, 1e-2) <
             grid_at(bench::Scheme::kRifl, K::kBernoulli, 1e-2),
         "RIFL beats Wharf past the FEC cliff");
  expect(grid_at(bench::Scheme::kRifl, K::kBernoulli, 1e-2) >
             grid_at(bench::Scheme::kNone, K::kBernoulli, 1e-2),
         "RIFL beats no protection at high BER");
  expect(grid_at(bench::Scheme::kOnePlusOne, K::kBernoulli, 1e-2) >
             grid_at(bench::Scheme::kNone, K::kBernoulli, 0.0) - 0.5,
         "1+1 masks a lossy working path at near-healthy goodput");
  std::printf("\nSUMMARY: %s (%d assertion failures)\n",
              failures == 0 ? "PASS" : "FAIL", failures);
  return failures == 0 ? 0 : 1;
}
