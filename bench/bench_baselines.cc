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
#include <iterator>
#include <string>
#include <vector>

#include "bench_common.h"
#include "bench_goodput.h"
#include "util/table.h"

namespace {

using namespace lgsim;

constexpr bench::Scheme kSchemes[] = {
    bench::Scheme::kNone, bench::Scheme::kWharf,      bench::Scheme::kRifl,
    bench::Scheme::kOnePlusOne, bench::Scheme::kLg,   bench::Scheme::kLgNb};

/// Fault-catalogue cells provision every scheme at design time for the
/// canonical onset rate (1e-3, what the catalogue's steady faults drive).
constexpr double kFaultProvisionRate = 1e-3;

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
  using K = net::LossSpec::Kind;

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

  std::vector<bench::GoodputCell> grid;
  auto add = [&](bench::Scheme s, K kind, double rate,
                 const std::string& scenario) {
    bench::GoodputCell c;
    c.scheme = s;
    c.loss.kind = kind;
    c.loss.rate = rate;
    c.loss.mean_burst = 4.0;
    c.duration = duration;
    c.scenario = scenario;
    grid.push_back(c);
  };

  for (bench::Scheme s : kSchemes)
    for (double l : bern_losses) add(s, K::kBernoulli, l, "");
  for (bench::Scheme s : kSchemes)
    for (double l : ge_losses) add(s, K::kGilbertElliott, l, "");
  for (const std::string& sc : scenarios)
    for (bench::Scheme s : kSchemes)
      add(s, K::kGilbertElliott, kFaultProvisionRate, sc);

  const std::vector<double> results =
      harness::run_grid(grid, bench::run_goodput);
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

  auto print_grid = [&](const char* title, const std::vector<double>& losses) {
    std::printf("\n%s\n", title);
    std::vector<std::string> header{"Loss rate ->"};
    for (double l : losses) header.push_back(rate_label(l));
    TablePrinter t(header);
    for (bench::Scheme s : kSchemes) {
      std::vector<std::string> cells{bench::scheme_name(s)};
      for (std::size_t i = 0; i < losses.size(); ++i)
        cells.push_back(TablePrinter::fmt(results[next++], 2));
      t.add_row(cells);
    }
    t.print();
  };

  print_grid("Bernoulli (i.i.d.) corruption:", bern_losses);
  print_grid("Gilbert-Elliott corruption (mean burst 4 frames):", ge_losses);

  // Fault-catalogue scenarios: goodput over each scenario's whole horizon.
  {
    std::printf("\nFault-catalogue scenarios (schemes provisioned for 1e-3; "
                "scripts drive the raw process):\n");
    std::vector<std::string> header{"Scenario"};
    for (bench::Scheme s : kSchemes) header.push_back(bench::scheme_name(s));
    TablePrinter t(header);
    for (const std::string& sc : scenarios) {
      std::vector<std::string> cells{sc};
      for (std::size_t i = 0; i < std::size(kSchemes); ++i)
        cells.push_back(TablePrinter::fmt(results[next++], 2));
      t.add_row(cells);
    }
    t.print();
  }

  std::printf(
      "\nShape: Wharf pays its redundancy always and falls off the FEC cliff "
      "at 1e-2; RIFL pays framing+reTx bandwidth but holds goodput to high "
      "BER; 1+1 masks everything its second path doesn't lose, at 2x "
      "provisioning; LinkGuardian pays only when losses happen.\n");

  // One JSON row per cell, in grid order (the order the tables print).
  if (json_path != nullptr) {
    std::ofstream os(json_path, std::ios::binary);
    os << "[\n";
    for (std::size_t i = 0; i < grid.size(); ++i) {
      const bench::GoodputCell& c = grid[i];
      const bool scripted = !c.scenario.empty();
      const char* section = scripted                        ? "fault"
                            : c.loss.kind == K::kBernoulli ? "bernoulli"
                                                           : "gilbert";
      os << "  {\"section\": \"" << section << "\", \"scheme\": \""
         << bench::scheme_name(c.scheme) << "\", \"detail\": \""
         << (scripted ? c.scenario.c_str() : c.loss.kind_name())
         << "\", \"rate\": " << c.loss.rate
         << ", \"goodput_gbps\": " << results[i]
         << ", \"provisioned_capacity_x\": "
         << bench::make_scheme(c.scheme)->provisioned_capacity_x(c.loss) << "}"
         << (i + 1 < grid.size() ? ",\n" : "\n");
    }
    os << "]\n";
    std::fprintf(stderr, "bench_json: wrote %s (%zu rows)\n", json_path,
                 grid.size());
  }

  if (!smoke) return 0;

  // Smoke assertions: the ordering relations the schemes exist to show.
  // Cells are deterministic, so fixed margins are safe under sanitizers too.
  auto bernoulli_at = [&](bench::Scheme s, double rate) {
    for (std::size_t i = 0; i < grid.size(); ++i) {
      const bench::GoodputCell& c = grid[i];
      if (c.scenario.empty() && c.scheme == s &&
          c.loss.kind == K::kBernoulli && c.loss.rate == rate)
        return results[i];
    }
    return -1.0;
  };
  int failures = 0;
  auto expect = [&](bool ok, const char* what) {
    if (!ok) {
      ++failures;
      std::printf("SMOKE FAIL: %s\n", what);
    }
  };
  for (std::size_t i = 0; i < results.size(); ++i)
    expect(results[i] > 0.05, "every cell moves traffic");
  expect(bernoulli_at(bench::Scheme::kLg, 0.0) >
             bernoulli_at(bench::Scheme::kNone, 0.0) - 0.2,
         "LG tracks the unprotected healthy link");
  expect(bernoulli_at(bench::Scheme::kWharf, 1e-2) <
             bernoulli_at(bench::Scheme::kWharf, 1e-3),
         "Wharf falls off its FEC cliff at 1e-2");
  expect(bernoulli_at(bench::Scheme::kWharf, 1e-2) <
             bernoulli_at(bench::Scheme::kRifl, 1e-2),
         "RIFL beats Wharf past the FEC cliff");
  expect(bernoulli_at(bench::Scheme::kRifl, 1e-2) >
             bernoulli_at(bench::Scheme::kNone, 1e-2),
         "RIFL beats no protection at high BER");
  expect(bernoulli_at(bench::Scheme::kOnePlusOne, 1e-2) >
             bernoulli_at(bench::Scheme::kNone, 0.0) - 0.5,
         "1+1 masks a lossy working path at near-healthy goodput");
  std::printf("\nSUMMARY: %s (%d assertion failures)\n",
              failures == 0 ? "PASS" : "FAIL", failures);
  return failures == 0 ? 0 : 1;
}
