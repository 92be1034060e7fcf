// Fabric-wide FCT under corruption: the hybrid-fidelity traffic engine
// (src/traffic) driven at paper scale — 260 pods / ~100K links — comparing
// what flows experience under CorrOpt-only vs CorrOpt+LinkGuardian handling
// of the corrupting links the fast checker cannot disable.
//
// Victim flows (paths crossing a kept-active corrupting link) run
// packet-level through the transport + LinkGuardian stack; background flows
// go through the fluid model. Stdout is byte-identical for any
// LGSIM_BENCH_JOBS (wall-clock numbers go to stderr / the JSON only).
//
// Special modes (the bench_deploy pattern):
//   --bench_json=<path>  run the small-scale hybrid-vs-all-packet
//                        differential and the in-process jobs=1 vs jobs=4
//                        identity check, then both paper-scale scheme arms,
//                        the intra-cell shard identity + scaling curve
//                        (shards 1/2/4/8 on the CorrOpt+LG arm), and write
//                        one BENCH_traffic.json trajectory object.
//   --smoke=<baseline>   reduced ctest mode: baseline must be readable,
//                        hybrid victim FCTs must be bit-identical to the
//                        all-packet reference, the jobs=1/4 merge must be
//                        bit-identical, the shards=4 run must be
//                        bit-identical to shards=1, and CorrOpt+LG must beat
//                        CorrOpt-only on victim tail FCT under a forced 1e-3
//                        loss.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>
#include <thread>

#include "bench_common.h"
#include "traffic/engine.h"
#include "util/table.h"

namespace {

using namespace lgsim;
using namespace lgsim::traffic;

/// Victim-path replay knobs shared with the testbed FCT benches: the same
/// bench::TrafficConfig that parameterizes bench_fig10/11/12 supplies the
/// transport and link rate victim flows are driven with here.
EngineConfig with_victim_path(EngineConfig c, const bench::TrafficConfig& tc) {
  c.transport = tc.transports.front();
  c.link_rate = tc.rate;
  return c;
}

/// Small fabric whose corrupting links all stay active (constraint 1.0
/// blocks every disable) under a forced, clearly-hurting loss rate — the
/// differential / smoke configuration.
EngineConfig small_cfg(Scheme scheme, Fidelity fidelity) {
  EngineConfig c;
  c.topo = {.pods = 2, .tors_per_pod = 4, .fabrics_per_pod = 2,
            .spines_per_plane = 4};
  c.hosts_per_tor = 2;
  c.duration_sec = 0.004;
  c.slices = 4;
  c.seeds = {1, 2};
  c.scheme = scheme;
  c.fidelity = fidelity;
  c.corrupting_links = 8;
  c.capacity_constraint = 1.0;
  c.forced_loss_rate = 1e-3;
  c.scenario_seed = 5;
  c.arrivals.load_fraction = 0.2;
  return with_victim_path(c, bench::TrafficConfig{});
}

/// Paper scale: 260 pods, ~100K optical links, ~50K hosts. A 0.9 capacity
/// constraint means no ToR may lose a fabric link, so corrupting ToR-fabric
/// links all stay active — the regime where the scheme choice matters.
EngineConfig paper_cfg(Scheme scheme) {
  EngineConfig c;
  c.topo = {.pods = 260, .tors_per_pod = 48, .fabrics_per_pod = 4,
            .spines_per_plane = 48};
  c.hosts_per_tor = 4;
  c.duration_sec = 0.005;
  c.slices = 8;
  c.seeds = {1};
  c.scheme = scheme;
  c.fidelity = Fidelity::kHybrid;
  c.corrupting_links = 64;
  c.capacity_constraint = 0.9;
  c.scenario_seed = 17;
  c.arrivals.load_fraction = 0.1;
  return with_victim_path(c, bench::TrafficConfig{});
}

struct TimedRun {
  TrafficResult res;
  double sec = 0;
};

/// Runs `trials` times and keeps the result of the last run with the
/// *best-of-N* wall clock: a single trial measures the machine's mood (page
/// cache, turbo state, a background process) as much as the code, and the
/// minimum is the standard robust estimator for "how fast can this go".
/// Results are identical across trials, so which one is kept is moot.
TimedRun timed_run(const EngineConfig& cfg, unsigned jobs = 0,
                   int trials = 1) {
  TimedRun best;
  for (int i = 0; i < trials || i == 0; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    TrafficResult res = run_traffic(cfg, jobs);
    const auto t1 = std::chrono::steady_clock::now();
    const double sec =
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
            .count() * 1e-9;
    if (i == 0 || sec < best.sec) best = TimedRun{std::move(res), sec};
  }
  return best;
}

/// Bitwise equality of two FCT sample multisets (the differential pin).
bool identical_samples(const lgsim::PercentileTracker& a,
                       const lgsim::PercentileTracker& b) {
  const auto& x = a.sorted_samples();
  const auto& y = b.sorted_samples();
  if (x.size() != y.size()) return false;
  return x.empty() ||
         std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0;
}

bool identical_results(const TrafficResult& a, const TrafficResult& b) {
  return a.generated == b.generated && a.completed == b.completed &&
         a.stranded == b.stranded && a.victims == b.victims &&
         a.packet_flows == b.packet_flows && a.fluid_flows == b.fluid_flows &&
         a.victim_fluid_fallback == b.victim_fluid_fallback &&
         identical_samples(a.fct_victim_us, b.fct_victim_us) &&
         identical_samples(a.fct_bg_us, b.fct_bg_us);
}

void add_rows(TablePrinter& t, const char* label, const TrafficResult& r) {
  t.add_row({std::string(label) + " victim",
             std::to_string(r.victims),
             TablePrinter::fmt(r.p_victim(50), 1),
             TablePrinter::fmt(r.p_victim(99), 1),
             TablePrinter::fmt(r.p_victim(99.9), 1)});
  t.add_row({std::string(label) + " background",
             std::to_string(r.completed - r.victims),
             TablePrinter::fmt(r.p_bg(50), 1),
             TablePrinter::fmt(r.p_bg(99), 1),
             TablePrinter::fmt(r.p_bg(99.9), 1)});
}

/// The two correctness pins every mode checks: hybrid victim FCTs must be
/// bit-identical to the all-packet reference, and the merged result must be
/// bit-identical for jobs=1 vs jobs=4 (in-process, so LGSIM_BENCH_JOBS does
/// not matter).
struct Checks {
  bool differential = false;
  bool jobs_identical = false;
  bool ok() const { return differential && jobs_identical; }
};

Checks run_checks() {
  Checks ck;
  const EngineConfig hybrid = small_cfg(Scheme::kCorrOptLg, Fidelity::kHybrid);
  const EngineConfig allpkt =
      small_cfg(Scheme::kCorrOptLg, Fidelity::kAllPacket);
  const TrafficResult h1 = run_traffic(hybrid, 1);
  const TrafficResult h4 = run_traffic(hybrid, 4);
  const TrafficResult ap = run_traffic(allpkt, 1);
  ck.jobs_identical = identical_results(h1, h4);
  ck.differential = h1.victims > 0 &&
                    identical_samples(h1.fct_victim_us, ap.fct_victim_us);
  std::printf("hybrid vs all-packet victim FCTs (%lld victims): %s\n",
              static_cast<long long>(h1.victims),
              ck.differential ? "bit-identical" : "MISMATCH");
  std::printf("jobs=1 vs jobs=4 merged result: %s\n",
              ck.jobs_identical ? "bit-identical" : "MISMATCH");
  return ck;
}

int write_bench_json(const char* path) {
  const Checks ck = run_checks();

  const TimedRun lg = timed_run(paper_cfg(Scheme::kCorrOptLg), 0, 3);
  const TimedRun co = timed_run(paper_cfg(Scheme::kCorrOptOnly), 0, 3);
  const std::int64_t links =
      fabric::FabricTopology(paper_cfg(Scheme::kCorrOptLg).topo).n_links();

  std::printf("paper scale (260 pods, %lld links): %lld flows, "
              "%.3g flows per simulated hour\n",
              static_cast<long long>(links),
              static_cast<long long>(lg.res.generated),
              lg.res.flows_per_sim_hour());
  std::fprintf(stderr, "wall: CorrOpt+LG %.3f s, CorrOpt %.3f s\n", lg.sec,
               co.sec);

  // Intra-cell parallelism on the CorrOpt+LG paper arm: identity across
  // shard counts (the contract) plus the jobs=1 scaling curve. Wall clocks
  // are honest for THIS machine — `build.nproc` records how many cores it
  // had; on a single-core box the curve is flat by construction.
  const std::int32_t curve_shards[] = {1, 2, 4, 8};
  TimedRun shard_runs[4];
  for (int i = 0; i < 4; ++i) {
    EngineConfig c = paper_cfg(Scheme::kCorrOptLg);
    c.shards = curve_shards[i];
    shard_runs[i] = timed_run(c, 1, 3);
    std::fprintf(stderr, "sharding: shards=%d wall %.3f s\n", curve_shards[i],
                 shard_runs[i].sec);
  }
  const bool shards_identical =
      identical_results(shard_runs[0].res, shard_runs[3].res) &&
      identical_results(shard_runs[0].res, lg.res);
  std::printf("shards=1 vs shards=8 paper arm: %s\n",
              shards_identical ? "bit-identical" : "MISMATCH");

  FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_traffic: cannot write %s\n", path);
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f,
               "  \"build\": {\"nproc\": %u, \"compiler\": \"%s\", "
               "\"build_type\": \"%s\"},\n",
               std::thread::hardware_concurrency(), LGSIM_COMPILER,
               LGSIM_BUILD_TYPE);
  std::fprintf(f,
               "  \"checks\": {\"hybrid_vs_packet_bit_identical\": %s, "
               "\"jobs_bit_identical\": %s},\n",
               ck.differential ? "true" : "false",
               ck.jobs_identical ? "true" : "false");
  std::fprintf(f,
               "  \"sharding\": {\"jobs\": 1, "
               "\"identical_shards_1_8\": %s,\n"
               "    \"curve\": [",
               shards_identical ? "true" : "false");
  for (int i = 0; i < 4; ++i) {
    std::fprintf(f, "%s{\"shards\": %d, \"wall_sec\": %.3f}", i ? ", " : "",
                 curve_shards[i], shard_runs[i].sec);
  }
  std::fprintf(f, "],\n    \"speedup_at_8\": %.2f},\n",
               shard_runs[3].sec > 0 ? shard_runs[0].sec / shard_runs[3].sec
                                     : 0.0);
  auto arm = [&](const char* name, const TimedRun& r, const char* sep) {
    std::fprintf(
        f,
        "  \"%s\": {\"pods\": 260, \"links\": %lld, \"flows\": %lld, "
        "\"victims\": %lld, \"hot_links\": %zu, \"sim_hours\": %.6g, "
        "\"flows_per_sim_hour\": %.6g, \"wall_sec\": %.3f,\n"
        "    \"victim_fct_us\": {\"p50\": %.3f, \"p99\": %.3f, "
        "\"p999\": %.3f},\n"
        "    \"bg_fct_us\": {\"p50\": %.3f, \"p99\": %.3f, "
        "\"p999\": %.3f}}%s\n",
        name, static_cast<long long>(links),
        static_cast<long long>(r.res.generated),
        static_cast<long long>(r.res.victims), r.res.hot_links.size(),
        r.res.sim_hours, r.res.flows_per_sim_hour(), r.sec,
        r.res.p_victim(50), r.res.p_victim(99), r.res.p_victim(99.9),
        r.res.p_bg(50), r.res.p_bg(99), r.res.p_bg(99.9), sep);
  };
  arm("corropt_lg", lg, ",");
  arm("corropt_only", co, "");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path);
  return (ck.ok() && shards_identical) ? 0 : 1;
}

int run_smoke(const char* baseline_path) {
  FILE* f = std::fopen(baseline_path, "r");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_traffic --smoke: cannot read %s\n",
                 baseline_path);
    return 1;
  }
  // The committed baseline must carry the sharding section (identity flag +
  // scaling curve): losing it in a future re-baseline would silently drop
  // the perf record this PR's tentpole is gated on.
  std::string baseline;
  char buf[4096];
  for (std::size_t n; (n = std::fread(buf, 1, sizeof(buf), f)) > 0;)
    baseline.append(buf, n);
  std::fclose(f);
  const bool has_sharding = baseline.find("\"sharding\"") != std::string::npos;

  std::printf("--- bench_traffic smoke (baseline %s) ---\n", baseline_path);
  const Checks ck = run_checks();

  // Scheme comparison on the same small fabric: every corrupting link stays
  // active at 1e-3 loss; LG must shrink the victim tail. This shards=1 run
  // doubles as the reference for the shard gate below.
  const EngineConfig lg_cfg = small_cfg(Scheme::kCorrOptLg, Fidelity::kHybrid);
  const TrafficResult lg = run_traffic(lg_cfg, 2);
  const TrafficResult co =
      run_traffic(small_cfg(Scheme::kCorrOptOnly, Fidelity::kHybrid), 2);
  const bool lg_wins = co.victims > 0 && lg.victims > 0 &&
                       lg.p_victim(99) < co.p_victim(99) &&
                       lg.fct_victim_us.mean() < co.fct_victim_us.mean();

  // Shard gate: the same cell grid split into 4 host blocks per cell, each
  // cell's generation and replay on 4 threads, must merge to the same bytes.
  EngineConfig sh_cfg = lg_cfg;
  sh_cfg.shards = 4;
  const bool shard_identical = identical_results(lg, run_traffic(sh_cfg, 2));

  std::printf("victim p99: CorrOpt-only %.1f us vs CorrOpt+LG %.1f us  [%s]\n",
              co.p_victim(99), lg.p_victim(99), lg_wins ? "PASS" : "FAIL");
  std::printf("differential [%s]  jobs-identical [%s]\n",
              ck.differential ? "PASS" : "FAIL",
              ck.jobs_identical ? "PASS" : "FAIL");
  std::printf("shards=4 vs shards=1 [%s]  baseline sharding section [%s]\n",
              shard_identical ? "PASS" : "FAIL",
              has_sharding ? "PASS" : "FAIL");
  return (ck.ok() && lg_wins && shard_identical && has_sharding) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  lgsim::bench::TraceSession trace_session(argc, argv);
  const char* json_path = nullptr;
  const char* smoke_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i] != nullptr ? argv[i] : "";
    if (a.rfind("--bench_json=", 0) == 0)
      json_path = argv[i] + std::strlen("--bench_json=");
    if (a.rfind("--smoke=", 0) == 0)
      smoke_path = argv[i] + std::strlen("--smoke=");
  }
  if (smoke_path != nullptr) return run_smoke(smoke_path);
  if (json_path != nullptr) return write_bench_json(json_path);

  bench::banner("bench_traffic",
                "fabric-wide FCT under corruption (hybrid fidelity)");

  // Mid-size fabric sweep: sampled Table 1 loss rates, 0.9 constraint (no
  // ToR may shed a fabric link, so corrupting ToR-fabric links stay hot).
  EngineConfig base = paper_cfg(Scheme::kCorrOptLg);
  base.topo.pods = static_cast<std::int32_t>(bench::scaled(16, 4));
  base.duration_sec = 0.002;
  base.slices = 4;

  TablePrinter t({"Scheme / class", "flows", "p50 (us)", "p99 (us)",
                  "p99.9 (us)"});
  for (Scheme s : {Scheme::kCorrOptOnly, Scheme::kCorrOptLg}) {
    EngineConfig c = base;
    c.scheme = s;
    const TimedRun r = timed_run(c);
    add_rows(t, scheme_name(s), r.res);
    std::fprintf(stderr, "%s: %.3f s wall, %lld flows (%lld packet-level)\n",
                 scheme_name(s), r.sec,
                 static_cast<long long>(r.res.generated),
                 static_cast<long long>(r.res.packet_flows));
  }
  t.print();
  std::printf(
      "\nVictim flows cross a corrupting link CorrOpt could not disable; "
      "background flows see a healthy fabric. CorrOpt+LG masks the victim "
      "tail that corruption losses otherwise inflate.\n");
  return 0;
}
