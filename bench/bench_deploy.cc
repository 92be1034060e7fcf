// Deployment-simulation engine benchmark (§4.8 at scale): wall-clock of
// run_deployment vs the pre-refactor engine kept as the oracle
// reference_deployment (corropt/reference.h: full backlog rescans and
// scan-based metrics), plus the full paper-scale run (260 pods / ~100K
// links / 52 weeks) that the scan-based engine could not reach.
//
// Special modes (following the bench_micro pattern):
//   --bench_json=<path>  time reference_deployment against run_deployment
//                        at reference scale (asserting bit-identical
//                        results) and the paper-scale run, write them with
//                        a `build` stamp (nproc, compiler, build type) as
//                        one JSON object — the shape of a trajectory point
//                        in the committed BENCH_deploy.json.
//   --smoke              reduced mode for ctest: on a small config the two
//                        engines must stay bit-identical and the incremental
//                        engine must keep a >= 3x wall-clock margin (the
//                        committed trajectory records ~2 orders; the floor
//                        is deliberately loose for noisy shared CI runners).
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string_view>
#include <thread>

#include "bench_common.h"
#include "corropt/corropt.h"
#include "corropt/reference.h"
#include "util/table.h"

namespace {

using namespace lgsim;
using namespace lgsim::corropt;

DeploymentConfig deploy_cfg(std::int32_t pods, double weeks) {
  DeploymentConfig c;
  c.topo = {.pods = pods, .tors_per_pod = 48, .fabrics_per_pod = 4,
            .spines_per_plane = 48};
  c.duration_hours = 24.0 * 7.0 * weeks;
  c.mttf_hours = 10'000;
  c.capacity_constraint = 0.75;
  c.use_linkguardian = true;
  c.sample_period_hours = 1.0;
  c.seed = 7;
  return c;
}

struct TimedRun {
  DeploymentResult res;
  double sec = 0;
};

TimedRun timed_run(DeploymentResult (*engine)(const DeploymentConfig&),
                   const DeploymentConfig& cfg) {
  const auto t0 = std::chrono::steady_clock::now();
  TimedRun r{engine(cfg), 0};
  const auto t1 = std::chrono::steady_clock::now();
  r.sec = std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count() *
          1e-9;
  return r;
}

struct Comparison {
  TimedRun reference;
  TimedRun incremental;
  bool bit_identical = false;
  double speedup() const {
    return incremental.sec > 0 ? reference.sec / incremental.sec : 0;
  }
};

Comparison compare_engines(std::int32_t pods, double weeks) {
  Comparison c;
  const DeploymentConfig cfg = deploy_cfg(pods, weeks);
  c.reference = timed_run(reference_deployment, cfg);
  c.incremental = timed_run(run_deployment, cfg);
  c.bit_identical = bit_identical(c.reference.res, c.incremental.res);
  return c;
}

int write_bench_json(const char* path) {
  // Reference scale: the 16-pod / 52-week configuration BENCH_deploy.json's
  // speedup claim is measured at (hourly samples, LG+CorrOpt at 75%).
  const Comparison ref = compare_engines(16, 52.0);
  std::printf("reference (16 pods, 52 weeks): reference_deployment %.3f s, "
              "incremental %.3f s, speedup %.1fx, bit_identical=%s\n",
              ref.reference.sec, ref.incremental.sec, ref.speedup(),
              ref.bit_identical ? "true" : "false");
  // Paper scale, incremental engine only — the scan engine is what made
  // this configuration infeasible in the first place.
  const DeploymentConfig paper = deploy_cfg(260, 52.0);
  const std::int64_t links =
      fabric::FabricTopology(paper.topo).n_links();
  const TimedRun pr = timed_run(run_deployment, paper);
  std::printf("paper scale (260 pods, %lld links, 52 weeks): %.3f s, "
              "%lld corruption events, %zu samples\n",
              static_cast<long long>(links), pr.sec,
              static_cast<long long>(pr.res.corruption_events),
              pr.res.samples.size());
  FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_deploy: cannot write %s\n", path);
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f,
               "  \"build\": {\"nproc\": %u, \"compiler\": \"%s\", "
               "\"build_type\": \"%s\"},\n",
               std::thread::hardware_concurrency(), LGSIM_COMPILER,
               LGSIM_BUILD_TYPE);
  std::fprintf(f,
               "  \"reference_scale\": {\"pods\": 16, \"weeks\": 52, "
               "\"naive_sec\": %.3f, \"incremental_sec\": %.3f, "
               "\"speedup\": %.1f, \"bit_identical\": %s},\n",
               ref.reference.sec, ref.incremental.sec, ref.speedup(),
               ref.bit_identical ? "true" : "false");
  std::fprintf(f,
               "  \"paper_scale\": {\"pods\": 260, \"links\": %lld, "
               "\"weeks\": 52, \"incremental_sec\": %.3f, "
               "\"corruption_events\": %lld, \"samples\": %zu}\n",
               static_cast<long long>(links), pr.sec,
               static_cast<long long>(pr.res.corruption_events),
               pr.res.samples.size());
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path);
  return ref.bit_identical ? 0 : 1;
}

/// ctest smoke: small enough for CI (8 pods, 6 weeks), self-contained ratio
/// — both engines are timed in the same process, so machine speed cancels.
int run_smoke() {
  const Comparison c = compare_engines(8, 6.0);
  constexpr double kFloor = 3.0;
  const bool speed_pass = c.speedup() >= kFloor;
  std::printf("--- bench_deploy smoke (8 pods, 6 weeks) ---\n");
  std::printf("%-32s %10.3f s\n", "reference_deployment (oracle)",
              c.reference.sec);
  std::printf("%-32s %10.3f s\n", "incremental engine", c.incremental.sec);
  std::printf("%-32s %9.1fx  (floor %.1fx)  [%s]\n", "speedup", c.speedup(),
              kFloor, speed_pass ? "PASS" : "FAIL");
  std::printf("%-32s %10s  [%s]\n", "results bit-identical",
              c.bit_identical ? "yes" : "NO", c.bit_identical ? "PASS" : "FAIL");
  return (speed_pass && c.bit_identical) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  lgsim::bench::TraceSession trace_session(argc, argv);
  const char* json_path = nullptr;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i] != nullptr ? argv[i] : "";
    if (a.rfind("--bench_json=", 0) == 0)
      json_path = argv[i] + std::strlen("--bench_json=");
    if (a == "--smoke") smoke = true;
  }
  if (smoke) return run_smoke();
  if (json_path != nullptr) return write_bench_json(json_path);

  bench::banner("bench_deploy",
                "deployment-simulation engine: incremental vs scan-based");
  const auto pods = static_cast<std::int32_t>(bench::scaled(16, 4));
  const double weeks = bench::scale() >= 1.0 ? 52.0 : 6.0;
  const Comparison c = compare_engines(pods, weeks);
  TablePrinter t({"Engine", "wall (s)", "speedup", "bit-identical"});
  t.add_row({"reference (full rescans and scans)",
             TablePrinter::fmt(c.reference.sec, 3), "1.00x", "-"});
  t.add_row({"incremental capacity engine",
             TablePrinter::fmt(c.incremental.sec, 3),
             TablePrinter::fmt(c.speedup(), 1) + "x",
             c.bit_identical ? "yes" : "NO"});
  t.print();
  if (bench::scale() >= 1.0) {
    std::printf("\nPaper scale (260 pods / ~100K links / 52 weeks, "
                "incremental only):\n");
    const TimedRun pr = timed_run(run_deployment, deploy_cfg(260, 52.0));
    std::printf("  %.3f s wall, %lld corruption events, %zu samples\n", pr.sec,
                static_cast<long long>(pr.res.corruption_events),
                pr.res.samples.size());
  }
  return c.bit_identical ? 0 : 1;
}
