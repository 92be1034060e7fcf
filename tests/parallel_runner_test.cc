// Tests for the thread-pool replication runner (harness/parallel.h).
//
// The load-bearing property is determinism: the same {seed, config} grid run
// with 1 worker and N workers must produce bit-identical merged rows — the
// formatted strings a bench binary would print — and repeated N-worker runs
// must agree with each other (catches scheduling-dependent merges). A
// ThreadSanitizer build of this same file runs in the tier-1 ctest pass
// (parallel_runner_tsan_test) so data races in the runner fail the build.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <deque>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness/fct.h"
#include "harness/parallel.h"
#include "harness/stress.h"
#include "lg/config.h"
#include "obs/trace.h"
#include "sim/random.h"
#include "util/stats.h"
#include "util/table.h"

namespace lgsim::harness {
namespace {

TEST(ParallelMap, PreservesInputOrder) {
  std::vector<int> items;
  for (int i = 0; i < 100; ++i) items.push_back(i);
  const auto out = parallel_map(
      items, [](int x, std::size_t) { return x * x; }, 4);
  ASSERT_EQ(out.size(), items.size());
  for (int i = 0; i < 100; ++i) EXPECT_EQ(out[i], i * i);
}

TEST(ParallelMap, SingleWorkerMatchesMultiWorker) {
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t s = 1; s <= 40; ++s) seeds.push_back(s * 7919);
  const auto draw = [](std::uint64_t seed, std::size_t) {
    Rng rng(seed);
    std::uint64_t acc = 0;
    for (int i = 0; i < 1000; ++i) acc ^= rng.next_u64();
    return acc;
  };
  const auto serial = parallel_map(seeds, draw, 1);
  const auto parallel = parallel_map(seeds, draw, 8);
  EXPECT_EQ(serial, parallel);
}

TEST(ParallelGrid, AllTasksRunExactlyOnce) {
  std::atomic<int> calls{0};
  std::vector<int> items;
  for (int i = 0; i < 200; ++i) items.push_back(i);
  const auto out = run_grid(
      items,
      [&calls](const int& x) {
        calls.fetch_add(1, std::memory_order_relaxed);
        return x + 1;
      },
      8);
  EXPECT_EQ(calls.load(), 200);
  ASSERT_EQ(out.size(), 200u);
  for (int i = 0; i < 200; ++i) EXPECT_EQ(out[i], i + 1);
}

TEST(ParallelGrid, ExceptionInWorkerPropagates) {
  std::vector<int> items;
  for (int i = 0; i < 32; ++i) items.push_back(i);
  EXPECT_THROW(run_grid(
                   items,
                   [](const int& x) {
                     if (x == 13) throw std::runtime_error("boom");
                     return x;
                   },
                   4),
               std::runtime_error);
}

TEST(BenchJobs, EnvOverridesAndRejectsGarbage) {
  // bench_jobs() reads LGSIM_BENCH_JOBS once per call; exercise the parser
  // through the environment to pin the contract.
  // No grid starts here: a rejected value throws before any worker exists.
  setenv("LGSIM_BENCH_JOBS", "3", 1);
  EXPECT_EQ(bench_jobs(), 3u);
  setenv("LGSIM_BENCH_JOBS", "0", 1);
  EXPECT_THROW(bench_jobs(), std::invalid_argument);
  setenv("LGSIM_BENCH_JOBS", "nan", 1);
  EXPECT_THROW(bench_jobs(), std::invalid_argument);
  setenv("LGSIM_BENCH_JOBS", "5000", 1);  // above the 1024-worker max
  EXPECT_THROW(bench_jobs(), std::invalid_argument);
  setenv("LGSIM_BENCH_JOBS", "", 1);
  EXPECT_GE(bench_jobs(), 1u);  // empty: hardware_concurrency
  unsetenv("LGSIM_BENCH_JOBS");
  EXPECT_GE(bench_jobs(), 1u);
}

// ---------------------------------------------------------------------------
// Differential tests: serial vs parallel merged rows must be bit-identical.
// ---------------------------------------------------------------------------

// Formats the fields a bench binary prints from a stress run, so "rows" here
// means the same bytes that would reach stdout.
std::string stress_row(const StressResult& r) {
  return TablePrinter::sci(r.actual_loss_rate) + "|" +
         TablePrinter::sci(r.effective_loss_rate) + "|" +
         TablePrinter::fmt(100.0 * r.effective_speed_frac, 2) + "|" +
         std::to_string(r.forwarded) + "|" +
         std::to_string(r.data_frames_lost) + "|" +
         std::to_string(r.timeouts) + "|" +
         std::to_string(r.retx_copies_sent) + "|" +
         TablePrinter::fmt(r.tx_buffer_bytes.percentile(99), 3) + "|" +
         TablePrinter::fmt(r.retx_delay_us.percentile(50), 3);
}

std::vector<StressConfig> stress_grid() {
  std::vector<StressConfig> grid;
  for (double loss : {1e-3, 1e-2}) {
    for (bool nb : {false, true}) {
      StressConfig c;
      c.rate = gbps(25);
      c.loss_rate = loss;
      c.lg.preserve_order = !nb;
      c.packets = 20'000;
      c.seed = 91 + static_cast<std::uint64_t>(loss * 1e4) + (nb ? 1 : 0);
      grid.push_back(c);
    }
  }
  return grid;
}

std::vector<std::string> run_stress_rows(unsigned jobs) {
  std::vector<std::string> rows;
  for (const StressResult& r : run_grid(stress_grid(), run_stress, jobs)) {
    rows.push_back(stress_row(r));
  }
  return rows;
}

TEST(ParallelDifferential, StressRowsIdenticalAcrossWorkerCounts) {
  const auto serial = run_stress_rows(1);
  const auto parallel = run_stress_rows(4);
  EXPECT_EQ(serial, parallel);
  // Second parallel run: catches scheduling nondeterminism (e.g. results
  // merged in completion order instead of key order).
  const auto parallel2 = run_stress_rows(4);
  EXPECT_EQ(parallel, parallel2);
}

std::string fct_row(const FctResult& r) {
  return TablePrinter::fmt(r.p(50), 1) + "|" + TablePrinter::fmt(r.p(99), 1) +
         "|" + TablePrinter::fmt(r.p(99.9), 1) + "|" +
         TablePrinter::fmt(r.fct_us.max(), 1) + "|" +
         std::to_string(r.trials_with_wire_loss) + "|" +
         std::to_string(r.trials_with_e2e_retx) + "|" +
         std::to_string(r.trials_with_rto);
}

std::vector<std::string> run_fct_rows(unsigned jobs) {
  std::vector<FctConfig> grid;
  for (Protection pr : {Protection::kNoLoss, Protection::kLg,
                        Protection::kLgNb, Protection::kLossOnly}) {
    FctConfig c;
    c.transport = Transport::kDctcp;
    c.protection = pr;
    c.flow_bytes = 143;
    c.trials = 250;
    c.loss_rate = 5e-3;  // harsh so that losses actually land in 250 trials
    c.rate = gbps(100);
    c.seed = 700 + static_cast<std::uint64_t>(pr);
    grid.push_back(c);
  }
  std::vector<std::string> rows;
  for (const FctResult& r : run_grid(grid, run_fct, jobs)) {
    rows.push_back(fct_row(r));
  }
  return rows;
}

TEST(ParallelDifferential, FctPercentileRowsIdenticalAcrossWorkerCounts) {
  const auto serial = run_fct_rows(1);
  const auto parallel = run_fct_rows(4);
  EXPECT_EQ(serial, parallel);
  const auto parallel2 = run_fct_rows(4);
  EXPECT_EQ(parallel, parallel2);
}

// Nested fan-out, the traffic engine's intra-cell pattern (DESIGN.md §15):
// parallel_map inside run_grid cells, each inner item tracing into its
// own sink that the cell absorbs in item order. Rows and trace sizes must
// not depend on the outer or inner worker count.
std::vector<std::string> run_nested_rows(unsigned outer, unsigned inner) {
  obs::TraceCollector collector;
  collector.install();
  const std::vector<std::uint64_t> seeds = {1, 2, 3};
  const auto rows = run_grid(
      seeds,
      [inner](const std::uint64_t& seed) {
        std::vector<FctConfig> items;
        for (Protection pr : {Protection::kNoLoss, Protection::kLg,
                              Protection::kLgNb, Protection::kLossOnly}) {
          FctConfig c;
          c.protection = pr;
          c.trials = 60;
          c.loss_rate = 5e-3;
          c.seed = seed * 10 + static_cast<std::uint64_t>(pr);
          items.push_back(c);
        }
        std::deque<obs::TraceSink> sinks;
        for (std::size_t i = 0; i < items.size(); ++i)
          sinks.emplace_back("item " + std::to_string(i));
        const auto results = parallel_map(
            items,
            [&](const FctConfig& c, std::size_t i) {
              obs::SinkScope scope(&sinks[i]);
              return run_fct(c);
            },
            inner);
        obs::TraceSink* cell = obs::current_sink();
        std::string row;
        for (std::size_t i = 0; i < results.size(); ++i) {
          row += fct_row(results[i]) + ";";
          cell->absorb(sinks[i]);
        }
        return row + std::to_string(cell->ring().size()) + " records";
      },
      outer);
  collector.uninstall();
  return rows;
}

TEST(ParallelMap, NestedInsideRunnerIsIdenticalAcrossWorkerCounts) {
  const auto ref = run_nested_rows(1, 1);
  ASSERT_EQ(ref.size(), 3u);
  for (unsigned outer : {1u, 4u}) {
    for (unsigned inner : {1u, 4u}) {
      EXPECT_EQ(run_nested_rows(outer, inner), ref)
          << "outer " << outer << ", inner " << inner;
    }
  }
}

// Loss-bucket histogram sweep (the Table-1 pattern): chunked sampling with
// per-chunk Rngs, merged through the mergeable CountHistogram.
std::vector<std::int64_t> run_bucket_counts(unsigned jobs) {
  struct Chunk {
    std::uint64_t seed;
    std::int64_t samples;
  };
  Rng base(4242);
  std::vector<Chunk> chunks;
  for (int k = 0; k < 16; ++k) chunks.push_back(Chunk{base.next_u64(), 5'000});
  const auto hists = run_grid(
      chunks,
      [](const Chunk& ch) {
        Rng rng(ch.seed);
        CountHistogram h;
        for (std::int64_t i = 0; i < ch.samples; ++i) {
          // Log-uniform loss rate in [1e-8, 1e-1), bucketed by decade.
          const double r = rng.uniform(-8.0, -1.0);
          h.add(static_cast<std::int64_t>(-r));
        }
        return h;
      },
      jobs);
  CountHistogram merged;
  for (const CountHistogram& h : hists) merged.merge(h);
  std::vector<std::int64_t> counts;
  for (std::int64_t b = 0; b <= merged.max_value(); ++b) {
    counts.push_back(merged.count_at(b));
  }
  return counts;
}

TEST(ParallelDifferential, LossBucketCountsIdenticalAcrossWorkerCounts) {
  const auto serial = run_bucket_counts(1);
  const auto parallel = run_bucket_counts(3);
  EXPECT_EQ(serial, parallel);
  const auto parallel2 = run_bucket_counts(3);
  EXPECT_EQ(parallel, parallel2);
}

// run_grid(grid, run_stress) (the bench entry point) must agree with
// element-wise serial calls of run_stress.
TEST(ParallelDifferential, GridEntryPointsMatchSerialCalls) {
  const auto grid = stress_grid();
  const auto parallel = run_grid(grid, run_stress);
  ASSERT_EQ(parallel.size(), grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    EXPECT_EQ(stress_row(run_stress(grid[i])), stress_row(parallel[i]));
  }
}

// tune_for_rate = false runs cfg.lg verbatim: tuning it by hand reproduces
// the default path's bytes, and a dataplane knob the per-rate tuning would
// overwrite reaches the run.
TEST(Stress, UntunedConfigRunsVerbatim) {
  const StressConfig tuned = stress_grid()[0];
  StressConfig verbatim = tuned;
  verbatim.lg = lg::tuned_for_rate(verbatim.lg, verbatim.rate);
  verbatim.tune_for_rate = false;
  const StressResult base = run_stress(verbatim);
  EXPECT_EQ(stress_row(base), stress_row(run_stress(tuned)));

  StressConfig slow_loop = verbatim;
  slow_loop.lg.recirc_loop = 4 * verbatim.lg.recirc_loop;
  EXPECT_NE(run_stress(slow_loop).retx_delay_us.percentile(50),
            base.retx_delay_us.percentile(50));
}

}  // namespace
}  // namespace lgsim::harness
