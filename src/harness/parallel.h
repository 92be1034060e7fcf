// Thread-pool replication runner for sweep-style experiments.
//
// Every figure/table of the paper is reproduced by running many independent
// simulations — seeds x loss rates x configs. The Simulator itself is
// single-threaded by design (see DESIGN.md); the parallelism lives one layer
// up, at the replication grid: each {seed, config} cell constructs its own
// Simulator/Rng inside the run function, so workers share no mutable state.
// parallel_map is the tree's one worker loop; ParallelRunner and the traffic
// engine's intra-cell stages (DESIGN.md §15) both fan out through it, and
// nesting them is safe (each call owns its threads and its result slots).
//
// Determinism contract: the merged results are byte-identical for any worker
// count (LGSIM_BENCH_JOBS=1 vs =8), because
//   1. each replication's result depends only on its config (no ambient
//      state, no shared RNG draws, no time-of-day),
//   2. each result lands in its own per-index slot (no locks, no
//      contention-ordering effects), and
//   3. results come back in submission order, which ParallelRunner::run()
//      re-sorts on (seed, config index) — a total order independent of
//      scheduling.
// tests/parallel_runner_test.cc enforces this differentially, and a
// ThreadSanitizer build of the same test runs in the tier-1 ctest pass.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "harness/run_result.h"
#include "obs/trace.h"
#include "util/env.h"

namespace lgsim::harness {

/// Worker count for replication sweeps: LGSIM_BENCH_JOBS if set (strictly
/// positive integer; garbage falls back), else hardware_concurrency.
inline unsigned bench_jobs() {
  unsigned hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 1;
  return parse_positive_count(std::getenv("LGSIM_BENCH_JOBS"), hw);
}

/// Runs `fn(items[i], i)` for every item on up to `jobs` worker threads and
/// returns the results in input order. Items are claimed from a shared atomic
/// cursor (dynamic load balancing: replication run times vary by orders of
/// magnitude across loss rates); each worker writes only to its own slice of
/// per-index slots, so no locking is needed and the output order is fixed by
/// construction. The first exception thrown by any item is rethrown after
/// all workers join.
template <typename Item, typename Fn>
auto parallel_map(const std::vector<Item>& items, Fn&& fn,
                  unsigned jobs = bench_jobs())
    -> std::vector<decltype(fn(items[0], std::size_t{0}))> {
  using Result = decltype(fn(items[0], std::size_t{0}));

  std::vector<std::optional<Result>> slots(items.size());
  if (jobs < 1) jobs = 1;
  const unsigned workers = static_cast<unsigned>(
      std::min<std::size_t>(jobs, items.size()));

  if (workers <= 1) {
    // Serial reference path: identical work, identical order.
    for (std::size_t i = 0; i < items.size(); ++i) slots[i] = fn(items[i], i);
  } else {
    std::atomic<std::size_t> next{0};
    std::vector<std::exception_ptr> errors(workers);
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (unsigned w = 0; w < workers; ++w) {
      pool.emplace_back([&, w] {
        try {
          for (;;) {
            const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= items.size()) return;
            slots[i] = fn(items[i], i);
          }
        } catch (...) {
          errors[w] = std::current_exception();
        }
      });
    }
    for (auto& t : pool) t.join();
    for (auto& e : errors) {
      if (e) std::rethrow_exception(e);
    }
  }

  std::vector<Result> out;
  out.reserve(items.size());
  for (auto& s : slots) {
    if (s.has_value()) out.push_back(std::move(*s));
  }
  return out;
}

/// Fans a grid of {seed, config} replications out over a pool of workers and
/// merges the per-run results deterministically.
///
/// Usage:
///   ParallelRunner<StressConfig, StressResult> runner(
///       [](const StressConfig& c) { return run_stress(c); });
///   for (...) runner.add(cfg.seed, cfg);
///   auto rows = runner.run();              // sorted on (seed, config index)
///   auto ordered = runner.run_in_grid_order();  // submission order
template <typename Config, typename Value>
class ParallelRunner {
 public:
  using RunFn = std::function<Value(const Config&)>;

  explicit ParallelRunner(RunFn fn, unsigned jobs = bench_jobs())
      : fn_(std::move(fn)), jobs_(jobs < 1 ? 1 : jobs) {}

  /// Adds one replication. Returns its config index (grid position), the
  /// tie-breaker of the merge order.
  std::size_t add(std::uint64_t seed, Config cfg) {
    grid_.push_back(Cell{RunKey{seed, grid_.size()}, std::move(cfg)});
    return grid_.size() - 1;
  }

  std::size_t size() const { return grid_.size(); }
  unsigned jobs() const { return jobs_; }

  /// Runs every cell and returns the merged results sorted on
  /// (seed, config index). Deterministic for any worker count.
  std::vector<RunResult<Value>> run() {
    std::vector<Value> values = run_cells();
    std::vector<RunResult<Value>> merged;
    merged.reserve(values.size());
    for (std::size_t i = 0; i < values.size(); ++i)
      merged.push_back(RunResult<Value>{grid_[i].key, std::move(values[i])});
    std::sort(merged.begin(), merged.end(),
              [](const RunResult<Value>& a, const RunResult<Value>& b) {
                return a.key < b.key;
              });
    return merged;
  }

  /// Runs every cell and returns results in submission order — what a serial
  /// `for` loop over the same grid would have produced, for printing rows in
  /// the paper's table order. Equally deterministic: both orders are total
  /// and scheduling-independent.
  std::vector<Value> run_in_grid_order() { return run_cells(); }

 private:
  struct Cell {
    RunKey key;
    Config cfg;
  };

  std::vector<Value> run_cells() {
    // Per-cell trace sinks, when a bench installed a TraceCollector. All
    // sinks are allocated here on the main thread, before any worker spawns
    // and in grid-submission order, so the exported trace is byte-identical
    // for any worker count: a cell's ring depends only on its deterministic
    // simulation, and sink order depends only on submission order. Each cell
    // runs under a SinkScope for its own sink (one thread at a time — no
    // synchronization needed); worker threads start with a null thread-local
    // sink, so untraced runs are unaffected.
    std::vector<obs::TraceSink*> sinks;
    if (obs::TraceCollector* col = obs::TraceCollector::active()) {
      sinks.reserve(grid_.size());
      for (const Cell& c : grid_) {
        sinks.push_back(
            col->make_sink("cell " + std::to_string(c.key.config_index) +
                           " seed=" + std::to_string(c.key.seed)));
      }
    }
    return parallel_map(
        grid_,
        [&](const Cell& c, std::size_t i) {
          if (sinks.empty()) return fn_(c.cfg);
          obs::SinkScope scope(sinks[i]);
          return fn_(c.cfg);
        },
        jobs_);
  }

  RunFn fn_;
  unsigned jobs_;
  std::vector<Cell> grid_;
};

}  // namespace lgsim::harness
