// Thread-pool replication runner for sweep-style experiments.
//
// Every figure/table of the paper is reproduced by running many independent
// simulations — seeds x loss rates x configs. The Simulator itself is
// single-threaded by design (see DESIGN.md); the parallelism lives one layer
// up, at the replication grid: each {seed, config} cell constructs its own
// Simulator/Rng inside the run function, so workers share no mutable state.
// parallel_map is the tree's one worker loop; run_grid (replication grids)
// and the traffic engine's intra-cell stages (DESIGN.md §15) both fan out
// through it, and nesting them is safe (each call owns its threads and its
// result slots).
//
// Determinism contract: the merged results are byte-identical for any worker
// count (LGSIM_BENCH_JOBS=1 vs =8), because
//   1. each replication's result depends only on its config (no ambient
//      state, no shared RNG draws, no time-of-day),
//   2. each result lands in its own per-index slot (no locks, no
//      contention-ordering effects), and
//   3. results come back in item order, a total order independent of
//      scheduling.
// tests/parallel_runner_test.cc enforces this differentially, and a
// ThreadSanitizer build of the same test runs in the tier-1 ctest pass.
#pragma once

#include <algorithm>
#include <atomic>
#include <exception>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/trace.h"
#include "util/env.h"

namespace lgsim::harness {

/// Worker count for replication sweeps: LGSIM_BENCH_JOBS if set (an integer
/// in [1, 1024]; anything else throws std::invalid_argument), else
/// hardware_concurrency.
inline unsigned bench_jobs() {
  unsigned hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 1;
  return parse_positive_count("LGSIM_BENCH_JOBS",
                              std::getenv("LGSIM_BENCH_JOBS"), hw);
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

/// Runs `fn(item)` for every item of a replication grid on up to `jobs`
/// workers and returns the results in item order — what a serial `for` loop
/// over the same grid would have produced.
///
/// When a bench installed a TraceCollector, every item runs under its own
/// trace sink. All sinks are allocated here on the main thread, before any
/// worker spawns and in item order, so the exported trace is byte-identical
/// for any worker count: an item's ring depends only on its deterministic
/// simulation, and sink order depends only on item order. Sinks are labelled
/// "cell <i> seed=<item.seed>", or "cell <i>" for items without a `seed`
/// member. Worker threads start with a null thread-local sink, so untraced
/// runs are unaffected.
///
/// Usage: `auto rows = run_grid(grid, run_stress);`
template <class Item, class Fn>
auto run_grid(const std::vector<Item>& items, Fn&& fn,
              unsigned jobs = bench_jobs()) {
  std::vector<obs::TraceSink*> sinks;
  if (obs::TraceCollector* col = obs::TraceCollector::active()) {
    sinks.reserve(items.size());
    for (std::size_t i = 0; i < items.size(); ++i) {
      std::string label = "cell " + std::to_string(i);
      if constexpr (requires(const Item& it) { it.seed; })
        label += " seed=" + std::to_string(items[i].seed);
      sinks.push_back(col->make_sink(label));
    }
  }
  return parallel_map(
      items,
      [&](const Item& item, std::size_t i) {
        if (sinks.empty()) return fn(item);
        obs::SinkScope scope(sinks[i]);
        return fn(item);
      },
      jobs);
}

}  // namespace lgsim::harness
