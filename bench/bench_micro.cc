// Microbenchmarks (google-benchmark) for the hot paths of the simulator:
// event queue, RNG, port datapath and the LinkGuardian protocol machinery —
// plus the runtime guards every run ends with:
//
//   * trace-overhead guard: the runtime-off probe path must cost < 1% of the
//     port datapath (the bound DESIGN.md's overhead model promises for builds
//     that keep LGSIM_TRACE_ENABLED=1 but never install a sink);
//   * allocation guard: the steady-state event loop, port datapath and
//     LinkGuardian datapath (ordered and NB) must perform exactly 0 heap
//     allocations per event/frame, counted by the interposed global
//     operator new below.
//
// Special modes (both bypass google-benchmark):
//   --bench_json=<path>  measure the steady-state kernel metrics and write
//                        them as one JSON object (the shape of a trajectory
//                        point in the committed BENCH_micro.json), then run
//                        the guards.
//   --smoke=<baseline>   reduced mode for ctest: re-measure the steady-state
//                        event loop beside a host-speed reference loop and
//                        fail if its speed relative to that reference
//                        regressed > 20% against the most recent trajectory
//                        point in the committed BENCH_micro.json (plus the
//                        0-alloc guards).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "lg/link.h"
#include "lg/seqno.h"
#include "net/loss_model.h"
#include "net/port.h"
#include "obs/trace.h"
#include "sim/random.h"
#include "sim/simulator.h"

// ---------------------------------------------------------------------------
// Interposed allocation counter. Replacing the global operator new is the
// one observer that cannot be fooled: any heap traffic on a measured path
// shows up here, whether it comes from std::function, a container growing,
// or an allocator hidden behind a move. Counted relaxed — the bench is
// single-threaded; the atomic only keeps the interposer well-defined if a
// library thread ever allocates.
static std::atomic<std::uint64_t> g_heap_allocs{0};

// The interposer pairs malloc-backed operator new with free-backed delete —
// internally consistent, but GCC's heuristic flags free() on a pointer it
// watched come out of operator new.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t n) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(al), n ? n : 1) != 0)
    throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return ::operator new(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using namespace lgsim;

std::uint64_t heap_allocs() {
  return g_heap_allocs.load(std::memory_order_relaxed);
}

double elapsed_ns(std::chrono::steady_clock::time_point t0,
                  std::chrono::steady_clock::time_point t1) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
}

// ------------------------------------------------------------- benchmarks

void BM_EventQueueScheduleRun(benchmark::State& state) {
  // Cold path: a fresh Simulator per iteration, so arena/heap growth is
  // inside the measurement. Kept for continuity with earlier runs; the
  // steady-state benchmark below is the headline kernel metric.
  for (auto _ : state) {
    Simulator sim;
    std::int64_t sum = 0;
    for (int i = 0; i < 1000; ++i) {
      sim.schedule_at(i, [&sum, i] { sum += i; });
    }
    sim.run();
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueScheduleRun);

void BM_EventQueueSteadyState(benchmark::State& state) {
  // Warm path: one Simulator reused across iterations, so slot freelist and
  // heap capacity are warm — the regime every experiment binary runs in
  // after its first millisecond. This is where the allocation-free schedule
  // fast path shows.
  Simulator sim;
  std::int64_t sum = 0;
  for (auto _ : state) {
    const SimTime base = sim.now();
    for (int i = 0; i < 1000; ++i) {
      sim.schedule_at(base + i, [&sum, i] { sum += i; });
    }
    sim.run();
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueSteadyState);

struct Chain {
  Simulator& sim;
  int remaining = 0;
  std::int64_t fired = 0;
  void fire() {
    ++fired;
    if (remaining-- > 0)
      sim.schedule_in(1, [this] { fire(); });
  }
};

void BM_EventChainDepth1(benchmark::State& state) {
  // Latency-critical shape: each event schedules exactly one successor, so
  // the heap never exceeds depth 1 and the cost is pure schedule+dispatch.
  // This is the timer-chain pattern (tx-done -> next tx) on the port path.
  Simulator sim;
  for (auto _ : state) {
    Chain c{sim, 1000};
    c.fire();
    sim.run();
    benchmark::DoNotOptimize(c.fired);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventChainDepth1);

/// Datapath queue shape: a far-future sentinel (a horizon stop, a periodic
/// task's next fire) sits at the back of the queue while kFlows in-flight
/// events each reschedule themselves a small seeded delay ahead, so nearly
/// every new event lands a few places behind the earliest pending one. Three
/// delays in four are at most 32 ns and the rest at most 1024 ns, which puts
/// the mean insert at 3.6 places behind the earliest pending event, as in
/// stress_fig08 (3.5; DESIGN.md §9).
struct NearTerm {
  static constexpr int kFlows = 16;
  static constexpr std::size_t kDelays = 1024;  // power of two
  Simulator& sim;
  SimTime delays[kDelays];
  std::size_t next = 0;
  std::int64_t remaining = 0;

  NearTerm(Simulator& s, std::uint64_t seed) : sim(s) {
    Rng rng(seed);
    for (SimTime& d : delays)
      d = 1 + static_cast<SimTime>(rng.uniform_int(rng.bernoulli(0.75) ? 32 : 1024));
  }
  void arm() {
    sim.schedule_in(delays[next++ & (kDelays - 1)], [this] { fire(); });
  }
  void fire() {
    if (--remaining >= kFlows) arm();
  }
  /// Runs `events` flow events (plus one sentinel) to completion.
  void run(std::int64_t events) {
    remaining = events;
    sim.schedule_in(sec(1), [] {});  // the sentinel: fires after every flow
    for (int f = 0; f < kFlows; ++f) arm();
    sim.run();
  }
};

void BM_EventQueueNearTerm(benchmark::State& state) {
  // The datapath's queue shape (NearTerm above): new events land just behind
  // the earliest pending one while a far-future event holds the back.
  Simulator sim;
  NearTerm nt(sim, /*seed=*/1);
  for (auto _ : state) {
    nt.run(1000);
    benchmark::DoNotOptimize(nt.next);
  }
  state.SetItemsProcessed(state.iterations() * 1001);
}
BENCHMARK(BM_EventQueueNearTerm);

void BM_RngUniform(benchmark::State& state) {
  Rng rng(1);
  double acc = 0;
  for (auto _ : state) acc += rng.uniform();
  benchmark::DoNotOptimize(acc);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RngUniform);

void BM_SeqDistance(benchmark::State& state) {
  lg::SeqEra a{65530, 0}, b{5, 1};
  std::int64_t acc = 0;
  for (auto _ : state) {
    acc += lg::seq_distance(b, a);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SeqDistance);

void BM_PortForwardPath(benchmark::State& state) {
  // Cost of pushing one MTU frame through a port (enqueue + serialize +
  // deliver events).
  for (auto _ : state) {
    state.PauseTiming();
    Simulator sim;
    net::EgressPort port(sim, "p", gbps(100), 0);
    const int q = port.add_queue();
    std::int64_t delivered = 0;
    port.set_deliver([&](net::Packet&&) { ++delivered; });
    state.ResumeTiming();
    for (int i = 0; i < 1000; ++i) {
      net::Packet p;
      p.frame_bytes = 1518;
      port.enqueue(q, std::move(p));
    }
    sim.run();
    benchmark::DoNotOptimize(delivered);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_PortForwardPath);

void BM_LinkGuardianDatapath(benchmark::State& state) {
  // End-to-end protocol cost per protected packet at 1e-3 loss (includes
  // seq stamping, buffering, ACK machinery, retransmissions).
  const double loss = static_cast<double>(state.range(0)) * 1e-4;
  for (auto _ : state) {
    state.PauseTiming();
    Simulator sim;
    lg::LinkSpec spec;
    spec.rate = gbps(100);
    lg::LgConfig cfg;
    cfg.actual_loss_rate = loss > 0 ? loss : 1e-4;
    lg::ProtectedLink link(sim, spec, cfg);
    if (loss > 0)
      link.set_loss_model(std::make_unique<net::BernoulliLoss>(loss, Rng(3)));
    std::int64_t fwd = 0;
    link.set_forward_sink([&](net::Packet&&) { ++fwd; });
    link.enable_lg();
    state.ResumeTiming();
    for (int i = 0; i < 1000; ++i) {
      net::Packet p;
      p.kind = net::PktKind::kData;
      p.frame_bytes = 1518;
      link.send_forward(std::move(p));
    }
    sim.run();
    benchmark::DoNotOptimize(fwd);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_LinkGuardianDatapath)->Arg(0)->Arg(10)->Arg(100);

void BM_TraceEmitRuntimeOff(benchmark::State& state) {
  // The probe cost with tracing compiled in but no sink installed: one
  // thread_local load + null check. This is what every packet pays in a
  // default build when no --trace was requested.
  std::int64_t i = 0;
  for (auto _ : state) {
    obs::emit(i, obs::Cat::kPort, obs::Kind::kEnqueue, 1, i, i);
    benchmark::DoNotOptimize(i);
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceEmitRuntimeOff);

// ---------------------------------------------------------------------------
// Steady-state measurements for the perf trajectory (BENCH_micro.json), the
// smoke check, and the allocation guard. All take the best of several
// trials: scheduler noise and cache warmup only ever add time, so the
// minimum is the honest estimate of intrinsic cost (and keeps the guards
// stable on loaded single-core CI). Allocations, by contrast, are exact in
// steady state — the min across trials of a per-trial exact count.

struct SteadyStat {
  double ns_per_event = 0;
  double allocs_per_event = 0;
  /// Best host-reference time per op, timed right before each trial (event
  /// loop only; 0 where not measured).
  double host_ref_ns = 0;
  double events_per_sec() const { return 1e9 / ns_per_event; }
};

/// Host-speed reference for the event loop: the same batch shape — take
/// `kBatch` records off a LIFO freelist, fill them and queue (time, seq,
/// slot) entries in time order, then drain the queue through a generation
/// check and an indirect call — written without any simulator code. The
/// kernel's time divided by this one cancels how fast the shared host
/// happens to be right now, which an absolute events/sec baseline cannot.
struct RefRecord {
  std::uint64_t gen;
  std::int64_t (*fn)(std::int64_t, std::int64_t);
  std::int64_t arg;
  std::int64_t pad[5];
};
struct RefEntry {
  std::int64_t time;
  std::uint64_t seq;
  std::uint32_t slot;
};
std::int64_t ref_add(std::int64_t a, std::int64_t b) { return a + b; }
std::int64_t ref_xor(std::int64_t a, std::int64_t b) { return a ^ b; }

double measure_host_ref_ns(int batches) {
  constexpr std::uint32_t kBatch = 1000;
  // Static: the reference allocates nothing.
  static RefRecord slots[kBatch];
  static std::uint32_t free_slots[kBatch];
  static RefEntry queue[kBatch];
  std::uint32_t n_free = kBatch;
  for (std::uint32_t i = 0; i < kBatch; ++i) free_slots[i] = kBatch - 1 - i;
  std::int64_t sum = 0, now = 0;
  std::uint64_t seq = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (int b = 0; b < batches; ++b) {
    for (std::uint32_t i = 0; i < kBatch; ++i) {
      const std::uint32_t s = free_slots[--n_free];
      slots[s].fn = (i & 1) != 0 ? ref_add : ref_xor;
      slots[s].arg = i;
      queue[i] = {now + i, seq++, s};
    }
    benchmark::ClobberMemory();
    for (const RefEntry& e : queue) {
      RefRecord& r = slots[e.slot];
      if (r.gen != e.seq) sum = r.fn(sum, r.arg);
      ++r.gen;
      now = e.time;
      free_slots[n_free++] = e.slot;
    }
  }
  const auto t1 = std::chrono::steady_clock::now();
  benchmark::DoNotOptimize(sum);
  return elapsed_ns(t0, t1) / (static_cast<double>(batches) * kBatch);
}

/// Batch-scheduling regime: `kBatch` events pending at once, one Simulator
/// reused so the slot freelist and heap capacity are warm. Each trial is
/// preceded by a host-reference trial of the same size, so both minima come
/// from the same stretch of host time.
SteadyStat measure_event_loop_steady(int batches, int trials) {
  constexpr int kBatch = 1000;
  Simulator sim;
  std::int64_t sum = 0;
  const auto run_batch = [&] {
    const SimTime base = sim.now();
    for (int i = 0; i < kBatch; ++i)
      sim.schedule_at(base + i, [&sum, i] { sum += i; });
    sim.run();
  };
  for (int w = 0; w < 3; ++w) run_batch();  // warm arena/heap/freelist
  SteadyStat best{1e18, 1e18, 1e18};
  for (int t = 0; t < trials; ++t) {
    best.host_ref_ns = std::min(best.host_ref_ns, measure_host_ref_ns(batches));
    const std::uint64_t a0 = heap_allocs();
    const auto t0 = std::chrono::steady_clock::now();
    for (int b = 0; b < batches; ++b) run_batch();
    const auto t1 = std::chrono::steady_clock::now();
    const std::uint64_t a1 = heap_allocs();
    const double events = static_cast<double>(batches) * kBatch;
    best.ns_per_event = std::min(best.ns_per_event, elapsed_ns(t0, t1) / events);
    best.allocs_per_event =
        std::min(best.allocs_per_event, static_cast<double>(a1 - a0) / events);
  }
  benchmark::DoNotOptimize(sum);
  return best;
}

/// Best time and allocation count per event over `trials` calls of
/// `run_trial`, each running `events` events.
template <typename F>
SteadyStat best_event_trial(F&& run_trial, double events, int trials) {
  SteadyStat best{1e18, 1e18};
  for (int t = 0; t < trials; ++t) {
    const std::uint64_t a0 = heap_allocs();
    const auto t0 = std::chrono::steady_clock::now();
    run_trial();
    const auto t1 = std::chrono::steady_clock::now();
    const std::uint64_t a1 = heap_allocs();
    best.ns_per_event = std::min(best.ns_per_event, elapsed_ns(t0, t1) / events);
    best.allocs_per_event =
        std::min(best.allocs_per_event, static_cast<double>(a1 - a0) / events);
  }
  return best;
}

/// Chain regime: each event schedules its one successor (heap depth 1).
SteadyStat measure_event_chain_steady(int events_per_trial, int trials) {
  Simulator sim;
  const auto run_chain = [&](int n) {
    Chain c{sim, n};
    c.fire();
    sim.run();
    benchmark::DoNotOptimize(c.fired);
  };
  run_chain(10'000);  // warm
  return best_event_trial([&] { run_chain(events_per_trial); },
                          static_cast<double>(events_per_trial), trials);
}

/// Near-term regime (NearTerm): the datapath's queue shape.
SteadyStat measure_event_near_steady(std::int64_t events_per_trial, int trials) {
  Simulator sim;
  NearTerm nt(sim, /*seed=*/1);
  nt.run(10'000);  // warm
  return best_event_trial([&] { nt.run(events_per_trial); },
                          static_cast<double>(events_per_trial + 1), trials);
}

/// Runs `run_batch` (kSteadyFrames frames each) three times to warm pools,
/// rings and event slots, then returns the best per-frame time and
/// allocation count over `trials` trials of `batches` batches.
constexpr int kSteadyFrames = 1000;
template <typename F>
SteadyStat best_steady_trial(F&& run_batch, int batches, int trials) {
  for (int w = 0; w < 3; ++w) run_batch();
  return best_event_trial(
      [&] {
        for (int b = 0; b < batches; ++b) run_batch();
      },
      static_cast<double>(batches) * kSteadyFrames, trials);
}

/// Port datapath in steady state: one port reused across batches, so the
/// packet pool, ring queue and event slots are all warm. Per-frame heap
/// allocations in this regime must be exactly zero.
SteadyStat measure_port_steady(int batches, int trials) {
  Simulator sim;
  net::EgressPort port(sim, "p", gbps(100), 0);
  const int q = port.add_queue();
  std::int64_t delivered = 0;
  port.set_deliver([&](net::Packet&&) { ++delivered; });
  const SteadyStat best = best_steady_trial(
      [&] {
        for (int i = 0; i < kSteadyFrames; ++i) {
          net::Packet p;
          p.frame_bytes = 1518;
          port.enqueue(q, std::move(p));
        }
        sim.run();
      },
      batches, trials);
  benchmark::DoNotOptimize(delivered);
  return best;
}

/// LinkGuardian datapath in steady state: one ProtectedLink reused across
/// batches, losing every kLossEvery-th forward frame so gap detection, loss
/// notification, retransmission and (ordered mode) the reorder buffer all
/// run. Once the Tx buffer, reorder buffer and hole rings have reached their
/// working span, per-frame heap allocations must be exactly zero.
SteadyStat measure_lg_steady(bool ordered, int batches, int trials) {
  constexpr std::uint64_t kLossEvery = 97;
  // The scripted indices cover the whole run (3 warm-up batches included);
  // forward frames include retransmitted copies and dummies, so leave
  // generous headroom.
  const std::uint64_t horizon =
      2ull * static_cast<std::uint64_t>(3 + trials * batches) * kSteadyFrames;
  std::vector<std::uint64_t> drops;
  for (std::uint64_t i = kLossEvery - 1; i < horizon; i += kLossEvery)
    drops.push_back(i);
  Simulator sim;
  lg::LinkSpec spec;
  spec.rate = gbps(100);
  lg::LgConfig cfg;
  cfg.actual_loss_rate = 1e-3;
  cfg.preserve_order = ordered;
  lg::ProtectedLink link(sim, spec, cfg);
  link.set_loss_model(std::make_unique<net::ScriptedLoss>(std::move(drops)));
  std::int64_t delivered = 0;
  link.set_forward_sink([&](net::Packet&&) { ++delivered; });
  link.enable_lg();
  const SteadyStat best = best_steady_trial(
      [&] {
        // The retx-delay samples are a reporting accumulator, not datapath
        // state; reset() keeps their capacity, so they do not grow run-long.
        link.receiver().mutable_stats().retx_delay_us.reset();
        for (int i = 0; i < kSteadyFrames; ++i) {
          net::Packet p;
          p.kind = net::PktKind::kData;
          p.frame_bytes = 1518;
          link.send_forward(std::move(p));
        }
        sim.run();
      },
      batches, trials);
  benchmark::DoNotOptimize(delivered);
  return best;
}

// --------------------------------------------------------- overhead guard

template <bool kWithEmit>
double measure_probe_loop_ns() {
  constexpr std::int64_t kIters = 2'000'000;
  constexpr int kProbesPerIter = 4;
  constexpr int kTrials = 5;
  double best = 1e9;
  for (int t = 0; t < kTrials; ++t) {
    std::int64_t x = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (std::int64_t i = 0; i < kIters; ++i) {
      if constexpr (kWithEmit) {
        // Several probes per compiler barrier, mirroring real call sites: a
        // frame's enqueue/dequeue/deliver probes run back to back with the
        // TLS slot hot in L1 and the null branch predicted. One clobber per
        // probe would instead serialize every TLS load — an overcharge no
        // call site pays.
        obs::emit(i, obs::Cat::kPort, obs::Kind::kEnqueue, 1, i, i);
        obs::emit(i, obs::Cat::kPort, obs::Kind::kDequeue, 1, i, i);
        obs::emit(i, obs::Cat::kPort, obs::Kind::kDeliver, 1, i, i);
        obs::emit(i, obs::Cat::kPfc, obs::Kind::kPause, 1, i, i);
      }
      benchmark::DoNotOptimize(x);
    }
    const auto t1 = std::chrono::steady_clock::now();
    const double ns =
        elapsed_ns(t0, t1) / static_cast<double>(kIters * kProbesPerIter);
    if (ns < best) best = ns;
  }
  return best;
}

/// Marginal cost of one runtime-off probe: the emit loop minus the identical
/// loop without the probes. Both loops carry the same clobber and counter
/// overhead, so the difference isolates what the probes actually add.
double measure_emit_off_ns() {
  const double with_emit = measure_probe_loop_ns<true>();
  const double baseline = measure_probe_loop_ns<false>();
  return with_emit > baseline ? with_emit - baseline : 0.0;
}

double measure_port_frame_ns() {
  constexpr std::int64_t kFrames = 100'000;
  constexpr int kTrials = 3;
  double best = 1e9;
  for (int t = 0; t < kTrials; ++t) {
    Simulator sim;
    net::EgressPort port(sim, "p", gbps(100), 0);
    const int q = port.add_queue();
    std::int64_t delivered = 0;
    port.set_deliver([&](net::Packet&&) { ++delivered; });
    const auto t0 = std::chrono::steady_clock::now();
    for (std::int64_t i = 0; i < kFrames; ++i) {
      net::Packet p;
      p.frame_bytes = 1518;
      port.enqueue(q, std::move(p));
    }
    sim.run();
    const auto t1 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(delivered);
    const double ns = elapsed_ns(t0, t1) / static_cast<double>(kFrames);
    if (ns < best) best = ns;
  }
  return best;
}

/// One "<name> <allocs> allocs/<unit> (limit 0) [PASS|FAIL]" guard row.
bool print_alloc_row(const char* name, const char* unit, double allocs) {
  const bool pass = allocs == 0.0;
  std::printf("%-32s %10.3f allocs/%s  (limit 0)  [%s]\n", name, allocs, unit,
              pass ? "PASS" : "FAIL");
  return pass;
}

/// Prints the guard table and returns 0 iff (a) the runtime-off probe cost
/// is under 1% of the port datapath — a forwarded frame crosses 3 probes
/// (enqueue, dequeue, deliver), so 3x the per-probe cost is the entire delta
/// between this build and an LGSIM_TRACE_ENABLED=0 build — and (b) the
/// steady-state event loop, port datapath and LinkGuardian datapath allocate
/// exactly nothing.
int run_guards() {
  const double emit_ns = measure_emit_off_ns();
  const double frame_ns = measure_port_frame_ns();
  constexpr int kProbesPerFrame = 3;
  const double frac = kProbesPerFrame * emit_ns / frame_ns;
  constexpr double kLimit = 0.01;
  const bool trace_pass = frac < kLimit;
  std::printf("\n--- trace overhead guard (LGSIM_TRACE_ENABLED=%d, no sink) ---\n",
              LGSIM_TRACE_ENABLED);
  std::printf("%-32s %10.3f ns/probe\n", "emit(runtime-off)", emit_ns);
  std::printf("%-32s %10.1f ns/frame\n", "port datapath", frame_ns);
  std::printf("%-32s %10d\n", "probes per forwarded frame", kProbesPerFrame);
  std::printf("%-32s %9.3f%%  (limit %.1f%%)  [%s]\n", "runtime-off overhead",
              frac * 100.0, kLimit * 100.0, trace_pass ? "PASS" : "FAIL");

  const SteadyStat loop = measure_event_loop_steady(/*batches=*/200, /*trials=*/3);
  const SteadyStat port = measure_port_steady(/*batches=*/50, /*trials=*/3);
  const SteadyStat lg_ordered = measure_lg_steady(true, /*batches=*/20, /*trials=*/3);
  const SteadyStat lg_nb = measure_lg_steady(false, /*batches=*/20, /*trials=*/3);
  std::printf("--- allocation guard (steady state, interposed operator new) ---\n");
  bool alloc_pass = print_alloc_row("event loop", "event", loop.allocs_per_event);
  alloc_pass &= print_alloc_row("port datapath", "frame", port.allocs_per_event);
  alloc_pass &= print_alloc_row("LG datapath (ordered)", "frame",
                                lg_ordered.allocs_per_event);
  alloc_pass &= print_alloc_row("LG datapath (NB)", "frame", lg_nb.allocs_per_event);
  return (trace_pass && alloc_pass) ? 0 : 1;
}

// ------------------------------------------------- trajectory JSON + smoke

void print_point(const char* name, const SteadyStat& s) {
  std::printf("%-16s %12.0f events/sec %8.2f ns/event %8.3f allocs/event\n",
              name, s.events_per_sec(), s.ns_per_event, s.allocs_per_event);
}

/// Full-fidelity steady-state measurement, written as one JSON object — the
/// shape of a trajectory point in the committed BENCH_micro.json.
int write_bench_json(const char* path) {
  const SteadyStat loop = measure_event_loop_steady(/*batches=*/100, /*trials=*/100);
  const SteadyStat chain = measure_event_chain_steady(/*events=*/500'000, /*trials=*/5);
  const SteadyStat near = measure_event_near_steady(/*events=*/500'000, /*trials=*/5);
  const SteadyStat port = measure_port_steady(/*batches=*/100, /*trials=*/3);
  const SteadyStat lg_ordered = measure_lg_steady(true, /*batches=*/20, /*trials=*/5);
  const SteadyStat lg_nb = measure_lg_steady(false, /*batches=*/20, /*trials=*/5);
  const unsigned cores = std::thread::hardware_concurrency();
  print_point("event_loop", loop);
  print_point("event_chain", chain);
  print_point("event_near_term", near);
  print_point("port_datapath", port);
  print_point("lg_ordered", lg_ordered);
  print_point("lg_nb", lg_nb);
  std::printf("%-16s %12.2f ns/op\n", "host_ref", loop.host_ref_ns);
  FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_micro: cannot write %s\n", path);
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"cores\": %u,\n", cores);
  const auto obj = [f](const char* name, const SteadyStat& s, const char* unit,
                       bool last) {
    std::fprintf(f,
                 "  \"%s\": {\"events_per_sec\": %.0f, \"ns_per_%s\": %.2f, "
                 "\"allocs_per_%s\": %.3f",
                 name, s.events_per_sec(), unit, s.ns_per_event, unit,
                 s.allocs_per_event);
    if (s.host_ref_ns > 0)
      std::fprintf(f, ", \"host_ref_ns_per_op\": %.2f", s.host_ref_ns);
    std::fprintf(f, "}%s\n", last ? "" : ",");
  };
  obj("event_loop", loop, "event", false);
  obj("event_chain", chain, "event", false);
  obj("event_near_term", near, "event", false);
  obj("port_datapath", port, "frame", false);
  obj("lg_ordered", lg_ordered, "frame", false);
  obj("lg_nb", lg_nb, "frame", true);
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path);
  return 0;
}

/// Pulls `key`'s number out of the LAST "event_loop" object in the file — in
/// the committed BENCH_micro.json the trajectory array is chronological, so
/// the last point is the current baseline. Returns -1 when absent.
double parse_event_loop_field(const std::string& text, const char* key) {
  const std::size_t at = text.rfind("\"event_loop\"");
  if (at == std::string::npos) return -1.0;
  const std::size_t end = text.find('}', at);
  const std::size_t k = text.find(std::string("\"") + key + "\"", at);
  if (k == std::string::npos || k > end) return -1.0;
  const std::size_t colon = text.find(':', k);
  if (colon == std::string::npos) return -1.0;
  return std::strtod(text.c_str() + colon + 1, nullptr);
}

/// Reduced mode for the bench-smoke ctest: quick event-loop re-measurement
/// against the committed baseline, plus the 0-alloc guards. The gate is a
/// ratio of ratios: the event loop's time relative to the host reference
/// timed beside it now, against the same relative time in the baseline
/// point. A >20% regression of that host-normalized speed fails; a host that
/// is merely slower than on the baseline day slows both loops alike and
/// cancels out.
int run_smoke(const char* baseline_path) {
  FILE* f = std::fopen(baseline_path, "r");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_micro --smoke: cannot read %s\n", baseline_path);
    return 1;
  }
  std::string text;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
  std::fclose(f);
  const double base_ns = parse_event_loop_field(text, "ns_per_event");
  const double base_ref_ns = parse_event_loop_field(text, "host_ref_ns_per_op");
  if (base_ns <= 0 || base_ref_ns <= 0) {
    std::fprintf(stderr,
                 "bench_micro --smoke: the last event_loop point in %s lacks "
                 "ns_per_event or host_ref_ns_per_op (append a point measured "
                 "with --bench_json)\n",
                 baseline_path);
    return 1;
  }
  const SteadyStat loop = measure_event_loop_steady(/*batches=*/60, /*trials=*/25);
  const SteadyStat port = measure_port_steady(/*batches=*/30, /*trials=*/3);
  const SteadyStat lg_ordered = measure_lg_steady(true, /*batches=*/10, /*trials=*/3);
  const SteadyStat lg_nb = measure_lg_steady(false, /*batches=*/10, /*trials=*/3);
  const double raw_ratio = base_ns / loop.ns_per_event;
  const double host_ratio = base_ref_ns / loop.host_ref_ns;
  const double ratio = raw_ratio / host_ratio;
  constexpr double kFloor = 0.80;  // fail on >20% host-normalized regression
  const bool speed_pass = ratio >= kFloor;
  std::printf("--- bench smoke (baseline %s) ---\n", baseline_path);
  std::printf("%-32s %12.2f ns/event, host ref %.2f ns/op\n",
              "baseline event loop", base_ns, base_ref_ns);
  std::printf("%-32s %12.2f ns/event, host ref %.2f ns/op\n",
              "measured event loop", loop.ns_per_event, loop.host_ref_ns);
  std::printf("%-32s %12.2fx (host %.2fx of baseline)\n", "raw speed vs baseline",
              raw_ratio, host_ratio);
  std::printf("%-32s %12.2fx (floor %.2fx)  [%s]\n", "host-normalized speed",
              ratio, kFloor, speed_pass ? "PASS" : "FAIL");
  bool alloc_pass = print_alloc_row("event loop", "event", loop.allocs_per_event);
  alloc_pass &= print_alloc_row("port datapath", "frame", port.allocs_per_event);
  alloc_pass &= print_alloc_row("LG datapath (ordered)", "frame",
                                lg_ordered.allocs_per_event);
  alloc_pass &= print_alloc_row("LG datapath (NB)", "frame", lg_nb.allocs_per_event);
  return (speed_pass && alloc_pass) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // Accept --trace like every other bench binary, and strip it (plus our own
  // mode flags) before google-benchmark sees the argument list.
  lgsim::bench::TraceSession trace_session(argc, argv);
  const char* json_path = nullptr;
  const char* smoke_path = nullptr;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    const std::string_view a = argv[i] != nullptr ? argv[i] : "";
    if (i > 0 && a.rfind("--trace=", 0) == 0) continue;
    if (i > 0 && a.rfind("--bench_json=", 0) == 0) {
      json_path = argv[i] + std::strlen("--bench_json=");
      continue;
    }
    if (i > 0 && a.rfind("--smoke=", 0) == 0) {
      smoke_path = argv[i] + std::strlen("--smoke=");
      continue;
    }
    args.push_back(argv[i]);
  }
  if (smoke_path != nullptr) return run_smoke(smoke_path);
  if (json_path != nullptr) {
    const int rc = write_bench_json(json_path);
    const int guard = run_guards();
    return rc != 0 ? rc : guard;
  }
  int filtered_argc = static_cast<int>(args.size());
  benchmark::Initialize(&filtered_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data()))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return run_guards();
}
