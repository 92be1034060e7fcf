// The telemetry_off contract (ISSUE 6 satellite): probes compiled in but
// *disabled* must be invisible — an oracle-fed lifecycle cell constructs no
// prober, draws no extra RNG, schedules no extra events and emits no extra
// trace records, so the pre-telemetry goldens (fig08_golden_j{1,4}) hold
// byte-for-byte. And when probes ARE enabled, the probe path itself must be
// allocation-free in steady state (the same bar the event kernel's hot path
// meets, measured by the same interposed global operator new that
// bench_micro uses — the one observer heap traffic cannot hide from).
//
// Standalone binary (not lg_add_test): it replaces the global allocator.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>

#include "fault/lifecycle.h"
#include "net/loss_model.h"
#include "net/port.h"
#include "obs/trace.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "telemetry/estimator.h"
#include "telemetry/probe.h"

static std::atomic<std::uint64_t> g_heap_allocs{0};

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t n) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
// Replaced too: under AddressSanitizer the nothrow forms (which
// std::stable_sort's temporary buffer uses) would otherwise come from the
// sanitizer runtime and be freed by the free()-backed delete below.
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n ? n : 1);
}
void* operator new[](std::size_t n, const std::nothrow_t& t) noexcept {
  return ::operator new(n, t);
}
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

namespace lgsim {
namespace {

std::uint64_t heap_allocs() {
  return g_heap_allocs.load(std::memory_order_relaxed);
}

// RNG neutrality, component level: the exact Bernoulli loss pattern a
// traffic stream sees must be unchanged by a LinkProber that exists but is
// never started. A single extra (or re-ordered) RNG draw anywhere in the
// disabled path would shift which frames are lost and fail the comparison.
std::string loss_pattern(bool construct_idle_prober) {
  Simulator sim;
  Rng rng(42);
  net::EgressPort port(sim, "wire", gbps(25), /*prop_delay=*/0);
  const int q = port.add_queue({});
  net::BernoulliLoss loss(0.05, rng.split());
  port.set_loss_model(&loss);
  std::string pattern;
  std::int64_t delivered = 0;
  port.set_deliver([&](net::Packet&&) { ++delivered; });

  std::unique_ptr<telemetry::LinkProber> prober;
  if (construct_idle_prober) {
    // Constructed, wired, never started: the telemetry-off configuration.
    prober = std::make_unique<telemetry::LinkProber>(
        sim, telemetry::ProberConfig{},
        [&](net::Packet&& p) { port.enqueue(q, std::move(p)); });
  }

  for (int i = 0; i < 2000; ++i) {
    sim.schedule_at(i * usec(1), [&port, q] {
      net::Packet p;
      p.frame_bytes = 1518;
      port.enqueue(q, std::move(p));
    });
  }
  std::uint64_t events = sim.run();
  pattern += std::to_string(delivered);
  pattern += ":";
  pattern += std::to_string(port.counters().corrupted_frames);
  pattern += ":";
  pattern += std::to_string(events);
  return pattern;
}

TEST(TelemetryOff, IdleProberIsEventAndRngNeutral) {
  EXPECT_EQ(loss_pattern(false), loss_pattern(true));
}

TEST(TelemetryOff, OracleLifecycleConstructsNoProbeState) {
  fault::LifecycleConfig cfg;  // default feed is kOracle
  cfg.scenario = "onset";
  const fault::LifecycleResult r = fault::run_lifecycle(cfg);
  EXPECT_EQ(r.probes_sent, 0);
  EXPECT_EQ(r.probes_rx, 0);
  EXPECT_EQ(r.probes_suppressed, 0);
  EXPECT_FALSE(r.estimate_known);
  EXPECT_GE(r.engaged_at, 0);  // the oracle loop still works as before
}

TEST(TelemetryOn, ProbePathIsAllocationFreeInSteadyState) {
  Simulator sim;
  telemetry::EstimatorConfig ec;
  ec.tau = msec(2);
  ec.period = usec(10);
  ec.window = 256;
  telemetry::SeqWindowEstimator est(ec);  // slots sized here, once
  telemetry::ProberConfig pc;
  pc.period = usec(10);
  telemetry::LinkProber prober(
      sim, pc, [&](net::Packet&& p) {
        est.on_probe(p.probe.seq, p.probe.sent_at, sim.now());
      });
  prober.start();

  // Warm up past every one-time growth in the event kernel, then demand
  // zero heap traffic for the rest of the run: emit + track + estimate.
  // The warm-up must exercise the same shapes as the measured region — a
  // one-shot event firing next to the periodic chain (grows the slot free
  // list once) and a second run() segment (grows the queue once) — so the
  // warm-up fires a throwaway estimate probe and runs two segments.
  telemetry::LossEstimate warm;
  sim.schedule_at(msec(5),
                  [&] { warm = est.estimate(sim.now() - est.config().period); });
  sim.run(msec(8));
  sim.run(msec(10));
  telemetry::LossEstimate mid;
  sim.schedule_at(msec(50), [&] {
    // One period behind now: the tick at exactly `now` has not fired yet
    // (this check was scheduled first), and must not read as a lost probe.
    mid = est.estimate(sim.now() - est.config().period);
  });
  const std::uint64_t before = heap_allocs();
  sim.run(msec(100));
  const std::uint64_t after = heap_allocs();
  EXPECT_EQ(after - before, 0u)
      << "probe path allocated in steady state";
  EXPECT_TRUE(warm.known);
  EXPECT_TRUE(mid.known);
  EXPECT_EQ(mid.rate, 0.0);
  EXPECT_EQ(prober.sent(), 10'000);
}

}  // namespace
}  // namespace lgsim
