// Tests for the observability subsystem: metrics registry, trace ring,
// actor interning, the Chrome trace-event exporter (golden file — the byte
// stream is part of the determinism contract), and per-cell sink threading
// through harness::run_grid. Suites are named Obs* so the tsan ctest preset
// (filter "Parallel|Obs|Shard") exercises the multi-threaded sink path under
// TSan.
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "harness/parallel.h"
#include "net/port.h"
#include "obs/chrome_trace.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/simulator.h"

namespace lgsim {
namespace {

static_assert(obs::kTraceCompiledIn,
              "default test build must have tracing compiled in");
static_assert(obs::kNumCats == 9, "category name table out of sync");
static_assert(obs::kNumKinds == 25, "kind name table out of sync");

// ---------------------------------------------------------------- metrics --

TEST(ObsMetrics, CounterGaugeDistributionSnapshot) {
  obs::MetricsRegistry m;
  EXPECT_TRUE(m.empty());
  m.counter("z.frames") = 7;
  m.counter("z.frames") += 3;
  m.gauge("a.rate") = 0.25;
  auto& d = m.distribution("q.depth");
  d.add(1.0);
  d.add(3.0);
  EXPECT_FALSE(m.empty());

  const auto snap = m.snapshot();
  // Sorted by name; the distribution expands into four derived entries.
  ASSERT_EQ(snap.size(), 6u);
  EXPECT_EQ(snap[0].first, "a.rate");
  EXPECT_DOUBLE_EQ(snap[0].second, 0.25);
  EXPECT_EQ(snap[1].first, "q.depth.count");
  EXPECT_DOUBLE_EQ(snap[1].second, 2.0);
  EXPECT_EQ(snap[2].first, "q.depth.max");
  EXPECT_DOUBLE_EQ(snap[2].second, 3.0);
  EXPECT_EQ(snap[3].first, "q.depth.mean");
  EXPECT_DOUBLE_EQ(snap[3].second, 2.0);
  EXPECT_EQ(snap[4].first, "q.depth.min");
  EXPECT_DOUBLE_EQ(snap[4].second, 1.0);
  EXPECT_EQ(snap[5].first, "z.frames");
  EXPECT_DOUBLE_EQ(snap[5].second, 10.0);
}

TEST(ObsMetrics, FormatValueIsDeterministic) {
  EXPECT_EQ(obs::MetricsRegistry::format_value(3.0), "3");
  EXPECT_EQ(obs::MetricsRegistry::format_value(-42.0), "-42");
  EXPECT_EQ(obs::MetricsRegistry::format_value(0.5), "0.5");
  EXPECT_EQ(obs::MetricsRegistry::format_value(1e18), "1e+18");
}

TEST(ObsMetrics, JsonGolden) {
  obs::MetricsRegistry m;
  m.counter("b.count") = 12;
  m.gauge("a.frac") = 0.5;

  std::ostringstream js;
  m.write_json(js);
  EXPECT_EQ(js.str(), R"({"a.frac":0.5,"b.count":12})");
}

// ------------------------------------------------------------------- ring --

TEST(ObsRing, WraparoundEvictsOldestWithoutCorruption) {
  constexpr std::size_t kCap = 8;
  obs::TraceRing ring(kCap);
  for (std::int64_t i = 0; i < 3 * static_cast<std::int64_t>(kCap); ++i) {
    ring.push(obs::TraceRecord{/*ts=*/i, /*actor=*/1, obs::Cat::kPort,
                               obs::Kind::kEnqueue,
                               /*aux=*/static_cast<std::uint16_t>(i), i,
                               2 * i});
  }
  EXPECT_EQ(ring.capacity(), kCap);
  EXPECT_EQ(ring.size(), kCap);
  EXPECT_EQ(ring.total_pushed(), 3 * kCap);
  EXPECT_EQ(ring.evicted(), 2 * kCap);
  // Newest kCap records retained, oldest-first, every field intact.
  for (std::size_t i = 0; i < kCap; ++i) {
    const auto expect = static_cast<std::int64_t>(2 * kCap + i);
    const obs::TraceRecord& r = ring.at(i);
    EXPECT_EQ(r.ts, expect);
    EXPECT_EQ(r.a, expect);
    EXPECT_EQ(r.b, 2 * expect);
    EXPECT_EQ(r.aux, static_cast<std::uint16_t>(expect));
    EXPECT_EQ(r.actor, 1u);
  }
}

TEST(ObsRing, PartiallyFilledKeepsEverything) {
  obs::TraceRing ring(16);
  for (std::int64_t i = 0; i < 5; ++i)
    ring.push(obs::TraceRecord{i, 0, obs::Cat::kSim, obs::Kind::kPoll, 0, i, 0});
  EXPECT_EQ(ring.size(), 5u);
  EXPECT_EQ(ring.evicted(), 0u);
  for (std::size_t i = 0; i < 5; ++i)
    EXPECT_EQ(ring.at(i).a, static_cast<std::int64_t>(i));
}

// ------------------------------------------------------------ sink + emit --

TEST(ObsSink, InterningIsStableAndDense) {
  obs::TraceSink sink("s");
  const auto a = sink.intern("port0");
  const auto b = sink.intern("port1");
  EXPECT_EQ(a, 1u);  // id 0 reserved for "unknown"
  EXPECT_EQ(b, 2u);
  EXPECT_EQ(sink.intern("port0"), a);
  EXPECT_EQ(sink.actor_name(a), "port0");
  EXPECT_EQ(sink.actor_name(0), "");
  EXPECT_EQ(sink.actor_name(99), "");  // out of range folds to unknown
}

TEST(ObsSink, EmitIsNoOpWithoutSinkAndRoutesWithScope) {
  EXPECT_EQ(obs::current_sink(), nullptr);
  EXPECT_EQ(obs::intern_actor("nobody"), 0u);
  obs::emit(1, obs::Cat::kLg, obs::Kind::kRetx, 1, 2, 3);  // must not crash

  obs::TraceSink sink("run");
  {
    obs::SinkScope scope(&sink);
    EXPECT_EQ(obs::current_sink(), &sink);
    const auto actor = obs::intern_actor("lg/snd");
    EXPECT_EQ(actor, 1u);
    obs::emit(10, obs::Cat::kLg, obs::Kind::kRetx, actor, 5, 6, 7);
    obs::emit_counter(20, obs::Cat::kSim, actor, 42);
  }
  EXPECT_EQ(obs::current_sink(), nullptr);
  ASSERT_EQ(sink.ring().size(), 2u);
  EXPECT_EQ(sink.ring().at(0).kind, obs::Kind::kRetx);
  EXPECT_EQ(sink.ring().at(0).aux, 7);
  EXPECT_EQ(sink.ring().at(1).kind, obs::Kind::kCounter);
  EXPECT_EQ(sink.ring().at(1).a, 42);
}

TEST(ObsSink, ScopesNestAndRestore) {
  obs::TraceSink outer("outer"), inner("inner");
  obs::SinkScope a(&outer);
  {
    obs::SinkScope b(&inner);
    EXPECT_EQ(obs::current_sink(), &inner);
  }
  EXPECT_EQ(obs::current_sink(), &outer);
}

// --------------------------------------------------------- chrome exporter --

TEST(ObsChromeTrace, GoldenExport) {
  obs::TraceSink sink("golden", 4);
  {
    obs::SinkScope scope(&sink);
    const auto port = obs::intern_actor("portA");
    const auto series = obs::intern_actor("series.q");
    obs::emit(1500, obs::Cat::kPort, obs::Kind::kEnqueue, port, 1518, 7);
    obs::emit_counter(2000, obs::Cat::kSim, series, 42);
  }
  sink.metrics().counter("x.frames") = 3;
  sink.metrics().gauge("y.rate") = 0.5;

  std::ostringstream os;
  obs::write_chrome_trace(os, std::vector<const obs::TraceSink*>{&sink});

  const std::string expected =
      "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n"
      "{\"ph\":\"M\",\"pid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"golden\"}},\n"
      "{\"ph\":\"M\",\"pid\":0,\"tid\":1,\"name\":\"thread_name\",\"args\":{\"name\":\"portA\"}},\n"
      "{\"ph\":\"M\",\"pid\":0,\"tid\":2,\"name\":\"thread_name\",\"args\":{\"name\":\"series.q\"}},\n"
      "{\"ph\":\"i\",\"pid\":0,\"tid\":1,\"ts\":1.500,\"s\":\"t\",\"cat\":\"port\",\"name\":\"enqueue\",\"args\":{\"a\":1518,\"b\":7,\"aux\":0}},\n"
      "{\"ph\":\"C\",\"pid\":0,\"tid\":0,\"ts\":2.000,\"cat\":\"sim\",\"name\":\"series.q\",\"args\":{\"value\":42}}\n"
      "],\"metrics\":[\n"
      "{\"pid\":0,\"label\":\"golden\",\"evicted_records\":0,\"values\":{\"x.frames\":3,\"y.rate\":0.5}}\n"
      "]}\n";
  EXPECT_EQ(os.str(), expected);
}

TEST(ObsChromeTrace, EscapesAndSkipsNullSinksKeepingPids) {
  obs::TraceSink sink("we\"ird\\label", 4);
  std::ostringstream os;
  obs::write_chrome_trace(
      os, std::vector<const obs::TraceSink*>{nullptr, &sink});
  const std::string s = os.str();
  EXPECT_NE(s.find("\"pid\":1"), std::string::npos);
  EXPECT_EQ(s.find("\"pid\":0,"), std::string::npos);
  EXPECT_NE(s.find("we\\\"ird\\\\label"), std::string::npos);
}

TEST(ObsChromeTrace, BalancedBracesOutsideStrings) {
  // Structural sanity on a non-trivial export: every brace/bracket outside a
  // JSON string literal must balance (a cheap stand-in for full parsing).
  obs::TraceCollector col(8);
  obs::TraceSink* sink = col.make_sink("cell");
  {
    obs::SinkScope scope(sink);
    const auto a = obs::intern_actor("x");
    for (int i = 0; i < 20; ++i)  // force wraparound in the export too
      obs::emit(i, obs::Cat::kLg, obs::Kind::kAck, a, i, -i);
  }
  sink->metrics().counter("c") = 1;
  std::ostringstream os;
  obs::write_chrome_trace(os, col);
  const std::string s = os.str();
  int braces = 0, brackets = 0;
  bool in_string = false, escaped = false;
  for (char c : s) {
    if (escaped) { escaped = false; continue; }
    if (c == '\\') { escaped = true; continue; }
    if (c == '"') { in_string = !in_string; continue; }
    if (in_string) continue;
    if (c == '{') ++braces;
    if (c == '}') --braces;
    if (c == '[') ++brackets;
    if (c == ']') --brackets;
    EXPECT_GE(braces, 0);
    EXPECT_GE(brackets, 0);
  }
  EXPECT_FALSE(in_string);
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  EXPECT_NE(s.find("\"evicted_records\":12"), std::string::npos);
}

// -------------------------------------------------------------- collector --

TEST(ObsCollector, InstallUninstallAndSinkOrder) {
  EXPECT_EQ(obs::TraceCollector::active(), nullptr);
  {
    obs::TraceCollector col(16);
    col.install();
    EXPECT_EQ(obs::TraceCollector::active(), &col);
    obs::TraceSink* a = col.make_sink("a");
    obs::TraceSink* b = col.make_sink("b");
    ASSERT_EQ(col.sink_count(), 2u);
    EXPECT_EQ(&col.sink(0), a);  // creation order == export order
    EXPECT_EQ(&col.sink(1), b);
    EXPECT_EQ(col.ring_capacity(), 16u);
    col.uninstall();
    EXPECT_EQ(obs::TraceCollector::active(), nullptr);
    col.install();  // destructor must clear the active slot
  }
  EXPECT_EQ(obs::TraceCollector::active(), nullptr);
}

// ------------------------------------------- parallel per-cell determinism --

std::string export_grid_with_jobs(unsigned jobs) {
  obs::TraceCollector col(64);
  col.install();
  struct Cell {
    std::uint64_t seed;
    int cfg;
  };
  std::vector<Cell> grid;
  for (int c = 0; c < 8; ++c)
    grid.push_back({1000 + static_cast<std::uint64_t>(c), c});
  const auto rows = harness::run_grid(
      grid,
      [](const Cell& cell) {
        const std::uint32_t actor = obs::intern_actor("cell-actor");
        std::int64_t acc = 0;
        for (int i = 0; i < 50; ++i) {
          obs::emit(static_cast<SimTime>(i) * 10, obs::Cat::kSim,
                    obs::Kind::kPoll, actor, cell.cfg, i);
          acc += cell.cfg + i;
        }
        if (obs::TraceSink* s = obs::current_sink())
          s->metrics().counter("cell.acc") = acc;
        return acc;
      },
      jobs);
  EXPECT_EQ(rows.size(), 8u);
  col.uninstall();
  std::ostringstream os;
  obs::write_chrome_trace(os, col);
  return os.str();
}

TEST(ObsParallelTrace, ExportBytesIdenticalForAnyJobCount) {
  const std::string serial = export_grid_with_jobs(1);
  const std::string parallel = export_grid_with_jobs(4);
  EXPECT_EQ(serial, parallel);
  // One sink per cell, labelled in grid-submission order.
  EXPECT_NE(serial.find("cell 0 seed=1000"), std::string::npos);
  EXPECT_NE(serial.find("cell 7 seed=1007"), std::string::npos);
  EXPECT_NE(serial.find("\"cell.acc\":"), std::string::npos);
}

TEST(ObsParallelTrace, UntracedRunsAllocateNoSinks) {
  ASSERT_EQ(obs::TraceCollector::active(), nullptr);
  const auto rows = harness::run_grid(
      std::vector<int>{0, 1, 2, 3},
      [](const int& cfg) {
        EXPECT_EQ(obs::current_sink(), nullptr);
        return cfg * 2;
      },
      2);
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows[3], 6);
}

TEST(ObsParallelTrace, ItemsWithoutSeedGetIndexLabels) {
  obs::TraceCollector col(16);
  col.install();
  harness::run_grid(std::vector<int>{7, 8}, [](const int& x) { return x; }, 2);
  col.uninstall();
  ASSERT_EQ(col.sink_count(), 2u);
  EXPECT_EQ(col.sink(0).label(), "cell 0");
  EXPECT_EQ(col.sink(1).label(), "cell 1");
}

}  // namespace
}  // namespace lgsim
