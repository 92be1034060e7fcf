// Benchmark binary: runs one workload's closed batch repeatedly on one worker
// for a fixed number of seconds and prints one JSON object as its last line
// of stdout. run.py builds this binary, launches it, checks the per-cell
// digests against the goldens and prints the contract result; see README.md.
//
//   lgbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//           [--out <dir>] [--setup-only]
//
// --setup-only runs the workload's setup and prints "ready <steady ns>", the
// moment of the first timed call; run.py turns that into setup_s.
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <map>
#include <new>
#include <queue>
#include <string>
#include <vector>

#include "bench.h"
#include "obs/trace.h"

// ---------------------------------------------------------------------------
// Interposed allocation counter (bench_micro's idiom): every heap allocation
// in the process goes through here, so allocation counts per frame, trial,
// flow and transition repeat exactly from run to run.
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

namespace lgbench {

std::uint64_t heap_allocs() {
  return g_heap_allocs.load(std::memory_order_relaxed);
}

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

volatile double g_kept = 0;

void keep(double v) { g_kept = v; }

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

void CellTimes::record(std::size_t cell, double wall_s, double cpu_s) {
  if (wall_.size() <= cell) {
    wall_.resize(cell + 1);
    cpu_.resize(cell + 1);
  }
  wall_[cell].push_back(wall_s);
  cpu_[cell].push_back(cpu_s);
}

double CellTimes::total(const std::vector<std::vector<double>>& cells,
                        const std::vector<double>* scale) {
  double sum = 0;
  for (std::vector<double> v : cells) {
    for (std::size_t k = 0; scale != nullptr && k < v.size(); ++k)
      v[k] *= scale->at(k);
    sum += estimate(std::move(v));
  }
  return sum;
}

double CellTimes::total_wall() const { return total(wall_, nullptr); }
double CellTimes::total_cpu() const { return total(cpu_, nullptr); }
double CellTimes::total_wall(const std::vector<double>& scale) const {
  return total(wall_, &scale);
}
double CellTimes::total_cpu(const std::vector<double>& scale) const {
  return total(cpu_, &scale);
}

double probe_seconds() {
  const std::int64_t t0 = now_ns();
  std::map<std::int64_t, std::int64_t> m;
  std::priority_queue<std::int64_t, std::vector<std::int64_t>,
                      std::greater<>>
      heap;
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  std::int64_t acc = 0;
  for (int i = 0; i < 60'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    m[static_cast<std::int64_t>(x % 200'000)] = i;
    heap.push(static_cast<std::int64_t>(x >> 20));
    if (m.size() > 30'000) m.erase(m.begin());
    if (heap.size() > 20'000) {
      acc += heap.top();
      heap.pop();
    }
  }
  keep(static_cast<double>(acc) + static_cast<double>(m.size()));
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

double CellTimes::estimate(std::vector<double> samples) {
  return median(std::move(samples));
}

void report_cells(const CellTimes& t, LayerReport& out) {
  std::vector<double> cell_s;
  for (std::size_t i = 0; i < t.size(); ++i) cell_s.push_back(t.wall(i));
  const double mx = *std::max_element(cell_s.begin(), cell_s.end());
  out.values["harness.cell_s.p50"] = median(cell_s);
  out.values["harness.cell_s.max"] = mx;
  out.values["harness.max_cell_share"] = mx / t.total_wall();
}

std::map<std::string, Tracer::Time> Tracer::times() const {
  std::vector<double> child_s(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0)
      child_s[static_cast<std::size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
  }
  std::map<std::string, Time> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const double d =
        static_cast<double>(spans_[i].end_ns - spans_[i].start_ns) * 1e-9;
    Time& t = out[spans_[i].name];
    t.total_s += d;
    t.self_s += d - child_s[i];
    ++t.count;
  }
  return out;
}

bool Tracer::write_json(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  f << "{\"spans\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    f << "  {\"id\": " << i << ", \"name\": \"" << s.name
      << "\", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
      << ", \"parent\": " << s.parent << "}" << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  f << "]}\n";
  return static_cast<bool>(f);
}

}  // namespace lgbench

namespace {

using lgbench::CellResult;
using lgbench::LayerReport;
using lgbench::Tracer;

/// Every per-layer metric, in BENCHMARK.json order. A traced run reports all
/// of them; one the workload does not measure reads 0 with its reason.
struct LayerMetric {
  const char* name;
  const char* unit;
};
const LayerMetric kLayerMetrics[] = {
    {"sim.events", "count"}, {"sim.peak_pending", "count"},
    {"sim.ns_per_event", "ns"},
    {"net.loss_draw_ns", "ns"}, {"net.port_ns_per_frame", "ns"},
    {"net.frames_enqueued", "count"}, {"net.frames_dropped", "count"},
    {"lg.ordered.ns_per_frame", "ns"}, {"lg.nb.ns_per_frame", "ns"},
    {"lg.fct_overhead_us", "us"}, {"lg.allocs_per_frame", "allocs/frame"},
    {"lg.retx_copies", "count"}, {"lg.recovered", "count"},
    {"lg.timeouts", "count"}, {"lg.pauses", "count"},
    {"transport.dctcp.us_per_trial", "us"},
    {"transport.cubic.us_per_trial", "us"},
    {"transport.bbr.us_per_trial", "us"},
    {"transport.rdma.us_per_trial", "us"},
    {"transport.allocs_per_trial", "allocs/trial"},
    {"harness.cell_s.p50", "s"}, {"harness.cell_s.max", "s"},
    {"harness.max_cell_share", "frac"},
    {"workload.sample_ns", "ns"}, {"workload.gap_ns", "ns"},
    {"traffic.resolve_ns", "ns"}, {"traffic.fluid_ns", "ns"},
    {"traffic.replay_s", "s"}, {"traffic.glue_s", "s"},
    {"traffic.allocs_per_flow", "allocs/flow"},
    {"traffic.flows_generated", "count"}, {"traffic.flows_victim", "count"},
    {"traffic.flows_packet", "count"}, {"traffic.flows_fluid", "count"},
    {"traffic.flows_stranded", "count"},
    {"util.percentile_s", "s"},
    {"fabric.build_s", "s"}, {"fabric.apply_ns", "ns"},
    {"fabric.can_disable_ns", "ns"},
    {"fabric.allocs_per_transition", "allocs/apply"},
    {"corropt.stream_pop_ns", "ns"}, {"corropt.ns_per_event", "ns"},
    {"corropt.events", "count"}, {"corropt.samples", "count"},
    {"corropt.kept_active", "count"},
    {"corropt.disabled_by_optimizer", "count"},
    {"obs.trace_overhead_frac", "frac"},
};

std::string json_escape(const std::string& s) {
  std::string o;
  for (char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    o += c;
  }
  return o;
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

std::uint64_t fnv(const std::string& s) {
  lgbench::Digest d;
  d.add_bytes(s.data(), s.size());
  return d.value();
}

std::string hex(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Peak resident set of this process image in KiB (VmHWM). Unlike
/// getrusage's ru_maxrss it starts afresh at exec, so the launching
/// process's footprint is not counted.
double peak_rss_kib() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr);
  }
  return 0;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "lgbench: %s\nusage: lgbench --workload <stress_fig08|"
               "fct_testbed|traffic_fabric|deploy_year> --seed <n> "
               "--seconds <s> --trace <0|1> [--out <dir>] [--setup-only]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, out_dir;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  bool setup_only = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_val = i + 1 < argc;
    if (a == "--setup-only") {
      setup_only = true;
    } else if (a == "--workload" && has_val) {
      workload = argv[++i];
    } else if (a == "--seed" && has_val) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_val) {
      seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has_val) {
      trace = std::atoi(argv[++i]);
    } else if (a == "--out" && has_val) {
      out_dir = argv[++i];
    } else {
      return usage(("unknown argument " + a).c_str());
    }
  }
  std::unique_ptr<lgbench::Workload> w = lgbench::make_workload(workload, seed);
  if (w == nullptr) return usage(("unknown workload '" + workload + "'").c_str());
  if (!(seconds > 0) || (trace != 0 && trace != 1))
    return usage("--seconds must be > 0 and --trace 0 or 1");

  Tracer tr;
  {
    lgbench::SpanScope s(trace ? &tr : nullptr, "setup");
    w->setup();
  }
  if (setup_only) {
    const std::int64_t ready = lgbench::now_ns();
    std::printf("ready %lld %.9g\n", static_cast<long long>(ready),
                lgbench::probe_seconds());
    return 0;
  }

  // Warm-up batch: fills caches and finishes lazy set-up; its cells are the
  // reference every timed batch must reproduce bit for bit, and the digests
  // run.py compares against the goldens.
  w->run_batch(nullptr, false);
  const std::vector<CellResult> ref = w->check_batch();
  w->clear_times();
  // Per cell: how often it ran and how often it broke an identity or
  // differed from the reference.
  std::vector<std::int64_t> runs(ref.size(), 1), failed(ref.size(), 0);
  for (std::size_t i = 0; i < ref.size(); ++i) failed[i] = !ref[i].broken.empty();
  auto check = [&](const std::vector<CellResult>& got) {
    for (std::size_t i = 0; i < ref.size(); ++i) {
      ++runs[i];
      failed[i] += i >= got.size() || got[i].digest != ref[i].digest ||
                   !got[i].broken.empty();
    }
  };

  // Timed phase. Untraced batches give the end-to-end metrics; a traced run
  // alternates them with batches under an installed obs::TraceSink.
  // Each untraced batch sits between two host-speed probes; their mean
  // scales that batch's cell times to reference seconds.
  std::vector<double> wall, traced_wall, probe, scale;
  const std::int64_t t_end =
      lgbench::now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  double probe_before = lgbench::probe_seconds();
  do {
    const std::int64_t t0 = lgbench::now_ns();
    w->run_batch(trace ? &tr : nullptr, false);
    wall.push_back(static_cast<double>(lgbench::now_ns() - t0) * 1e-9);
    const double probe_after = lgbench::probe_seconds();
    probe.push_back(0.5 * (probe_before + probe_after));
    scale.push_back(lgbench::kProbeRefS / probe.back());
    probe_before = probe_after;
    check(w->check_batch());
    if (trace) {
      // Inner spans stay with the untraced batches, so per-layer times are
      // never mixed with the cost of the obs trace points.
      const std::int64_t t1 = lgbench::now_ns();
      w->run_batch(nullptr, true);
      traced_wall.push_back(static_cast<double>(lgbench::now_ns() - t1) * 1e-9);
      check(w->check_batch());
    }
  } while (lgbench::now_ns() < t_end);

  // One batch's seconds: each cell's median over the timed batches, summed,
  // which leaves out the checks between cells and uses every cell run as a
  // sample.
  const double raw_wall_s = w->times().total_wall();
  const double raw_cpu_s = w->times().total_cpu();
  const double wall_s = w->times().total_wall(scale);
  const double cpu_s = w->times().total_cpu(scale);

  std::string metrics;
  std::string notes;
  auto metric = [&](const std::string& name, double v, const char* unit) {
    metrics += (metrics.empty() ? "" : ", ") + ("\"" + name + "\": {\"value\": ") +
               num(v) + ", \"unit\": \"" + unit + "\"}";
  };
  if (!trace) {
    metric("wall_s", wall_s, "s");
    metric("cpu_s", cpu_s, "s");
  } else {
    LayerReport rep;
    w->layers(tr, rep);
    const double untraced = lgbench::median(wall);
    rep.values["obs.trace_overhead_frac"] =
        (lgbench::median(traced_wall) - untraced) / untraced;
    for (const auto& [name, unit] : kLayerMetrics) {
      auto it = rep.values.find(name);
      if (it == rep.values.end()) {
        metric(name, 0.0, unit);
        const auto why = rep.unmeasured.find(name);
        notes += std::string(notes.empty() ? "" : ", ") + "\"" + name +
                 "\": \"" +
                 json_escape(why != rep.unmeasured.end()
                                 ? why->second
                                 : "measured on another workload "
                                   "(perfbench/README.md)") +
                 "\"";
      } else {
        metric(name, it->second, unit);
      }
    }
    if (!out_dir.empty()) {
      const std::string path = out_dir + "/spans-" + workload + "-seed" +
                               std::to_string(seed) + ".json";
      if (!tr.write_json(path))
        std::fprintf(stderr, "lgbench: cannot write %s\n", path.c_str());
    }
    for (const auto& [name, t] : tr.times()) {
      std::printf("span %-32s n=%-6lld total %.6f s  self %.6f s\n",
                  name.c_str(), static_cast<long long>(t.count), t.total_s,
                  t.self_s);
    }
  }

  std::string walls;
  for (double v : wall) walls += (walls.empty() ? "" : ", ") + num(v);
  std::string cell_walls;
  for (std::size_t i = 0; i < w->times().size(); ++i) {
    cell_walls += std::string(i ? "], [" : "[");
    const auto& v = w->times().wall_samples(i);
    for (std::size_t k = 0; k < v.size(); ++k) cell_walls += (k ? ", " : "") + num(v[k]);
  }
  if (!cell_walls.empty()) cell_walls += "]";
  std::string cells;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    cells += std::string(i ? ", " : "") + "{\"name\": \"" + ref[i].name +
             "\", \"digest\": \"" + hex(ref[i].digest) + "\", \"broken\": \"" +
             json_escape(ref[i].broken) + "\", \"runs\": " +
             std::to_string(runs[i]) + ", \"failed\": " +
             std::to_string(failed[i]) + "}";
  }
  std::printf(
      "{\"workload\": \"%s\", \"seed\": %llu, \"workers\": 1, "
      "\"batch_wall_s\": [%s], \"cell_wall_s\": [%s], \"rate_name\": \"%s\", \"ops_per_batch\": %s, "
      "\"cpu_over_wall\": %s, \"ops_per_s\": %s, \"peak_rss_mb\": %s, "
      "\"raw_wall_s\": %s, \"raw_cpu_s\": %s, \"probe_s\": %s, "
      "\"config_hash\": \"%s\", "
      "\"compiler\": \"%s\", \"build_type\": \"%s\", \"flags\": \"%s\", "
      "\"metrics\": {%s}, "
      "\"unmeasured\": {%s}, \"cells\": [%s]}\n",
      workload.c_str(), static_cast<unsigned long long>(seed), walls.c_str(), cell_walls.c_str(),
      w->rate_name(), num(w->ops_per_batch()).c_str(),
      num(raw_cpu_s / raw_wall_s).c_str(),
      num(w->ops_per_batch() / raw_wall_s).c_str(),
      num(peak_rss_kib() / 1024.0).c_str(), num(raw_wall_s).c_str(),
      num(raw_cpu_s).c_str(), num(lgbench::median(probe)).c_str(),
      hex(fnv(w->config())).c_str(), LGBENCH_COMPILER, LGBENCH_BUILD_TYPE,
      LGBENCH_FLAGS, metrics.c_str(), notes.c_str(), cells.c_str());
  return 0;
}
