// Shared helpers for the experiment benchmark binaries.
//
// Every binary prints the rows of one table/figure from the paper. Scale the
// run length with LGSIM_BENCH_SCALE (e.g. 0.1 for a quick pass, 10 for a
// longer, lower-variance run); 1.0 reproduces the defaults quoted in
// EXPERIMENTS.md.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <string>
#include <string_view>

#include "harness/fct.h"
#include "harness/parallel.h"
#include "lg/config.h"
#include "net/protection.h"
#include "obs/chrome_trace.h"
#include "obs/trace.h"
#include "protect/protect.h"
#include "rifl/rifl.h"
#include "transport/path.h"
#include "transport/tcp.h"
#include "util/env.h"
#include "wharf/wharf.h"

namespace lgsim::bench {

inline double scale() {
  // parse_positive_double rejects NaN/inf/garbage, which std::atof would
  // happily let through into loop bounds (NaN fails every comparison, so a
  // `for (i < scaled(n))` loop would run zero or forever depending on form).
  static const double s =
      parse_positive_double(std::getenv("LGSIM_BENCH_SCALE"), 1.0);
  return s;
}

inline std::int64_t scaled(std::int64_t n, std::int64_t lo = 1) {
  const auto v = static_cast<std::int64_t>(static_cast<double>(n) * scale());
  return v < lo ? lo : v;
}

inline void banner(const char* id, const char* title) {
  std::printf("\n================================================================\n");
  std::printf("%s — %s\n", id, title);
  std::printf("(LGSIM_BENCH_SCALE=%.3g)\n", scale());
  std::printf("================================================================\n");
}

/// Per-binary trace capture: construct first thing in main(). Activated by
/// `--trace=<path>` or LGSIM_TRACE=<path> (flag wins); otherwise inert.
///
/// When active it installs a process-global obs::TraceCollector plus a "main"
/// sink for code running on the main thread; harness::run_grid then adds one
/// sink per replication cell in grid order. The destructor writes
/// everything as Chrome trace-event JSON (open the file in Perfetto /
/// chrome://tracing). The completion note goes to stderr: stdout rows must
/// stay byte-identical whether or not a trace is being captured.
///
/// Ring capacity per sink is LGSIM_TRACE_CAP records (default 65536; the
/// ring keeps the newest records and the export reports how many were
/// evicted).
class TraceSession {
 public:
  TraceSession(int argc, char** argv) {
    if (const char* env = std::getenv("LGSIM_TRACE"); env != nullptr && *env)
      path_ = env;
    for (int i = 1; i < argc; ++i) {
      const std::string_view a = argv[i] != nullptr ? argv[i] : "";
      if (a.rfind("--trace=", 0) == 0) path_ = std::string(a.substr(8));
    }
    if (path_.empty()) return;
    const auto cap = static_cast<std::size_t>(parse_positive_double(
        std::getenv("LGSIM_TRACE_CAP"),
        static_cast<double>(obs::kDefaultRingCapacity)));
    collector_.emplace(cap);
    collector_->install();
    scope_.emplace(collector_->make_sink("main"));
  }

  ~TraceSession() {
    if (!collector_.has_value()) return;
    scope_.reset();
    collector_->uninstall();
    std::ofstream os(path_, std::ios::binary);
    obs::write_chrome_trace(os, *collector_);
    std::fprintf(stderr, "trace: wrote %s (%zu sinks)\n", path_.c_str(),
                 collector_->sink_count());
  }

  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

  bool active() const { return collector_.has_value(); }

 private:
  std::string path_;
  std::optional<obs::TraceCollector> collector_;
  std::optional<obs::SinkScope> scope_;
};

// ---------------------------------------------------------------------------
// Flow-launch / FCT-collection scaffolding, shared by the testbed FCT benches
// (bench_fig10/11/12) and the fabric traffic engine's bench_traffic. One
// TrafficConfig describes a transportxprotection sweep over one flow size;
// fct_grid() expands it into the harness::FctConfig grid in transport-major
// order. The seed strides reproduce each figure's historical per-cell seeds
// exactly (fig10: base 1000, protection stride 1; fig11: base 2000, strides
// 7/31; fig12: base 3000), so extracting the scaffolding changed no output
// byte.
// ---------------------------------------------------------------------------

struct TrafficConfig {
  std::vector<harness::Transport> transports{harness::Transport::kDctcp};
  std::vector<harness::Protection> protections{
      harness::Protection::kNoLoss, harness::Protection::kLg,
      harness::Protection::kLgNb, harness::Protection::kLossOnly};
  std::int64_t flow_bytes = 143;
  std::int64_t trials = 10'000;
  double loss_rate = 1e-3;
  BitRate rate = gbps(100);
  SimTime inter_trial_gap = usec(20);
  /// Per-cell seed = base + protection * protection_stride +
  /// transport * transport_stride.
  std::uint64_t seed_base = 0;
  std::uint64_t seed_protection_stride = 1;
  std::uint64_t seed_transport_stride = 0;
};

inline std::vector<harness::FctConfig> fct_grid(const TrafficConfig& tc) {
  std::vector<harness::FctConfig> grid;
  grid.reserve(tc.transports.size() * tc.protections.size());
  for (harness::Transport tr : tc.transports) {
    for (harness::Protection pr : tc.protections) {
      harness::FctConfig c;
      c.transport = tr;
      c.protection = pr;
      c.flow_bytes = tc.flow_bytes;
      c.trials = tc.trials;
      c.loss_rate = tc.loss_rate;
      c.rate = tc.rate;
      c.inter_trial_gap = tc.inter_trial_gap;
      c.seed = tc.seed_base +
               static_cast<std::uint64_t>(pr) * tc.seed_protection_stride +
               static_cast<std::uint64_t>(tr) * tc.seed_transport_stride;
      grid.push_back(c);
    }
  }
  return grid;
}

// ---------------------------------------------------------------------------
// Protection-scheme goodput scaffolding, shared by bench_tab3_wharf (the
// paper's Table 3) and bench_baselines (the four-scheme comparison sweep).
// ---------------------------------------------------------------------------

/// The schemes the comparison sweeps cover. kNone/kLg/kLgNb use an
/// Unprotected link model (LinkGuardian's machinery lives in the link itself
/// and is switched on with enable_lg, not modelled as a residual process).
enum class Scheme { kNone, kWharf, kRifl, kOnePlusOne, kLg, kLgNb };

inline const char* scheme_name(Scheme s) {
  switch (s) {
    case Scheme::kNone: return "None";
    case Scheme::kWharf: return "Wharf";
    case Scheme::kRifl: return "RIFL";
    case Scheme::kOnePlusOne: return "1+1";
    case Scheme::kLg: return "LinkGuardian";
    case Scheme::kLgNb: return "LinkGuardianNB";
  }
  return "?";
}

inline std::unique_ptr<net::ProtectionScheme> make_scheme(Scheme s) {
  switch (s) {
    case Scheme::kWharf:
      return std::make_unique<wharf::WharfScheme>();
    case Scheme::kRifl:
      return std::make_unique<rifl::RiflScheme>();
    case Scheme::kOnePlusOne:
      return std::make_unique<protect::OnePlusOneScheme>();
    case Scheme::kNone:
    case Scheme::kLg:
    case Scheme::kLgNb:
      break;
  }
  return std::make_unique<net::Unprotected>();
}

/// One goodput measurement: a TCP CUBIC flow across a 10G testbed path whose
/// corrupting link runs the scheme under the given raw loss process.
struct GoodputCell {
  Scheme scheme = Scheme::kNone;
  net::LossSpec loss;
  SimTime duration = 0;
  BitRate line_rate = gbps(10);
};

inline double run_goodput(const GoodputCell& cell) {
  Simulator sim;
  transport::PathConfig pc;
  pc.rate = cell.line_rate;
  pc.host_delay = usec(12);
  pc.link.rate = cell.line_rate;
  pc.link.normal_queue_bytes = 600'000;
  pc.lg = lg::tuned_for_rate(pc.lg, pc.rate);
  // The link's true raw loss rate, including an explicit 0 for the healthy
  // column: LinkGuardian's Eq. 2 sizing treats "no losses observed" the same
  // as "below target" (one reTx copy), so nothing needs a fake floor here.
  pc.lg.actual_loss_rate = cell.loss.rate;
  pc.lg.preserve_order = (cell.scheme != Scheme::kLgNb);

  const std::unique_ptr<net::ProtectionScheme> scheme =
      make_scheme(cell.scheme);
  pc = transport::with_protection(pc, *scheme, cell.loss);

  transport::TestbedPath path(sim, pc);
  if (cell.loss.rate > 0) {
    net::ResidualLoss residual = scheme->residual(cell.loss);
    path.link().set_loss_model(std::move(residual.model));
  }
  if (cell.scheme == Scheme::kLg || cell.scheme == Scheme::kLgNb)
    path.link().enable_lg();

  transport::TcpSender snd(
      sim, {transport::TcpCc::kCubic}, 1,
      [&](net::Packet&& p) { path.send_from_a(std::move(p)); }, [](SimTime) {});
  transport::TcpReceiver rcv(
      1, [&](net::Packet&& p) { path.send_from_b(std::move(p)); });
  std::int64_t delivered = 0;
  path.set_sink_at_b([&](net::Packet&& p) {
    delivered += p.tcp.payload;
    rcv.on_data(p);
  });
  path.set_sink_at_a([&](net::Packet&& p) { snd.on_ack(p); });
  snd.start(1'000'000'000'000LL);

  // Warm up past slow start, then measure.
  const SimTime warmup = cell.duration / 4;
  sim.run(warmup);
  const std::int64_t base = delivered;
  sim.run(warmup + cell.duration);
  return static_cast<double>(delivered - base) * 8.0 /
         static_cast<double>(cell.duration);  // Gbps
}

}  // namespace lgsim::bench
