// Protection-scheme goodput cells, shared by bench_tab3_wharf (the paper's
// Table 3) and bench_baselines (the four-scheme comparison sweep).
//
// A cell is one harness::LongFlow: a TCP CUBIC flow across a 10G testbed
// path whose corrupting link runs the scheme under a raw loss process.
#pragma once

#include <memory>
#include <string>

#include "fault/injector.h"
#include "fault/scenarios.h"
#include "harness/timeline.h"
#include "net/protection.h"
#include "protect/protect.h"
#include "rifl/rifl.h"
#include "wharf/wharf.h"

namespace lgsim::bench {

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

inline constexpr BitRate kGoodputLineRate = gbps(10);

/// One goodput measurement. With no scenario, the link runs `loss` from the
/// start and goodput is read over `duration` after a duration/4 warm-up past
/// slow start. With a fault-catalogue scenario, the scheme is provisioned at
/// design time for `loss`, the link starts healthy, and the scenario script
/// drives the raw process buried inside the scheme's residual model;
/// goodput is read over the scenario's whole horizon (healthy lead-in,
/// fault, recovery) and `duration` is unused.
struct GoodputCell {
  Scheme scheme = Scheme::kNone;
  net::LossSpec loss;
  SimTime duration = 0;
  std::string scenario;
};

/// Goodput in Gb/s. Throws std::invalid_argument for an unscripted cell
/// whose duration is not > 0.
inline double run_goodput(const GoodputCell& cell) {
  transport::PathConfig pc =
      harness::long_flow_path(kGoodputLineRate, cell.loss.rate);
  pc.link.normal_queue_bytes = 600'000;
  pc.lg.preserve_order = (cell.scheme != Scheme::kLgNb);
  const std::unique_ptr<net::ProtectionScheme> scheme =
      make_scheme(cell.scheme);
  harness::LongFlow flow(transport::with_protection(pc, *scheme, cell.loss),
                         harness::Transport::kCubic);
  if (cell.scheme == Scheme::kLg || cell.scheme == Scheme::kLgNb)
    flow.link().enable_lg();

  if (cell.scenario.empty()) {
    if (cell.loss.rate > 0)
      flow.link().set_loss_model(scheme->residual(cell.loss).model);
    flow.start();
    const SimTime warmup = cell.duration / 4;
    return flow.goodput_gbps(warmup, warmup + cell.duration);
  }

  // The residual is built around a rate-0 process whose drivable handle the
  // scenario script then re-aims.
  const fault::Scenario sc = fault::make_scenario(cell.scenario);
  net::LossSpec healthy = cell.loss;
  healthy.rate = 0.0;
  net::ResidualLoss residual = scheme->residual(healthy);
  flow.link().set_loss_model(std::move(residual.model));
  fault::FaultInjector injector(flow.sim(), sc.script);
  injector.add_link(fault::kLinkTarget, residual.raw);
  injector.arm();  // bus/monitor/probe targets stay unbound: dataplane cell
  flow.start();
  return flow.goodput_gbps(0, sc.horizon);
}

}  // namespace lgsim::bench
