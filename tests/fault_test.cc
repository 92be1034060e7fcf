// Tests for the fault-injection subsystem (src/fault): script semantics,
// injector timing against live loss models, control-plane fault hooks
// (pub-sub bus hop delay and outages, corruptd poll stalls), the scenario
// catalogue, and the closed-loop lifecycle experiment.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "fault/injector.h"
#include "fault/lifecycle.h"
#include "fault/scenarios.h"
#include "fault/script.h"
#include "harness/parallel.h"
#include "monitor/corruptd.h"
#include "net/loss_model.h"
#include "sim/random.h"
#include "sim/simulator.h"

namespace lgsim::fault {
namespace {

TEST(FaultScript, StableSortKeepsAppendOrderForSameTimeEvents) {
  FaultScript s;
  s.ber_step(usec(20), 1e-3);
  s.ber_step(usec(10), 1e-4);   // earlier, appended later
  s.ber_step(usec(10), 1e-5);   // same time: must stay after the 1e-4
  s.stable_sort_by_time();
  const auto& e = s.events();
  ASSERT_EQ(e.size(), 3u);
  EXPECT_EQ(e[0].at, usec(10));
  EXPECT_DOUBLE_EQ(e[0].a, 1e-4);
  EXPECT_EQ(e[1].at, usec(10));
  EXPECT_DOUBLE_EQ(e[1].a, 1e-5);
  EXPECT_EQ(e[2].at, usec(20));
}

TEST(FaultScript, LinkFlapEmitsDownThenUp) {
  FaultScript s;
  s.link_flap(usec(10), usec(5));
  ASSERT_EQ(s.size(), 2u);
  EXPECT_EQ(s.events()[0].kind, FaultKind::kLinkDown);
  EXPECT_EQ(s.events()[1].kind, FaultKind::kLinkUp);
  EXPECT_EQ(s.events()[1].at, usec(15));
}

TEST(FaultScript, BuildersRejectInvalidInput) {
  using P = net::GilbertElliottLoss::Params;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  // Default GE params with one field set to `v`.
  const auto ge = [](double P::*field, double v) {
    P p;
    p.*field = v;
    return p;
  };
  const std::pair<const char*, std::function<void(FaultScript&)>> bad[] = {
      {"at", [](FaultScript& s) { s.ber_step(-1, 1e-3); }},
      {"at", [](FaultScript& s) { s.ber_ramp(-1, 1e-5, 1e-3, 10, 1); }},
      {"at", [](FaultScript& s) { s.link_flap(-1, usec(1)); }},
      {"at", [](FaultScript& s) { s.bus_outage(-1, usec(1)); }},
      {"at", [](FaultScript& s) { s.poll_stall(-1, usec(1)); }},
      {"at", [](FaultScript& s) { s.probe_stall(-1, usec(1)); }},
      {"at", [](FaultScript& s) { s.gilbert_episode(-1, P{}, usec(1)); }},
      {"duration", [](FaultScript& s) { s.ber_ramp(0, 1e-5, 1e-3, -1, 1); }},
      {"duration", [](FaultScript& s) { s.gilbert_episode(0, P{}, -1); }},
      {"duration", [](FaultScript& s) { s.link_flap(0, -1); }},
      {"duration", [](FaultScript& s) { s.bus_outage(0, -1); }},
      {"duration", [](FaultScript& s) { s.poll_stall(0, -1); }},
      {"duration", [](FaultScript& s) { s.probe_stall(0, -1); }},
      {"step", [](FaultScript& s) { s.ber_ramp(0, 1e-5, 1e-3, 10, -1); }},
      {"rate", [](FaultScript& s) { s.ber_step(0, -1e-3); }},
      {"rate", [](FaultScript& s) { s.ber_step(0, 1.5); }},
      {"rate", [nan](FaultScript& s) { s.ber_step(0, nan); }},
      {"from", [nan](FaultScript& s) { s.ber_ramp(0, nan, 1e-3, 10, 1); }},
      {"from", [](FaultScript& s) { s.ber_ramp(0, -1e-5, 1e-3, 10, 1); }},
      {"to", [](FaultScript& s) { s.ber_ramp(0, 1e-5, 2.0, 10, 1); }},
      {"ge",
       [ge](FaultScript& s) {
         s.gilbert_episode(0, ge(&P::p_good_to_bad, -0.1), 1);
       }},
      {"ge",
       [ge](FaultScript& s) {
         s.gilbert_episode(0, ge(&P::p_bad_to_good, 1.1), 1);
       }},
      {"ge",
       [ge, nan](FaultScript& s) {
         s.gilbert_episode(0, ge(&P::loss_good, nan), 1);
       }},
      {"ge",
       [ge](FaultScript& s) {
         s.gilbert_episode(0, ge(&P::loss_bad, 2.0), 1);
       }},
  };
  for (const auto& [what, build] : bad) {
    FaultScript s;
    try {
      build(s);
      ADD_FAILURE() << "accepted a script with bad " << what;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
          << e.what();
    }
    EXPECT_TRUE(s.empty()) << what;
  }
}

TEST(FaultInjector, BerStepAppliesAtExactTime) {
  Simulator sim;
  net::BernoulliLoss loss(0.0, Rng(1));
  FaultScript s;
  s.ber_step(usec(10), 1e-2);
  FaultInjector inj(sim, std::move(s), {&loss});

  double before = -1.0, after = -1.0;
  sim.schedule_at(usec(9), [&] { before = loss.driven_rate(); });
  sim.schedule_at(usec(11), [&] { after = loss.driven_rate(); });
  sim.run();

  EXPECT_DOUBLE_EQ(before, 0.0);
  EXPECT_DOUBLE_EQ(after, 1e-2);
  EXPECT_EQ(inj.stats().applied, 1);
  EXPECT_EQ(inj.stats().unbound, 0);
}

TEST(FaultInjector, UnboundTargetIsCountedNotFatal) {
  Simulator sim;
  net::BernoulliLoss loss(0.0, Rng(1));
  FaultScript s;
  s.ber_step(usec(1), 1e-3);
  s.bus_outage(usec(2), usec(1));
  // A GE episode needs a Gilbert-Elliott link; a Bernoulli one is unbound.
  s.gilbert_episode(usec(3), net::GilbertElliottLoss::for_rate(1e-2, 3),
                    usec(1));
  FaultInjector none(sim, s, {});
  FaultInjector link_only(sim, s, {&loss});
  sim.run();
  EXPECT_EQ(none.stats().applied, 0);
  EXPECT_EQ(none.stats().unbound, 4);  // step, outage start/end, episode
  EXPECT_EQ(link_only.stats().applied, 1);
  EXPECT_EQ(link_only.stats().unbound, 3);
  EXPECT_DOUBLE_EQ(loss.driven_rate(), 1e-3);
}

TEST(FaultInjector, LogRampIsMonotonicAndLandsExactlyOnEndpoint) {
  Simulator sim;
  net::BernoulliLoss loss(0.0, Rng(1));
  FaultScript s;
  const SimTime step = usec(10);
  const SimTime duration = usec(100);  // 10 steps
  s.ber_ramp(usec(50), 1e-5, 1e-2, duration, step);
  FaultInjector inj(sim, std::move(s), {&loss});

  std::vector<double> samples;
  for (int k = 0; k <= 10; ++k) {
    // Probe just after each ramp tick.
    sim.schedule_at(usec(50) + step * k + usec(1),
                    [&] { samples.push_back(loss.driven_rate()); });
  }
  sim.run();

  ASSERT_EQ(samples.size(), 11u);
  EXPECT_DOUBLE_EQ(samples.front(), 1e-5);
  EXPECT_DOUBLE_EQ(samples.back(), 1e-2);  // exact endpoint, no float drift
  for (std::size_t i = 1; i < samples.size(); ++i)
    EXPECT_GT(samples[i], samples[i - 1] * 0.999);
  // Log shape: the midpoint sits at the geometric mean of the endpoints.
  EXPECT_NEAR(samples[5], std::sqrt(1e-5 * 1e-2), std::sqrt(1e-5 * 1e-2) * 0.01);
  // Endpoints are logged; intermediate re-aims are counted as ramp steps.
  EXPECT_EQ(inj.stats().applied, 2);
  EXPECT_EQ(inj.stats().ramp_steps, 9);
}

TEST(FaultInjector, DegenerateRampIsASingleStepToTheEndpoint) {
  Simulator sim;
  net::BernoulliLoss loss(0.0, Rng(1));
  FaultScript s;
  s.ber_ramp(usec(5), 1e-4, 1e-2, /*duration=*/0, /*step=*/0);
  FaultInjector inj(sim, std::move(s), {&loss});
  sim.run();
  EXPECT_DOUBLE_EQ(loss.driven_rate(), 1e-2);
  EXPECT_EQ(inj.stats().applied, 1);
  EXPECT_EQ(inj.stats().ramp_steps, 0);
}

TEST(FaultInjector, LinkFlapLosesEveryFrameWithoutShiftingTheRng) {
  // Down frames must not consume RNG draws: the loss pattern is a function
  // of the *up-frame* index alone, so the k-th up-frame of a flapped link
  // rolls exactly what the k-th frame of an un-flapped one would.
  Simulator sim;
  net::BernoulliLoss flapped(0.1, Rng(7));
  net::BernoulliLoss control(0.1, Rng(7));
  FaultScript s;
  s.link_flap(usec(40), usec(20));  // down for frames at t in [40, 60)
  FaultInjector inj(sim, std::move(s), {&flapped});

  std::vector<int> flapped_lost(100, -1), control_lost(100, -1);
  for (int i = 0; i < 100; ++i) {
    sim.schedule_at(usec(i), [&, i] {
      net::Packet p;
      p.frame_bytes = 1518;
      flapped_lost[i] = flapped.lose(sim.now(), p) ? 1 : 0;
      control_lost[i] = control.lose(sim.now(), p) ? 1 : 0;
    });
  }
  sim.run();

  int up = 0;  // up-frame index on the flapped link
  for (int i = 0; i < 100; ++i) {
    if (i >= 40 && i < 60) {
      EXPECT_EQ(flapped_lost[i], 1) << "frame " << i << " during flap";
    } else {
      EXPECT_EQ(flapped_lost[i], control_lost[up]) << "frame " << i;
      ++up;
    }
  }
  EXPECT_FALSE(flapped.link_down());
}

TEST(FaultInjector, GilbertEpisodeAppliesThenRestoresSavedParams) {
  Simulator sim;
  net::GilbertElliottLoss::Params healthy;
  healthy.p_good_to_bad = 0.0;
  healthy.p_bad_to_good = 1.0;
  net::GilbertElliottLoss ge(healthy, Rng(3));
  const auto episode = net::GilbertElliottLoss::for_rate(0.5, 3.0);

  FaultScript s;
  s.gilbert_episode(usec(10), episode, usec(20));
  FaultInjector inj(sim, std::move(s), {&ge});

  double during_b2g = -1.0, after_g2b = -1.0;
  sim.schedule_at(usec(15), [&] { during_b2g = ge.params().p_bad_to_good; });
  sim.schedule_at(usec(35), [&] { after_g2b = ge.params().p_good_to_bad; });
  sim.run();

  EXPECT_DOUBLE_EQ(during_b2g, episode.p_bad_to_good);  // mean burst 3
  EXPECT_DOUBLE_EQ(after_g2b, 0.0);                     // healthy restored
  EXPECT_EQ(inj.stats().applied, 2);  // apply + restore are both recorded
}

TEST(PubSubBus, DeferredDeliveryHonoursHopDelay) {
  Simulator sim;
  monitor::PubSubBus bus;
  bus.bind(sim);
  bus.set_delay(usec(50));

  std::vector<SimTime> delivered_at;
  bus.subscribe("t", [&](const monitor::PubSubBus::Notification&) {
    delivered_at.push_back(sim.now());
  });

  sim.schedule_at(usec(10), [&] { bus.publish({"t", 1e-3, sim.now()}); });
  sim.schedule_at(usec(200), [&] { bus.publish({"t", 1e-3, sim.now()}); });
  sim.run();

  ASSERT_EQ(delivered_at.size(), 2u);
  EXPECT_EQ(delivered_at[0], usec(60));
  EXPECT_EQ(delivered_at[1], usec(250));
  EXPECT_EQ(bus.counters().deferred, 2);
  EXPECT_EQ(bus.counters().delivered, 2);
}

TEST(PubSubBus, OutageWindowDropsThenRenotifyRecovers) {
  // corruptd keeps publishing every renotify_period while loss persists, so
  // a notification lost to a bus outage is recovered after the window ends.
  Simulator sim;
  monitor::PubSubBus bus;
  bus.bind(sim);
  bus.set_delay(usec(10));

  std::int64_t ok = 0, all = 0;
  monitor::CorruptdConfig mc;
  mc.poll_period = msec(1);
  mc.window_frames = 1'000'000;
  mc.threshold = 1e-4;
  mc.renotify_period = msec(2);
  monitor::Corruptd daemon(sim, mc, bus);
  daemon.add_port({"link", [&] { return ok; }, [&] { return all; }});
  daemon.start();

  // A steadily corrupting link: 1% loss, 1000 frames/ms.
  for (int t = 1; t <= 30; ++t) {
    sim.schedule_at(msec(t) - usec(1), [&] {
      all += 1000;
      ok += 990;
    });
  }

  FaultScript s;
  s.bus_outage(usec(1), msec(10));  // first notifications vanish
  FaultInjector inj(sim, std::move(s), {.bus = &bus});

  std::vector<SimTime> got;
  bus.subscribe("link", [&](const monitor::PubSubBus::Notification&) {
    got.push_back(sim.now());
  });
  sim.run(msec(31));
  daemon.stop();

  EXPECT_GT(bus.counters().dropped, 0);
  ASSERT_FALSE(got.empty());
  // First delivery only after the outage window ends at 10 ms.
  EXPECT_GE(got.front(), msec(10));
  EXPECT_LE(got.front(), msec(14));  // next renotify + hop delay
}

TEST(Corruptd, PollStallIsABlindWindowClearedAsOneDelta) {
  Simulator sim;
  monitor::PubSubBus bus;
  std::int64_t ok = 0, all = 0;
  monitor::CorruptdConfig mc;
  mc.poll_period = msec(1);
  mc.window_frames = 1'000'000;
  mc.threshold = 1e-4;
  monitor::Corruptd daemon(sim, mc, bus);
  daemon.add_port({"link", [&] { return ok; }, [&] { return all; }});
  daemon.start();

  for (int t = 1; t <= 20; ++t) {
    sim.schedule_at(msec(t) - usec(1), [&] {
      all += 1000;
      ok += 990;
    });
  }

  FaultScript s;
  s.poll_stall(usec(1), msec(10));
  FaultInjector inj(sim, std::move(s), {.monitor = &daemon});

  sim.run(msec(21));
  daemon.stop();

  EXPECT_EQ(daemon.stalled_polls(), 10);
  EXPECT_GT(daemon.polls(), daemon.stalled_polls());
  // The blind window's frames arrived as one cumulative delta once the stall
  // cleared, so the estimate converged to the true 1% loss anyway.
  EXPECT_NEAR(daemon.loss_rate("link"), 0.01, 0.001);
  ASSERT_FALSE(bus.history().empty());
  EXPECT_GE(bus.history().front().at, msec(10));  // nothing during the stall
}

TEST(Scenarios, CatalogueBuildsAndUnknownNameThrows) {
  for (const std::string& name : scenario_names()) {
    const Scenario sc = make_scenario(name);
    EXPECT_EQ(sc.name, name);
    EXPECT_FALSE(sc.script.empty()) << name;
    EXPECT_GT(sc.horizon, sc.onset) << name;
    for (const FaultEvent& e : sc.script.events())
      EXPECT_GE(sc.horizon, e.at + e.duration) << name;
  }
  EXPECT_THROW(make_scenario("no-such-scenario"), std::invalid_argument);
}

TEST(Lifecycle, OnsetScenarioEngagesAndMasksEveryLossAfterProtection) {
  LifecycleConfig cfg;
  cfg.scenario = "onset";
  cfg.seed = 1;
  const LifecycleResult r = run_lifecycle(cfg);

  // The closed loop ran: detection after onset, engagement after the bus hop.
  ASSERT_GE(r.detected_at, 0);
  ASSERT_GE(r.engaged_at, 0);
  EXPECT_GE(r.detected_at, r.onset_at);
  EXPECT_GE(r.engaged_at, r.detected_at + kNotifyBusDelay);
  EXPECT_EQ(r.detection_latency, r.detected_at - r.onset_at);
  EXPECT_GT(r.retx_copies, 1);

  // Ground truth conservation and the headline acceptance number.
  EXPECT_GT(r.offered, 0);
  EXPECT_EQ(r.offered, r.delivered + r.lost_total);
  EXPECT_EQ(r.lost_total, r.lost_before_protection + r.lost_after_protection);
  EXPECT_GT(r.lost_before_protection, 0);  // pre-detection frames do die
  EXPECT_EQ(r.lost_after_protection, 0);   // zero-loss ordered switchover
  EXPECT_TRUE(r.lg_enabled_at_end);
  EXPECT_EQ(r.final_mode, monitor::LgMode::kOrdered);
  EXPECT_GT(r.faults_applied, 0);
}

TEST(Lifecycle, SameSeedReproducesFieldForField) {
  LifecycleConfig cfg;
  cfg.scenario = "ramp";
  cfg.seed = 7;
  const LifecycleResult a = run_lifecycle(cfg);
  const LifecycleResult b = run_lifecycle(cfg);

  EXPECT_EQ(a.detected_at, b.detected_at);
  EXPECT_EQ(a.engaged_at, b.engaged_at);
  EXPECT_EQ(a.offered, b.offered);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.duplicates, b.duplicates);
  EXPECT_EQ(a.lost_before_protection, b.lost_before_protection);
  EXPECT_EQ(a.lost_after_protection, b.lost_after_protection);
  EXPECT_EQ(a.wire_corrupted, b.wire_corrupted);
  EXPECT_EQ(a.notifications, b.notifications);
  EXPECT_EQ(a.ramp_steps, b.ramp_steps);
  ASSERT_EQ(a.mode_changes.size(), b.mode_changes.size());
  for (std::size_t i = 0; i < a.mode_changes.size(); ++i) {
    EXPECT_EQ(a.mode_changes[i].at, b.mode_changes[i].at);
    EXPECT_EQ(a.mode_changes[i].to, b.mode_changes[i].to);
  }
}

TEST(Lifecycle, GridResultsMatchDirectRuns) {
  std::vector<LifecycleConfig> grid;
  for (std::uint64_t seed : {1u, 2u}) {
    LifecycleConfig cfg;
    cfg.scenario = "onset";
    cfg.seed = seed;
    grid.push_back(cfg);
  }
  const std::vector<LifecycleResult> got =
      harness::run_grid(grid, run_lifecycle);
  ASSERT_EQ(got.size(), grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const LifecycleResult direct = run_lifecycle(grid[i]);
    EXPECT_EQ(got[i].seed, direct.seed);
    EXPECT_EQ(got[i].offered, direct.offered);
    EXPECT_EQ(got[i].delivered, direct.delivered);
    EXPECT_EQ(got[i].engaged_at, direct.engaged_at);
    EXPECT_EQ(got[i].lost_after_protection, direct.lost_after_protection);
  }
}

}  // namespace
}  // namespace lgsim::fault
