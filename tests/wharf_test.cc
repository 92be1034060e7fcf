#include <gtest/gtest.h>

#include <memory>

#include "lg/config.h"
#include "net/loss_model.h"
#include "net/packet.h"
#include "net/protection.h"
#include "wharf/wharf.h"

namespace lgsim::wharf {
namespace {

TEST(WharfParams, CapacityFraction) {
  EXPECT_NEAR((WharfParams{25, 1}.capacity_fraction()), 25.0 / 26.0, 1e-12);
  EXPECT_NEAR((WharfParams{5, 1}.capacity_fraction()), 5.0 / 6.0, 1e-12);
}

TEST(WharfParams, SelectionMatchesTable3Shape) {
  // Light redundancy (~96% capacity) up to 1e-3, heavy (~83%) at 1e-2 —
  // matching Wharf's goodput of 9.13 and 7.91 Gb/s on a 10G link.
  EXPECT_NEAR(wharf_params_for(1e-5).capacity_fraction(), 0.9615, 1e-3);
  EXPECT_NEAR(wharf_params_for(1e-3).capacity_fraction(), 0.9615, 1e-3);
  EXPECT_NEAR(wharf_params_for(1e-2).capacity_fraction(), 0.8333, 1e-3);
}

TEST(WharfResidual, ZeroAtZeroLoss) {
  EXPECT_DOUBLE_EQ(wharf_residual_loss({25, 1}, 0.0), 0.0);
}

TEST(WharfResidual, QuadraticSuppressionForR1) {
  // With r = 1 parity the residual is ~ q^2 * (k+r-1): two losses must land
  // in one block.
  const double q = 1e-3;
  const double res = wharf_residual_loss(WharfParams{25, 1}, q);
  EXPECT_NEAR(res, q * (1.0 - std::pow(1.0 - q, 25)), res * 0.05);
  EXPECT_LT(res, q);      // always better than raw loss
  EXPECT_GT(res, q * q);  // but not a free lunch
}

TEST(WharfResidual, MoreParityHelps) {
  EXPECT_LT(wharf_residual_loss(WharfParams{24, 2}, 1e-3),
            wharf_residual_loss(WharfParams{25, 1}, 1e-3));
}

TEST(WharfLossModel, RecoversWithinBudgetLosesBeyond) {
  // Measure the empirical residual loss of the block model against the
  // analytic expression.
  const WharfParams params{5, 1};
  const double q = 0.02;
  WharfLossModel model(params, q, Rng(3));
  net::Packet p;
  p.kind = net::PktKind::kData;
  const int n = 2'000'000;
  int lost = 0;
  for (int i = 0; i < n; ++i)
    if (model.lose(0, p)) ++lost;
  const double measured = static_cast<double>(lost) / n;
  const double analytic = wharf_residual_loss(params, q);
  EXPECT_NEAR(measured, analytic, analytic * 0.15);
  EXPECT_GT(model.recovered_frames(), 0);
  EXPECT_GT(model.blocks(), n / (params.k + params.r));
}

TEST(WharfLossModel, NoLossPassesEverything) {
  WharfLossModel model(WharfParams{25, 1}, 0.0, Rng(1));
  net::Packet p;
  for (int i = 0; i < 1000; ++i) EXPECT_FALSE(model.lose(0, p));
  EXPECT_EQ(model.unrecovered_frames(), 0);
}

// Differential pin for the ProtectionScheme port: WharfScheme::residual must
// reproduce the exact lose() decision sequence of the pre-port inline model
// (WharfLossModel constructed from a raw rate + Rng(5), as bench_tab3_wharf
// used to build it). Byte-identical Table 3 output depends on this.
TEST(WharfScheme, ResidualMatchesLegacyInlineModel) {
  for (double q : {1e-4, 1e-3, 1e-2}) {
    WharfLossModel legacy(wharf_params_for(q), q, Rng(5));

    WharfScheme scheme;
    net::LossSpec spec;
    spec.rate = q;
    spec.seed = 5;
    net::ResidualLoss ported = scheme.residual(spec);

    net::Packet p;
    for (int i = 0; i < 200'000; ++i)
      ASSERT_EQ(legacy.lose(0, p), ported.model->lose(0, p)) << "q=" << q
                                                             << " i=" << i;
  }
}

TEST(WharfScheme, PathKnobsTrackParamsForRate) {
  WharfScheme scheme;
  net::LossSpec spec;
  spec.rate = 1e-3;
  EXPECT_STREQ(scheme.name(), "wharf");
  EXPECT_DOUBLE_EQ(scheme.capacity_fraction(spec),
                   wharf_params_for(1e-3).capacity_fraction());
  spec.rate = 1e-2;
  EXPECT_DOUBLE_EQ(scheme.capacity_fraction(spec),
                   wharf_params_for(1e-2).capacity_fraction());
  EXPECT_EQ(scheme.added_latency(), 0);
}

// Wharf wrapped around a bursty raw process: the block code recovers far
// less of a Gilbert-Elliott process than of i.i.d. loss at the same marginal
// rate — a whole burst lands inside one block and exceeds the parity budget.
TEST(WharfScheme, GilbertElliottBurstsBeatTheParityBudget) {
  const double q = 1e-2;
  auto count_losses = [&](std::unique_ptr<net::DrivableLoss> raw) {
    WharfLossModel model(wharf_params_for(q), std::move(raw));
    net::Packet p;
    int lost = 0;
    for (int i = 0; i < 500'000; ++i)
      if (model.lose(0, p)) ++lost;
    return lost;
  };
  const int iid = count_losses(std::make_unique<net::BernoulliLoss>(q, Rng(5)));
  const int bursty = count_losses(std::make_unique<net::GilbertElliottLoss>(
      net::GilbertElliottLoss::for_rate(q, 4.0), Rng(5)));
  EXPECT_GT(bursty, 2 * iid);
  EXPECT_GT(iid, 0);
}

// The Table 3 zero-loss column used to configure LG with a fake 1e-4 floor
// because actual_loss_rate doubled as "some rate, any rate". Pin the fact
// that makes the explicit 0 equivalent — and therefore the fix safe: Eq. 2
// sizes one reTx copy both for "no losses observed" and for any actual rate
// at or below the target.
TEST(LgSizing, ZeroLossNeedsNoFakeFloor) {
  EXPECT_EQ(lg::retx_copies(0.0, 1e-8), 1);
  EXPECT_EQ(lg::retx_copies(1e-4, 1e-8), 1);
}

}  // namespace
}  // namespace lgsim::wharf
