#include "core/listen_window_optimizer.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "sim/random.hpp"

namespace dftmsn {
namespace {

using LWO = ListenWindowOptimizer;

TEST(ListenWindow, SigmaQuantization) {
  EXPECT_EQ(LWO::sigma(1.0, 32), 32);
  EXPECT_EQ(LWO::sigma(0.5, 32), 16);
  // The ξ floor prevents the degenerate σ = 1 deadlock (see header).
  EXPECT_EQ(LWO::sigma(0.0, 32), static_cast<int>(LWO::kXiFloor * 32 + 0.5));
  EXPECT_GE(LWO::sigma(0.0, 1), 1);
}

TEST(ListenWindow, SingleContenderNeverCollides) {
  const std::vector<double> one{0.5};
  EXPECT_DOUBLE_EQ(LWO::collision_probability(one, 16), 0.0);
  EXPECT_EQ(LWO::min_tau_max(one, 0.1, 64), 1);
}

TEST(ListenWindow, TwoEqualContendersKnownValue) {
  // Both σ = 8: P(min unique) = 2 * Σ_τ (1/8)((8-τ)/8); collision is the
  // tie probability = 1/8.
  const std::vector<double> xis{0.25, 0.25};
  const double gamma = LWO::collision_probability(xis, 32);
  EXPECT_NEAR(gamma, 1.0 / 8.0, 1e-9);
}

TEST(ListenWindow, CollisionDecreasesWithTauMax) {
  const std::vector<double> xis{0.3, 0.5, 0.7};
  double prev = 1.0;
  for (int tau : {4, 8, 16, 32, 64, 128}) {
    const double g = LWO::collision_probability(xis, tau);
    EXPECT_LE(g, prev + 1e-9);
    prev = g;
  }
}

TEST(ListenWindow, CollisionIncreasesWithContenders) {
  std::vector<double> xis{0.5};
  double prev = 0.0;
  for (int m = 2; m <= 6; ++m) {
    xis.push_back(0.5);
    const double g = LWO::collision_probability(xis, 32);
    EXPECT_GE(g, prev - 1e-9);
    prev = g;
  }
}

TEST(ListenWindow, GraspProbabilitiesFormDistribution) {
  // Σ_i P_i + γ = 1 by definition (exactly one winner, or a tie).
  const std::vector<double> xis{0.2, 0.5, 0.9};
  double sum = 0.0;
  for (std::size_t i = 0; i < xis.size(); ++i)
    sum += LWO::grasp_probability(xis, i, 32);
  EXPECT_NEAR(sum + LWO::collision_probability(xis, 32), 1.0, 1e-9);
}

TEST(ListenWindow, LowerMetricGraspsMoreOften) {
  // The design goal of Eq. (9): low-ξ senders should win the channel.
  const std::vector<double> xis{0.2, 0.8};
  EXPECT_GT(LWO::grasp_probability(xis, 0, 64),
            LWO::grasp_probability(xis, 1, 64));
}

TEST(ListenWindow, MinTauMaxMeetsTarget) {
  const std::vector<double> xis{0.4, 0.6, 0.8};
  const int tau = LWO::min_tau_max(xis, 0.1, 256);
  EXPECT_LE(LWO::collision_probability(xis, tau), 0.1);
  if (tau > 1) {
    EXPECT_GT(LWO::collision_probability(xis, tau - 1), 0.1);
  }
}

TEST(ListenWindow, MinTauMaxReturnsCapWhenUnattainable) {
  // Two ξ=0 contenders sit at the σ floor: γ is constant in τ_max only up
  // to the floor scaling; with a tiny cap the target is unattainable.
  const std::vector<double> xis{0.0, 0.0};
  EXPECT_EQ(LWO::min_tau_max(xis, 1e-6, 4), 4);
}

TEST(ListenWindow, MinTauMaxNeverExceedsCap) {
  // γ(1) = 1 > 0.5 and γ(2) = 0.5: the answer would be 2, but the cap is
  // 1, so the target is unattainable within it.
  const std::vector<double> xis{1.0, 0.1};
  ASSERT_GT(LWO::collision_probability(xis, 1), 0.5);
  ASSERT_LE(LWO::collision_probability(xis, 2), 0.5);
  EXPECT_EQ(LWO::min_tau_max(xis, 0.5, 1), 1);
  EXPECT_EQ(LWO::min_tau_max(xis, 0.5, 2), 2);
}

TEST(ListenWindow, AnalyticMatchesMonteCarlo) {
  const std::vector<double> xis{0.3, 0.6, 0.9};
  RandomStream rng(99);
  const double mc = LWO::collision_probability_mc(
      xis, 32, 200000, [&] { return rng.uniform01(); });
  const double analytic = LWO::collision_probability(xis, 32);
  EXPECT_NEAR(mc, analytic, 0.01);
}

// --- parameterized sweep: min_tau_max consistency across populations ----

class TauSweep : public ::testing::TestWithParam<int> {};

TEST_P(TauSweep, BinarySearchAgreesWithLinearScan) {
  RandomStream rng(static_cast<std::uint64_t>(GetParam()));
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<double> xis;
    const int m = rng.uniform_int(2, 5);
    for (int i = 0; i < m; ++i) xis.push_back(rng.uniform01());
    const double target = 0.05 + rng.uniform01() * 0.3;
    const int cap = 128;
    const int fast = LWO::min_tau_max(xis, target, cap);
    int slow = cap;
    for (int t = 1; t <= cap; ++t) {
      if (LWO::collision_probability(xis, t) <= target) {
        slow = t;
        break;
      }
    }
    // γ is not perfectly monotone under slot quantization; allow the
    // bracketed search to land within one quantization step.
    EXPECT_NEAR(fast, slow, 1.0) << "m=" << m << " target=" << target;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TauSweep, ::testing::Values(3, 13, 23));

}  // namespace
}  // namespace dftmsn
