#include "analysis/lifetime.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace dftmsn {
namespace {

TEST(BatteryModel, LifetimeInverseOfPower) {
  BatteryModel b;
  b.capacity_joules = 1000.0;
  EXPECT_DOUBLE_EQ(b.lifetime_s(1.0), 1000.0);
  EXPECT_DOUBLE_EQ(b.lifetime_s(0.5), 2000.0);
  EXPECT_TRUE(std::isinf(b.lifetime_s(0.0)));
  EXPECT_THROW((void)b.lifetime_s(-1.0), std::invalid_argument);
}

TEST(BatteryModel, DefaultBudgetVsMotePowers) {
  // Always-on idle listening (13.5 mW) drains 2xAA in ~18 days; a 1%-duty
  // sleeper (~0.15 mW) lasts years — the whole point of Sec. 4.1.
  BatteryModel b;
  const double always_on_days = b.lifetime_s(13.5e-3) / 86'400.0;
  const double sleeper_days = b.lifetime_s(0.15e-3) / 86'400.0;
  EXPECT_NEAR(always_on_days, 18.0, 2.0);
  EXPECT_GT(sleeper_days, 365.0);
}

TEST(LifetimeStats, OrderStatistics) {
  BatteryModel b;
  b.capacity_joules = 100.0;
  // Powers 1, 2, 4, 5, 10 W -> lifetimes 100, 50, 25, 20, 10 s.
  const std::vector<double> powers{1.0, 2.0, 4.0, 5.0, 10.0};
  const LifetimeStats s = estimate_lifetimes(b, powers, 0.2);
  EXPECT_DOUBLE_EQ(s.min_s, 10.0);
  EXPECT_DOUBLE_EQ(s.max_s, 100.0);
  EXPECT_DOUBLE_EQ(s.median_s, 25.0);
  // 20% of 5 nodes = 1 node dead -> first death.
  EXPECT_DOUBLE_EQ(s.network_lifetime_s, 10.0);
}

TEST(LifetimeStats, NetworkLifetimeQuantile) {
  BatteryModel b;
  b.capacity_joules = 100.0;
  const std::vector<double> powers{1.0, 2.0, 4.0, 5.0, 10.0};
  const LifetimeStats s60 = estimate_lifetimes(b, powers, 0.6);
  // 60% of 5 = 3 nodes dead -> third death time (lifetimes sorted:
  // 10, 20, 25, 50, 100).
  EXPECT_DOUBLE_EQ(s60.network_lifetime_s, 25.0);
  const LifetimeStats all = estimate_lifetimes(b, powers, 1.0);
  EXPECT_DOUBLE_EQ(all.network_lifetime_s, 100.0);
}

TEST(LifetimeStats, Guards) {
  BatteryModel b;
  EXPECT_THROW(estimate_lifetimes(b, {}, 0.2), std::invalid_argument);
  EXPECT_THROW(estimate_lifetimes(b, {1.0}, 0.0), std::invalid_argument);
  EXPECT_THROW(estimate_lifetimes(b, {1.0}, 1.5), std::invalid_argument);
}

}  // namespace
}  // namespace dftmsn
