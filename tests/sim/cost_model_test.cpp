#include "sim/cost_model.hpp"

#include <gtest/gtest.h>

namespace pulse::sim {
namespace {

TEST(CostModel, ZeroMemoryZeroCost) { EXPECT_DOUBLE_EQ(keepalive_cost_usd(0.0, 60.0), 0.0); }

TEST(CostModel, ZeroMinutesZeroCost) { EXPECT_DOUBLE_EQ(keepalive_cost_usd(1000.0, 0.0), 0.0); }

TEST(CostModel, OneHourMatchesCentsPerHour) {
  // 1000 MB for 60 minutes should cost exactly cents_per_hour(1000MB)/100 USD.
  const double usd = keepalive_cost_usd(1000.0, 60.0);
  EXPECT_NEAR(usd * 100.0, 1000.0 * kCentsPerMbHour, 1e-12);
}

TEST(CostModel, LinearInMemoryAndTime) {
  const double base = keepalive_cost_usd(500.0, 10.0);
  EXPECT_NEAR(keepalive_cost_usd(1000.0, 10.0), 2.0 * base, 1e-15);
  EXPECT_NEAR(keepalive_cost_usd(500.0, 20.0), 2.0 * base, 1e-15);
}

TEST(CostModel, CentsPerHourOfVariant) {
  models::ModelVariant v{"x", 1.0, 2.0, 80.0, 2000.0};
  EXPECT_NEAR(cents_per_hour(v), 2000.0 * kCentsPerMbHour, 1e-12);
}

TEST(CostModel, UsableInConstexprContext) {
  constexpr double cost = keepalive_cost_usd(100.0, 60.0);
  static_assert(cost > 0.0);
  EXPECT_GT(cost, 0.0);
}

}  // namespace
}  // namespace pulse::sim
