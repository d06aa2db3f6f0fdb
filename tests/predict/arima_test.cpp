#include "predict/arima.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

namespace pulse::predict {
namespace {

TEST(ArModel, InvalidConstructionThrows) {
  EXPECT_THROW(ArModel(0), std::invalid_argument);
  EXPECT_THROW(ArModel(2, 2), std::invalid_argument);
}

TEST(ArModel, TooLittleDataFallsBackToMean) {
  ArModel m(3);
  EXPECT_FALSE(m.fit(std::vector<double>{5.0, 5.0}));
  EXPECT_FALSE(m.fitted());
  const auto f = m.forecast(4);
  ASSERT_EQ(f.size(), 4u);
  for (double v : f) EXPECT_DOUBLE_EQ(v, 5.0);
}

TEST(ArModel, EmptySeriesForecastsZero) {
  ArModel m(2);
  EXPECT_FALSE(m.fit({}));
  for (double v : m.forecast(3)) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(ArModel, FitsAr1Process) {
  // y_t = 0.8 y_{t-1} + 1.0, fixed point 5.0, no noise: recover the
  // coefficients nearly exactly.
  std::vector<double> y{0.0};
  for (int i = 0; i < 200; ++i) y.push_back(0.8 * y.back() + 1.0);
  ArModel m(1);
  ASSERT_TRUE(m.fit(y));
  ASSERT_EQ(m.coefficients().size(), 1u);
  EXPECT_NEAR(m.coefficients()[0], 0.8, 1e-3);
  EXPECT_NEAR(m.intercept(), 1.0, 1e-2);
}

TEST(ArModel, ForecastConvergesToFixedPoint) {
  std::vector<double> y{0.0};
  for (int i = 0; i < 200; ++i) y.push_back(0.8 * y.back() + 1.0);
  ArModel m(1);
  ASSERT_TRUE(m.fit(y));
  const auto f = m.forecast(50);
  EXPECT_NEAR(f.back(), 5.0, 0.05);
}

TEST(ArModel, PeriodicSeriesForecast) {
  // Period-3 cycle is expressible with AR(3).
  std::vector<double> y;
  for (int i = 0; i < 120; ++i) y.push_back((i % 3 == 0) ? 6.0 : ((i % 3 == 1) ? 2.0 : 4.0));
  ArModel m(3);
  ASSERT_TRUE(m.fit(y));
  const auto f = m.forecast(6);
  // Continue the cycle: indices 120..125 -> 6,2,4,6,2,4.
  const double expected[] = {6.0, 2.0, 4.0, 6.0, 2.0, 4.0};
  for (std::size_t i = 0; i < 6; ++i) EXPECT_NEAR(f[i], expected[i], 0.2) << i;
}

TEST(ArModel, DifferencingTracksLinearTrend) {
  std::vector<double> y;
  for (int i = 0; i < 100; ++i) y.push_back(3.0 * i + 10.0);
  ArModel m(1, 1);
  ASSERT_TRUE(m.fit(y));
  const auto f = m.forecast(5);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_NEAR(f[i], 3.0 * (100.0 + static_cast<double>(i)) + 10.0, 0.5) << i;
  }
}

TEST(ArModel, ConstantSeriesForecastsConstant) {
  const std::vector<double> y(50, 7.5);
  ArModel m(2);
  m.fit(y);  // ridge term makes this solvable; either path must forecast 7.5
  const auto f = m.forecast(3);
  for (double v : f) EXPECT_NEAR(v, 7.5, 1e-6);
}

TEST(ArModel, OrderAccessor) {
  ArModel m(4);
  EXPECT_EQ(m.order(), 4u);
}

TEST(ArModel, RefitReplacesModel) {
  std::vector<double> up;
  std::vector<double> down;
  for (int i = 0; i < 80; ++i) {
    up.push_back(static_cast<double>(i));
    down.push_back(80.0 - static_cast<double>(i));
  }
  ArModel m(1, 1);
  ASSERT_TRUE(m.fit(up));
  const double up_next = m.forecast(1)[0];
  ASSERT_TRUE(m.fit(down));
  const double down_next = m.forecast(1)[0];
  EXPECT_GT(up_next, 79.0);
  EXPECT_LT(down_next, 2.0);
}

// One model refit over many windows (the predictor's reuse of its fit
// scratch) must give bit for bit what a fresh model per window gives, and
// forecast_one() must be forecast(1)[0] exactly, fitted or not.
TEST(ArModel, ReusedModelMatchesFreshModelBitwise) {
  std::vector<double> series;
  for (int i = 0; i < 120; ++i) {
    series.push_back(5.0 + 3.0 * std::sin(0.3 * i) + 0.01 * static_cast<double>(i % 7));
  }
  for (const std::size_t difference : {std::size_t{0}, std::size_t{1}}) {
    ArModel reused(3, difference);
    for (std::size_t length = 0; length <= series.size(); length += 3) {
      const std::span<const double> window(series.data(), length);
      ArModel fresh(3, difference);
      EXPECT_EQ(reused.fit(window), fresh.fit(window)) << length;
      const double want = fresh.forecast(1)[0];
      EXPECT_EQ(std::bit_cast<std::uint64_t>(reused.forecast(1)[0]),
                std::bit_cast<std::uint64_t>(want))
          << "d=" << difference << " length=" << length;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(reused.forecast_one()),
                std::bit_cast<std::uint64_t>(want))
          << "d=" << difference << " length=" << length;
    }
  }
}

}  // namespace
}  // namespace pulse::predict
