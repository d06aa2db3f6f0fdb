#include "core/peak_detector.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace pulse::core {
namespace {

PeakDetector::Config config_with(double threshold, trace::Minute window) {
  PeakDetector::Config c;
  c.memory_threshold = threshold;
  c.local_window = window;
  return c;
}

/// A detector fed `series`, one value per minute: its prior_memory() is
/// then minute series.size()'s prior.
PeakDetector fed(const PeakDetector::Config& config, const std::vector<double>& series) {
  PeakDetector d(config);
  for (const double m : series) d.push(m);
  return d;
}

TEST(PeakDetector, IsPeakPredicate) {
  const PeakDetector d(config_with(0.10, 60));
  EXPECT_FALSE(d.is_peak(100.0, 100.0));
  EXPECT_FALSE(d.is_peak(110.0, 100.0));  // exactly at threshold: not a peak
  EXPECT_TRUE(d.is_peak(110.1, 100.0));
  EXPECT_TRUE(d.is_peak(500.0, 100.0));
}

TEST(PeakDetector, ThresholdScalesWithPrior) {
  const PeakDetector d(config_with(0.05, 60));
  EXPECT_TRUE(d.is_peak(1051.0, 1000.0));
  EXPECT_FALSE(d.is_peak(1049.0, 1000.0));
}

TEST(PeakDetector, FirstMinuteNeverPeaks) {
  const PeakDetector d;
  EXPECT_EQ(d.minutes_seen(), 0);
  EXPECT_EQ(d.prior_memory(), PeakDetector::kInfiniteMemory);
  EXPECT_FALSE(d.is_peak(1e9, d.prior_memory()));
}

TEST(PeakDetector, ContinuousActivityUsesPreviousMinute) {
  const PeakDetector d = fed(config_with(0.10, 4), {100.0, 200.0, 300.0});
  EXPECT_EQ(d.minutes_seen(), 3);
  EXPECT_DOUBLE_EQ(d.prior_memory(), 300.0);
  EXPECT_FALSE(d.is_peak(320.0, d.prior_memory()));
  EXPECT_TRUE(d.is_peak(340.0, d.prior_memory()));
}

TEST(PeakDetector, AfterInactivityUsesWindowAverageWhenWarmedUp) {
  // 10 minutes of history (>= 2x window of 4), activity within the window,
  // previous minute idle: prior = average over the last 4 minutes.
  std::vector<double> mem(10, 0.0);
  mem[6] = 100.0;
  mem[7] = 300.0;
  mem[8] = 200.0;
  mem[9] = 0.0;  // previous minute inactive
  const PeakDetector d = fed(config_with(0.10, 4), mem);
  EXPECT_DOUBLE_EQ(d.prior_memory(), (100.0 + 300.0 + 200.0 + 0.0) / 4.0);
}

TEST(PeakDetector, AfterInactivityFallsBackToLastNonZero) {
  // Window average is zero (long idle stretch): prior = last non-zero value.
  std::vector<double> mem(20, 0.0);
  mem[3] = 250.0;  // activity long ago
  const PeakDetector d = fed(config_with(0.10, 4), mem);
  EXPECT_DOUBLE_EQ(d.prior_memory(), 250.0);
}

TEST(PeakDetector, EarlyLifeWithIdlePrefixUsesLastNonZero) {
  // System younger than 2x window: even with window activity, Algorithm 1
  // falls back to the last non-zero value.
  const PeakDetector d = fed(config_with(0.10, 4), {0.0, 150.0, 0.0});
  EXPECT_DOUBLE_EQ(d.prior_memory(), 150.0);
}

TEST(PeakDetector, NoActivityEverMeansInfinitePrior) {
  const PeakDetector d = fed(config_with(0.10, 4), std::vector<double>(30, 0.0));
  EXPECT_EQ(d.prior_memory(), PeakDetector::kInfiniteMemory);
  EXPECT_FALSE(d.is_peak(1e12, d.prior_memory()));
}

TEST(PeakDetector, NocturnalFunctionScenario) {
  // The §III-B motivation: a function idle for hours must not be treated
  // as peaking the moment it wakes up at its usual level.
  std::vector<double> mem(600, 0.0);
  for (std::size_t m = 0; m < 100; ++m) mem[m] = 400.0;  // active night shift
  const PeakDetector d = fed(config_with(0.10, 60), mem);
  // Waking up at the historical level is not a peak...
  EXPECT_FALSE(d.is_peak(400.0, d.prior_memory()));
  // ...but waking up far above it is.
  EXPECT_TRUE(d.is_peak(900.0, d.prior_memory()));
}

/// Reference: Algorithm 1 read straight off the whole series, with the
/// backward walk for the last non-zero value. `history` holds minutes < t.
double naive_prior_memory(const PeakDetector::Config& config, const std::vector<double>& history,
                          trace::Minute t) {
  const auto at = [&](trace::Minute q) { return history[static_cast<std::size_t>(q)]; };
  if (t <= 0) return PeakDetector::kInfiniteMemory;
  const double previous = at(t - 1);
  if (previous > 0.0) return previous;
  double window_sum = 0.0;
  trace::Minute window_count = 0;
  for (trace::Minute q = std::max<trace::Minute>(0, t - config.local_window); q < t; ++q) {
    window_sum += at(q);
    ++window_count;
  }
  const double window_avg =
      window_count > 0 ? window_sum / static_cast<double>(window_count) : 0.0;
  if (t >= 2 * config.local_window && window_avg > 0.0) return window_avg;
  for (trace::Minute q = t - 1; q >= 0; --q) {
    if (at(q) > 0.0) return at(q);
  }
  return PeakDetector::kInfiniteMemory;
}

/// Pushes `series` one minute at a time and checks the prior before every
/// push (and after the last) against the reference, bit for bit.
void expect_streaming_matches_naive(const PeakDetector::Config& config,
                                    const std::vector<double>& series) {
  PeakDetector d(config);
  std::vector<double> history;
  for (std::size_t t = 0; t <= series.size(); ++t) {
    ASSERT_EQ(d.minutes_seen(), static_cast<trace::Minute>(t));
    const double expected = naive_prior_memory(config, history, static_cast<trace::Minute>(t));
    const double prior = d.prior_memory();
    ASSERT_TRUE(prior == expected) << "t=" << t << " window=" << config.local_window
                                   << " prior=" << prior << " expected=" << expected;
    if (t == series.size()) break;
    d.push(series[t]);
    history.push_back(series[t]);
  }
}

TEST(PeakDetector, MemoizedFallbackMatchesNaiveScan) {
  // Every minute of three series against the whole-series reference, at
  // local windows 4, 8 and 60:
  //  * sparse — bursts separated by idle stretches longer than the window,
  //    so most minutes land in the last-non-zero fallback;
  //  * dense — activity most minutes with short idle gaps, so the window
  //    average (summed oldest to newest) decides the first minute after
  //    each gap;
  //  * all-zero, below.
  std::vector<double> sparse;
  std::vector<double> dense;
  std::size_t pulse = 0;
  for (std::size_t t = 0; t < 400; ++t) {
    const bool active = (t >= 40 && t <= 42) || t == 170 || (t >= 300 && t <= 305);
    sparse.push_back(active ? 100.0 + static_cast<double>(++pulse) : 0.0);
    // Irregular values (thirds) so a reordered window sum would round
    // differently; idle every 7th and 11th minute.
    const bool idle = t % 7 == 3 || t % 11 == 5;
    dense.push_back(idle ? 0.0 : 50.0 + static_cast<double>((t * 37) % 101) / 3.0);
  }
  for (const trace::Minute window : {4, 8, 60}) {
    const auto config = config_with(0.10, window);
    SCOPED_TRACE(window);
    expect_streaming_matches_naive(config, sparse);
    expect_streaming_matches_naive(config, dense);
    expect_streaming_matches_naive(config, std::vector<double>(200, 0.0));
  }
}

TEST(PeakDetector, MemoizedFallbackHandlesAllZeroHistory) {
  PeakDetector d(config_with(0.10, 4));
  for (trace::Minute t = 0; t < 100; ++t) {
    EXPECT_EQ(d.prior_memory(), PeakDetector::kInfiniteMemory) << "t=" << t;
    d.push(0.0);
  }
  // Still infinite when read repeatedly at the same minute.
  EXPECT_EQ(d.prior_memory(), PeakDetector::kInfiniteMemory);
  EXPECT_EQ(d.prior_memory(), PeakDetector::kInfiniteMemory);
  EXPECT_EQ(d.minutes_seen(), 100);
}

TEST(PeakDetector, DefaultsMatchPaper) {
  const PeakDetector d;
  EXPECT_DOUBLE_EQ(d.config().memory_threshold, 0.10);  // M2 setting
  EXPECT_EQ(d.config().local_window, 60);
}

// Figure 11's sweep: the detector must behave sanely for all three
// published thresholds.
class ThresholdSweep : public ::testing::TestWithParam<double> {};

TEST_P(ThresholdSweep, TighterThresholdFiresEarlier) {
  const double threshold = GetParam();
  const PeakDetector d(config_with(threshold, 60));
  const double prior = 1000.0;
  EXPECT_FALSE(d.is_peak(prior * (1.0 + threshold) - 0.1, prior));
  EXPECT_TRUE(d.is_peak(prior * (1.0 + threshold) + 0.1, prior));
}

INSTANTIATE_TEST_SUITE_P(PaperThresholds, ThresholdSweep,
                         ::testing::Values(0.05, 0.10, 0.15));

}  // namespace
}  // namespace pulse::core
