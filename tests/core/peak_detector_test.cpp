#include "core/peak_detector.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace pulse::core {
namespace {

/// Vector-backed MemoryHistory for driving Algorithm 1 scenarios directly.
class FakeHistory final : public sim::MemoryHistory {
 public:
  explicit FakeHistory(std::vector<double> values) : values_(std::move(values)) {}

  [[nodiscard]] double memory_at(trace::Minute t) const override {
    if (t < 0 || static_cast<std::size_t>(t) >= values_.size()) return 0.0;
    return values_[static_cast<std::size_t>(t)];
  }

  [[nodiscard]] trace::Minute now() const override {
    return static_cast<trace::Minute>(values_.size());
  }

 private:
  std::vector<double> values_;
};

PeakDetector::Config config_with(double threshold, trace::Minute window) {
  PeakDetector::Config c;
  c.memory_threshold = threshold;
  c.local_window = window;
  return c;
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
  FakeHistory history({});
  EXPECT_EQ(d.prior_memory(history, 0), PeakDetector::kInfiniteMemory);
  EXPECT_FALSE(d.detect(1e9, history, 0));
}

TEST(PeakDetector, ContinuousActivityUsesPreviousMinute) {
  const PeakDetector d(config_with(0.10, 4));
  FakeHistory history({100.0, 200.0, 300.0});
  EXPECT_DOUBLE_EQ(d.prior_memory(history, 3), 300.0);
  EXPECT_FALSE(d.detect(320.0, history, 3));
  EXPECT_TRUE(d.detect(340.0, history, 3));
}

TEST(PeakDetector, AfterInactivityUsesWindowAverageWhenWarmedUp) {
  // 10 minutes of history (>= 2x window of 4), activity within the window,
  // previous minute idle: prior = average over the last 4 minutes.
  const PeakDetector d(config_with(0.10, 4));
  std::vector<double> mem(10, 0.0);
  mem[6] = 100.0;
  mem[7] = 300.0;
  mem[8] = 200.0;
  mem[9] = 0.0;  // previous minute inactive
  FakeHistory history(mem);
  EXPECT_DOUBLE_EQ(d.prior_memory(history, 10), (100.0 + 300.0 + 200.0 + 0.0) / 4.0);
}

TEST(PeakDetector, AfterInactivityFallsBackToLastNonZero) {
  // Window average is zero (long idle stretch): prior = last non-zero value.
  const PeakDetector d(config_with(0.10, 4));
  std::vector<double> mem(20, 0.0);
  mem[3] = 250.0;  // activity long ago
  FakeHistory history(mem);
  EXPECT_DOUBLE_EQ(d.prior_memory(history, 20), 250.0);
}

TEST(PeakDetector, EarlyLifeWithIdlePrefixUsesLastNonZero) {
  // System younger than 2x window: even with window activity, Algorithm 1
  // falls back to the last non-zero value.
  const PeakDetector d(config_with(0.10, 4));
  std::vector<double> mem = {0.0, 150.0, 0.0};
  FakeHistory history(mem);
  EXPECT_DOUBLE_EQ(d.prior_memory(history, 3), 150.0);
}

TEST(PeakDetector, NoActivityEverMeansInfinitePrior) {
  const PeakDetector d(config_with(0.10, 4));
  FakeHistory history(std::vector<double>(30, 0.0));
  EXPECT_EQ(d.prior_memory(history, 30), PeakDetector::kInfiniteMemory);
  EXPECT_FALSE(d.detect(1e12, history, 30));
}

TEST(PeakDetector, NocturnalFunctionScenario) {
  // The §III-B motivation: a function idle for hours must not be treated
  // as peaking the moment it wakes up at its usual level.
  const PeakDetector d(config_with(0.10, 60));
  std::vector<double> mem(600, 0.0);
  for (std::size_t m = 0; m < 100; ++m) mem[m] = 400.0;  // active night shift
  FakeHistory history(mem);
  // Waking up at the historical level is not a peak...
  EXPECT_FALSE(d.detect(400.0, history, 600));
  // ...but waking up far above it is.
  EXPECT_TRUE(d.detect(900.0, history, 600));
}

/// Reference for the last-non-zero fallback: the pre-memoization O(t)
/// backward walk.
double naive_prior_memory(const PeakDetector::Config& config, const sim::MemoryHistory& history,
                          trace::Minute t) {
  if (t <= 0) return PeakDetector::kInfiniteMemory;
  const double previous = history.memory_at(t - 1);
  if (previous > 0.0) return previous;
  double window_sum = 0.0;
  trace::Minute window_count = 0;
  for (trace::Minute q = std::max<trace::Minute>(0, t - config.local_window); q < t; ++q) {
    window_sum += history.memory_at(q);
    ++window_count;
  }
  const double window_avg =
      window_count > 0 ? window_sum / static_cast<double>(window_count) : 0.0;
  if (t >= 2 * config.local_window && window_avg > 0.0) return window_avg;
  for (trace::Minute q = t - 1; q >= 0; --q) {
    const double m = history.memory_at(q);
    if (m > 0.0) return m;
  }
  return PeakDetector::kInfiniteMemory;
}

/// Append-able MemoryHistory, mirroring how the engine's record and the
/// optimizer's demand history grow one minute at a time.
class GrowingHistory final : public sim::MemoryHistory {
 public:
  void push(double v) { values_.push_back(v); }
  void rollback(std::size_t n) { values_.resize(n); }

  [[nodiscard]] double memory_at(trace::Minute t) const override {
    if (t < 0 || static_cast<std::size_t>(t) >= values_.size()) return 0.0;
    return values_[static_cast<std::size_t>(t)];
  }
  [[nodiscard]] trace::Minute now() const override {
    return static_cast<trace::Minute>(values_.size());
  }

 private:
  std::vector<double> values_;
};

TEST(PeakDetector, MemoizedFallbackMatchesNaiveScan) {
  // Sparse activity separated by idle stretches longer than the window, so
  // nearly every query lands in the last-non-zero fallback; the memoized
  // scan must agree with the O(t) backward walk at every minute.
  const auto config = config_with(0.10, 8);
  const PeakDetector d(config);
  GrowingHistory history;
  std::size_t pulse = 0;
  for (trace::Minute t = 0; t < 400; ++t) {
    EXPECT_DOUBLE_EQ(d.prior_memory(history, t), naive_prior_memory(config, history, t))
        << "t=" << t;
    // Activity bursts at minutes 40-42, 170, 300-305; idle elsewhere.
    const bool active = (t >= 40 && t <= 42) || t == 170 || (t >= 300 && t <= 305);
    history.push(active ? 100.0 + static_cast<double>(++pulse) : 0.0);
  }
}

TEST(PeakDetector, MemoizedFallbackHandlesAllZeroHistory) {
  const auto config = config_with(0.10, 4);
  const PeakDetector d(config);
  GrowingHistory history;
  for (trace::Minute t = 0; t < 100; ++t) {
    EXPECT_EQ(d.prior_memory(history, t), PeakDetector::kInfiniteMemory) << "t=" << t;
    history.push(0.0);
  }
  // Still infinite when queried repeatedly at the same minute.
  EXPECT_EQ(d.prior_memory(history, 100), PeakDetector::kInfiniteMemory);
  EXPECT_EQ(d.prior_memory(history, 100), PeakDetector::kInfiniteMemory);
}

TEST(PeakDetector, MemoResetsOnDifferentHistoryObject) {
  const auto config = config_with(0.10, 4);
  const PeakDetector d(config);
  GrowingHistory a;
  for (trace::Minute t = 0; t < 30; ++t) a.push(t == 2 ? 500.0 : 0.0);
  EXPECT_DOUBLE_EQ(d.prior_memory(a, 30), 500.0);

  GrowingHistory b;
  for (trace::Minute t = 0; t < 30; ++t) b.push(t == 5 ? 77.0 : 0.0);
  EXPECT_DOUBLE_EQ(d.prior_memory(b, 30), 77.0);
  // And back: the detector must re-learn `a` rather than reuse `b`'s memo.
  EXPECT_DOUBLE_EQ(d.prior_memory(a, 30), 500.0);
}

TEST(PeakDetector, MemoResetsOnRolledBackHistory) {
  // A history that shrinks below the memoized scan prefix must make the
  // detector discard the memo and re-scan.
  const auto config = config_with(0.10, 4);
  const PeakDetector d(config);
  GrowingHistory history;
  for (trace::Minute t = 0; t < 50; ++t) history.push(t == 20 ? 300.0 : 0.0);
  EXPECT_DOUBLE_EQ(d.prior_memory(history, 50), 300.0);

  history.rollback(10);  // now() drops below the scanned prefix
  for (trace::Minute t = 10; t < 50; ++t) history.push(t == 12 ? 40.0 : 0.0);
  EXPECT_DOUBLE_EQ(d.prior_memory(history, 50), 40.0);
}

TEST(PeakDetector, BackwardQueriesDoNotDisturbTheMemo) {
  const auto config = config_with(0.10, 4);
  const PeakDetector d(config);
  GrowingHistory history;
  for (trace::Minute t = 0; t < 200; ++t) history.push((t == 30 || t == 90) ? 250.0 : 0.0);
  EXPECT_DOUBLE_EQ(d.prior_memory(history, 200), 250.0);  // memo scanned to 200
  // Queries for earlier minutes answer from a plain scan...
  EXPECT_DOUBLE_EQ(d.prior_memory(history, 60), naive_prior_memory(config, history, 60));
  EXPECT_DOUBLE_EQ(d.prior_memory(history, 20), naive_prior_memory(config, history, 20));
  // ...and the memoized forward path still answers correctly afterwards.
  EXPECT_DOUBLE_EQ(d.prior_memory(history, 200), 250.0);
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
