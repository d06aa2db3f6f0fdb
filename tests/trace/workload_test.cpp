#include "trace/workload.hpp"

#include <gtest/gtest.h>

#include <limits>

namespace pulse::trace {
namespace {

TEST(Workload, DefaultBuildShape) {
  WorkloadConfig config;
  config.duration = 2 * kMinutesPerDay;  // keep the test fast
  const Workload w = build_azure_like_workload(config);
  EXPECT_EQ(w.trace.function_count(), 12u);
  EXPECT_EQ(w.trace.duration(), config.duration);
  EXPECT_EQ(w.functions.size(), 12u);
  EXPECT_EQ(w.peak_minutes.size(), 2u);
  EXPECT_GT(w.trace.total_invocations(), 0u);
}

TEST(Workload, DeterministicInSeed) {
  WorkloadConfig config;
  config.duration = kMinutesPerDay;
  const Workload a = build_azure_like_workload(config);
  const Workload b = build_azure_like_workload(config);
  for (FunctionId f = 0; f < a.trace.function_count(); ++f) {
    for (Minute m = 0; m < a.trace.duration(); ++m) {
      ASSERT_EQ(a.trace.count(f, m), b.trace.count(f, m)) << "f=" << f << " m=" << m;
    }
  }
}

TEST(Workload, DifferentSeedsDiffer) {
  WorkloadConfig config;
  config.duration = kMinutesPerDay;
  const Workload a = build_azure_like_workload(config);
  config.seed = 1234;
  const Workload b = build_azure_like_workload(config);
  EXPECT_NE(a.trace.total_invocations(), b.trace.total_invocations());
}

TEST(Workload, EveryFunctionHasInvocations) {
  WorkloadConfig config;
  config.duration = 4 * kMinutesPerDay;
  const Workload w = build_azure_like_workload(config);
  for (FunctionId f = 0; f < w.trace.function_count(); ++f) {
    EXPECT_GT(w.trace.total_invocations(f), 0u) << w.trace.function_name(f);
  }
}

TEST(Workload, PeakMinutesAreActualPeaks) {
  WorkloadConfig config;
  config.duration = 2 * kMinutesPerDay;
  config.peak_intensity = 10.0;
  const Workload w = build_azure_like_workload(config);
  const auto agg = w.trace.aggregate_series();
  double avg = 0.0;
  for (auto c : agg) avg += static_cast<double>(c);
  avg /= static_cast<double>(agg.size());
  for (Minute p : w.peak_minutes) {
    EXPECT_GT(static_cast<double>(agg[static_cast<std::size_t>(p)]), 5.0 * avg)
        << "peak at " << p;
  }
}

TEST(Workload, PeakInvolvesEveryFunction) {
  WorkloadConfig config;
  config.duration = kMinutesPerDay;
  const Workload w = build_azure_like_workload(config);
  for (Minute p : w.peak_minutes) {
    for (FunctionId f = 0; f < w.trace.function_count(); ++f) {
      EXPECT_GE(w.trace.count(f, p), 1u) << "fn " << f << " at peak " << p;
    }
  }
}

TEST(Workload, ZeroFunctionsThrows) {
  WorkloadConfig config;
  config.function_count = 0;
  EXPECT_THROW(build_azure_like_workload(config), std::invalid_argument);
}

TEST(Workload, MoreThanTwelveFunctionsWrapArchetypes) {
  WorkloadConfig config;
  config.function_count = 20;
  config.duration = kMinutesPerDay;
  const Workload w = build_azure_like_workload(config);
  EXPECT_EQ(w.trace.function_count(), 20u);
}

TEST(InjectGlobalPeak, RaisesEveryFunction) {
  Trace t(4, 100);
  util::Pcg32 rng(1);
  inject_global_peak(t, 50, 2, 3.0, rng);
  for (FunctionId f = 0; f < 4; ++f) {
    EXPECT_GE(t.count(f, 50), 1u);
    EXPECT_GE(t.count(f, 51), 1u);
    EXPECT_EQ(t.count(f, 52), 0u);
  }
}

TEST(InjectGlobalPeak, InfiniteIntensitySaturatesInsteadOfWrapping) {
  // Poisson(+inf) saturates at INT_MAX; 1 + that fits a uint32 count.
  Trace t(2, 4);
  util::Pcg32 rng(3);
  inject_global_peak(t, 1, 2, std::numeric_limits<double>::infinity(), rng);
  for (FunctionId f = 0; f < 2; ++f) {
    EXPECT_EQ(t.count(f, 1), 2147483648u);
    EXPECT_EQ(t.count(f, 2), 2147483648u);
    EXPECT_EQ(t.count(f, 3), 0u);
  }
}

TEST(InjectGlobalPeak, OverlappingInfinitePeaksSaturateAtUint32Max) {
  // Each +inf peak adds 2^31 per function-minute; two on the same minutes
  // would wrap a uint32 cell to 0.
  Trace t(2, 4);
  util::Pcg32 rng(3);
  for (int peak = 0; peak < 2; ++peak) {
    inject_global_peak(t, 1, 2, std::numeric_limits<double>::infinity(), rng);
  }
  for (FunctionId f = 0; f < 2; ++f) {
    EXPECT_EQ(t.count(f, 1), 4294967295u);
    EXPECT_EQ(t.count(f, 2), 4294967295u);
  }
}

TEST(InjectGlobalPeak, ClipsAtHorizon) {
  Trace t(1, 10);
  util::Pcg32 rng(1);
  inject_global_peak(t, 9, 5, 1.0, rng);  // minutes 10.. are silently dropped
  EXPECT_GE(t.count(0, 9), 1u);
}

TEST(FindPeakMinutes, FindsInjectedPeaks) {
  Trace t(3, 1000);
  util::Pcg32 rng(2);
  inject_global_peak(t, 200, 1, 20.0, rng);
  inject_global_peak(t, 700, 1, 20.0, rng);
  const auto peaks = find_peak_minutes(t, 2);
  ASSERT_EQ(peaks.size(), 2u);
  EXPECT_EQ(peaks[0], 200);
  EXPECT_EQ(peaks[1], 700);
}

TEST(FindPeakMinutes, RespectsSeparation) {
  Trace t(1, 1000);
  t.set_count(0, 100, 50);
  t.set_count(0, 110, 49);  // within separation of the first peak
  t.set_count(0, 500, 30);
  const auto peaks = find_peak_minutes(t, 2, 60);
  ASSERT_EQ(peaks.size(), 2u);
  EXPECT_EQ(peaks[0], 100);
  EXPECT_EQ(peaks[1], 500);
}

}  // namespace
}  // namespace pulse::trace
