// The adaptive keep-alive window extension: per-function window lengths
// that follow the tail of the observed inter-arrival distribution.

#include <gtest/gtest.h>

#include "core/pulse_policy.hpp"
#include "policies/fixed_keepalive.hpp"
#include "sim/engine.hpp"
#include "trace/workload.hpp"

namespace pulse::core {
namespace {

models::ModelZoo test_zoo() {
  models::ModelZoo zoo;
  zoo.add_family(models::ModelFamily(
      "Test", "t", "d",
      {models::ModelVariant{"low", 1.0, 4.0, 70.0, 100.0},
       models::ModelVariant{"high", 2.0, 8.0, 90.0, 300.0}}));
  return zoo;
}

TEST(AdaptiveWindow, DisabledUsesFixedWindow) {
  PulsePolicy p;
  const auto zoo = test_zoo();
  const auto d = sim::Deployment::round_robin(zoo, 1);
  trace::Trace t(1, 100);
  sim::KeepAliveSchedule schedule(d, 100);
  p.initialize(d, t, schedule);
  EXPECT_EQ(p.window_for(0), 10);
}

TEST(AdaptiveWindow, NoHistoryFallsBackToFixed) {
  PulsePolicy::Config config;
  config.adaptive_window = true;
  PulsePolicy p(config);
  const auto zoo = test_zoo();
  const auto d = sim::Deployment::round_robin(zoo, 1);
  trace::Trace t(1, 100);
  sim::KeepAliveSchedule schedule(d, 100);
  p.initialize(d, t, schedule);
  EXPECT_EQ(p.window_for(0), 10);
}

TEST(AdaptiveWindow, ShortGapsShrinkTheWindow) {
  PulsePolicy::Config config;
  config.adaptive_window = true;
  PulsePolicy p(config);
  const auto zoo = test_zoo();
  const auto d = sim::Deployment::round_robin(zoo, 1);
  trace::Trace t(1, 500);
  sim::KeepAliveSchedule schedule(d, 500);
  p.initialize(d, t, schedule);

  // Gaps of exactly 3 minutes: the p95 tail is 3.
  for (trace::Minute m = 0; m <= 120; m += 3) p.on_invocation(0, m, schedule);
  EXPECT_EQ(p.window_for(0), 3);
  // The last invocation at 120 scheduled only 3 minutes.
  EXPECT_TRUE(schedule.is_alive(0, 123));
  EXPECT_FALSE(schedule.is_alive(0, 124));
}

TEST(AdaptiveWindow, LongGapsGrowTheWindowUpToCap) {
  PulsePolicy::Config config;
  config.adaptive_window = true;
  config.max_adaptive_window = 25;
  PulsePolicy p(config);
  const auto zoo = test_zoo();
  const auto d = sim::Deployment::round_robin(zoo, 1);
  trace::Trace t(1, 5000);
  sim::KeepAliveSchedule schedule(d, 5000);
  p.initialize(d, t, schedule);

  for (trace::Minute m = 0; m <= 2000; m += 18) p.on_invocation(0, m, schedule);
  EXPECT_EQ(p.window_for(0), 18);

  // Gaps beyond the cap clamp to it.
  PulsePolicy::Config tight = config;
  tight.max_adaptive_window = 12;
  PulsePolicy q(tight);
  q.initialize(d, t, schedule);
  sim::KeepAliveSchedule schedule2(d, 5000);
  for (trace::Minute m = 0; m <= 2000; m += 18) q.on_invocation(0, m, schedule2);
  EXPECT_EQ(q.window_for(0), 12);
}

TEST(AdaptiveWindow, RescheduleClearsStaleTail) {
  // A long window scheduled early must not survive after the window
  // shrinks: the adaptive path clears before writing.
  PulsePolicy::Config config;
  config.adaptive_window = true;
  PulsePolicy p(config);
  const auto zoo = test_zoo();
  const auto d = sim::Deployment::round_robin(zoo, 1);
  trace::Trace t(1, 500);
  sim::KeepAliveSchedule schedule(d, 500);
  p.initialize(d, t, schedule);

  p.on_invocation(0, 0, schedule);  // no history: schedules 10 minutes
  EXPECT_TRUE(schedule.is_alive(0, 10));
  // Establish a fast pattern; each reschedule clears the remainder.
  for (trace::Minute m = 2; m <= 40; m += 2) p.on_invocation(0, m, schedule);
  const trace::Minute window = p.window_for(0);
  EXPECT_LE(window, 3);
  EXPECT_FALSE(schedule.is_alive(0, 40 + window + 1));
}

TEST(AdaptiveWindow, BeatsFixedWindowOnSlowPeriodicFunctions) {
  // A function invoked every 18 minutes: the fixed 10-minute window always
  // expires 8 minutes early (all cold), while the adaptive window covers
  // the gap (warm) at moderate extra cost.
  const auto zoo = test_zoo();
  const auto d = sim::Deployment::round_robin(zoo, 1);
  trace::Trace t(1, 4000);
  for (trace::Minute m = 0; m < 4000; m += 18) t.set_count(0, m, 1);

  sim::EngineConfig econfig;
  econfig.deterministic_latency = true;
  sim::SimulationEngine engine(d, t, econfig);

  PulsePolicy fixed;
  PulsePolicy::Config aconfig;
  aconfig.adaptive_window = true;
  PulsePolicy adaptive(aconfig);

  const auto rf = engine.run(fixed);
  const auto ra = engine.run(adaptive);
  EXPECT_GT(ra.warm_starts, rf.warm_starts);
  EXPECT_LT(ra.total_service_time_s, rf.total_service_time_s);
}

TEST(AdaptiveWindow, ColdStartRuleUsesTheScheduledWindow) {
  // A cold start inside the window scheduled at the last invocation can
  // only follow a drop, so it serves the lowest variant; past that window
  // the cold start is fresh and serves the highest. The window is the
  // adaptive one, not the fixed 10 minutes.
  models::ModelZoo zoo;
  zoo.add_family(models::ModelFamily(
      "Three", "t", "d",
      {models::ModelVariant{"low", 1.0, 4.0, 70.0, 100.0},
       models::ModelVariant{"mid", 1.5, 6.0, 80.0, 200.0},
       models::ModelVariant{"high", 2.0, 8.0, 90.0, 400.0}}));
  const auto d = sim::Deployment::round_robin(zoo, 1);
  const std::size_t highest = d.family_of(0).highest_index();
  ASSERT_EQ(highest, 2u);
  PulsePolicy::Config config;
  config.adaptive_window = true;
  trace::Trace t(1, 5000);

  // 3-minute gaps: the window is 3, so offset 5 is outside it.
  PulsePolicy short_gaps(config);
  sim::KeepAliveSchedule s1(d, 5000);
  short_gaps.initialize(d, t, s1);
  for (trace::Minute m = 0; m <= 120; m += 3) short_gaps.on_invocation(0, m, s1);
  ASSERT_EQ(short_gaps.window_for(0), 3);
  EXPECT_FALSE(s1.is_alive(0, 125));
  EXPECT_EQ(short_gaps.cold_start_variant(0, 125, d), highest);
  EXPECT_EQ(short_gaps.cold_start_variant(0, 123, d), 0u);

  // 25-minute gaps: the window is 25, so offset 20 is still inside it.
  PulsePolicy long_gaps(config);
  sim::KeepAliveSchedule s2(d, 5000);
  long_gaps.initialize(d, t, s2);
  for (trace::Minute m = 0; m <= 2000; m += 25) long_gaps.on_invocation(0, m, s2);
  ASSERT_EQ(long_gaps.window_for(0), 25);
  EXPECT_TRUE(s2.is_alive(0, 2020));
  EXPECT_EQ(long_gaps.cold_start_variant(0, 2020, d), 0u);
  EXPECT_EQ(long_gaps.cold_start_variant(0, 2026, d), highest);
}

TEST(AdaptiveWindow, FactoryNameConstructs) {
  const auto zoo = test_zoo();
  PulsePolicy::Config config;
  config.adaptive_window = true;
  PulsePolicy p(config);
  EXPECT_EQ(p.config().adaptive_window, true);
}

}  // namespace
}  // namespace pulse::core
