#include "core/pulse_policy.hpp"

#include <gtest/gtest.h>

#include <algorithm>

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
       models::ModelVariant{"mid", 1.5, 6.0, 80.0, 200.0},
       models::ModelVariant{"high", 2.0, 8.0, 90.0, 400.0}}));
  return zoo;
}

TEST(PulsePolicy, NameReflectsConfiguration) {
  EXPECT_EQ(PulsePolicy().name(), "PULSE(T1)");
  PulsePolicy::Config t2;
  t2.technique = ThresholdTechnique::kT2;
  EXPECT_EQ(PulsePolicy(t2).name(), "PULSE(T2)");
  PulsePolicy::Config solo;
  solo.enable_global_optimization = false;
  EXPECT_EQ(PulsePolicy(solo).name(), "PULSE(T1,individual-only)");
}

TEST(PulsePolicy, InvalidWindowThrows) {
  PulsePolicy::Config config;
  config.keepalive_window = 0;
  EXPECT_THROW({ [[maybe_unused]] PulsePolicy p(config); }, std::invalid_argument);
  config = {};
  config.local_window = -1;
  EXPECT_THROW({ [[maybe_unused]] PulsePolicy p(config); }, std::invalid_argument);
  config.local_window = 0;
  EXPECT_NO_THROW({ [[maybe_unused]] PulsePolicy p(config); });
}

TEST(PulsePolicy, ZeroAdaptiveWindowThrows) {
  // window_for() clamps the gap percentile to [1, max_adaptive_window]; a
  // cap below 1 would be an empty clamp range.
  PulsePolicy::Config config;
  config.adaptive_window = true;
  for (const trace::Minute cap : {0, -5}) {
    config.max_adaptive_window = cap;
    EXPECT_THROW({ [[maybe_unused]] PulsePolicy p(config); }, std::invalid_argument) << cap;
  }
  // The cap is unused while the window is fixed.
  config.adaptive_window = false;
  EXPECT_NO_THROW({ [[maybe_unused]] PulsePolicy p(config); });
}

TEST(PulsePolicy, OptimizerBeforeInitializeThrows) {
  PulsePolicy p;
  EXPECT_THROW(static_cast<void>(p.optimizer()), std::logic_error);
}

TEST(PulsePolicy, FirstInvocationKeepsLowestAlive) {
  // With no history every probability is 0: T1 assigns the lowest variant
  // for the whole window — the "at least the low-quality container" floor.
  const auto zoo = test_zoo();
  const auto d = sim::Deployment::round_robin(zoo, 1);
  trace::Trace t(1, 30);
  sim::KeepAliveSchedule schedule(d, 30);

  PulsePolicy p;
  p.initialize(d, t, schedule);
  p.on_invocation(0, 5, schedule);

  for (trace::Minute m = 6; m <= 15; ++m) {
    EXPECT_EQ(schedule.variant_at(0, m), 0) << "minute " << m;
  }
  EXPECT_EQ(schedule.variant_at(0, 16), sim::kNoVariant);
}

TEST(PulsePolicy, PredictableFunctionGetsHighVariantAtLikelyOffset) {
  // A strict 4-minute period: after warm-up, P(gap=4) ~ 1, so the variant
  // kept at offset 4 must be the highest while other offsets stay low.
  const auto zoo = test_zoo();
  const auto d = sim::Deployment::round_robin(zoo, 1);
  trace::Trace t(1, 400);
  sim::KeepAliveSchedule schedule(d, 400);

  PulsePolicy p;
  p.initialize(d, t, schedule);
  trace::Minute now = 0;
  for (int i = 0; i < 50; ++i) {
    p.on_invocation(0, now, schedule);
    now += 4;
  }
  const trace::Minute last = now - 4;
  EXPECT_EQ(schedule.variant_at(0, last + 4), 2);  // high at the hot offset
  EXPECT_EQ(schedule.variant_at(0, last + 1), 0);
  EXPECT_EQ(schedule.variant_at(0, last + 9), 0);
}

TEST(PulsePolicy, EndToEndBeatsOpenWhiskOnCost) {
  // The headline claim (Figure 6a): lower keep-alive cost than the fixed
  // 10-minute policy, with accuracy within a few percent.
  trace::WorkloadConfig wconfig;
  wconfig.function_count = 6;
  wconfig.duration = 3 * trace::kMinutesPerDay;
  const auto workload = trace::build_azure_like_workload(wconfig);
  const auto zoo = models::ModelZoo::builtin();
  const auto d = sim::Deployment::round_robin(zoo, 6);

  sim::EngineConfig config;
  config.deterministic_latency = true;

  sim::SimulationEngine engine(d, workload.trace, config);
  PulsePolicy pulse;
  const sim::RunResult pulse_result = engine.run(pulse);

  policies::FixedKeepAlivePolicy openwhisk;
  const sim::RunResult ow_result = engine.run(openwhisk);

  EXPECT_LT(pulse_result.total_keepalive_cost_usd, ow_result.total_keepalive_cost_usd);
  EXPECT_GT(pulse_result.average_accuracy_pct(), ow_result.average_accuracy_pct() * 0.90);
  EXPECT_EQ(pulse_result.invocations, ow_result.invocations);
}

TEST(PulsePolicy, GlobalOptimizationReducesPeakMemory) {
  trace::WorkloadConfig wconfig;
  wconfig.function_count = 8;
  wconfig.duration = trace::kMinutesPerDay;
  wconfig.peak_intensity = 8.0;
  const auto workload = trace::build_azure_like_workload(wconfig);
  const auto zoo = models::ModelZoo::builtin();
  const auto d = sim::Deployment::round_robin(zoo, 8);

  sim::EngineConfig config;
  config.deterministic_latency = true;
  config.record_series = true;
  sim::SimulationEngine engine(d, workload.trace, config);

  PulsePolicy::Config solo_config;
  solo_config.enable_global_optimization = false;
  PulsePolicy solo(solo_config);
  const auto solo_result = engine.run(solo);

  PulsePolicy full;
  const auto full_result = engine.run(full);

  double solo_peak = 0.0;
  double full_peak = 0.0;
  for (double m : solo_result.keepalive_memory_mb) solo_peak = std::max(solo_peak, m);
  for (double m : full_result.keepalive_memory_mb) full_peak = std::max(full_peak, m);

  EXPECT_GT(full_result.downgrades, 0u);
  EXPECT_LE(full_peak, solo_peak);
}

TEST(PulsePolicy, IndividualOnlyNeverDowngrades) {
  trace::WorkloadConfig wconfig;
  wconfig.function_count = 4;
  wconfig.duration = 600;
  const auto workload = trace::build_azure_like_workload(wconfig);
  const auto zoo = models::ModelZoo::builtin();
  const auto d = sim::Deployment::round_robin(zoo, 4);

  sim::SimulationEngine engine(d, workload.trace, {});
  PulsePolicy::Config config;
  config.enable_global_optimization = false;
  PulsePolicy p(config);
  const auto r = engine.run(p);
  EXPECT_EQ(r.downgrades, 0u);
}

TEST(PulsePolicy, T2AlsoKeepsFloorAlive) {
  const auto zoo = test_zoo();
  const auto d = sim::Deployment::round_robin(zoo, 1);
  trace::Trace t(1, 30);
  sim::KeepAliveSchedule schedule(d, 30);

  PulsePolicy::Config config;
  config.technique = ThresholdTechnique::kT2;
  PulsePolicy p(config);
  p.initialize(d, t, schedule);
  p.on_invocation(0, 5, schedule);
  for (trace::Minute m = 6; m <= 15; ++m) {
    EXPECT_EQ(schedule.variant_at(0, m), 0);
  }
}

TEST(PulsePolicy, CustomWindowLengthRespected) {
  const auto zoo = test_zoo();
  const auto d = sim::Deployment::round_robin(zoo, 1);
  trace::Trace t(1, 40);
  sim::KeepAliveSchedule schedule(d, 40);

  PulsePolicy::Config config;
  config.keepalive_window = 5;  // provider chose a 5-minute window
  PulsePolicy p(config);
  p.initialize(d, t, schedule);
  p.on_invocation(0, 10, schedule);
  EXPECT_NE(schedule.variant_at(0, 15), sim::kNoVariant);
  EXPECT_EQ(schedule.variant_at(0, 16), sim::kNoVariant);
}

}  // namespace
}  // namespace pulse::core
