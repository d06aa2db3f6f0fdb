#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "models/zoo.hpp"
#include "policies/fixed_keepalive.hpp"
#include "sim/cost_model.hpp"

namespace pulse::sim {
namespace {

/// One family, two variants with round numbers for exact arithmetic.
models::ModelZoo test_zoo() {
  models::ModelZoo zoo;
  zoo.add_family(models::ModelFamily(
      "Test", "task", "data",
      {
          models::ModelVariant{"low", 1.0, 4.0, 70.0, 100.0},
          models::ModelVariant{"high", 2.0, 8.0, 90.0, 300.0},
      }));
  return zoo;
}

EngineConfig exact_config() {
  EngineConfig config;
  config.deterministic_latency = true;
  config.record_series = true;
  return config;
}

TEST(Engine, MismatchedFunctionCountThrows) {
  const auto zoo = test_zoo();
  const Deployment d = Deployment::round_robin(zoo, 2);
  trace::Trace t(3, 10);
  EXPECT_THROW(SimulationEngine(d, t, {}), std::invalid_argument);

  // A global-id table shorter than the trace is rejected before any id is
  // read (ASan builds catch a read past its end).
  const trace::Trace matching(2, 10);
  const std::vector<trace::FunctionId> short_ids{0};
  EngineConfig config;
  config.global_ids = &short_ids;
  policies::FixedKeepAlivePolicy policy;
  EXPECT_THROW(SteppedRun(d, matching, config, policy), std::invalid_argument);
}

TEST(Engine, SingleInvocationIsCold) {
  const auto zoo = test_zoo();
  const Deployment d = Deployment::round_robin(zoo, 1);
  trace::Trace t(1, 20);
  t.set_count(0, 5, 1);

  SimulationEngine engine(d, t, exact_config());
  policies::FixedKeepAlivePolicy policy;
  const RunResult r = engine.run(policy);

  EXPECT_EQ(r.invocations, 1u);
  EXPECT_EQ(r.cold_starts, 1u);
  EXPECT_EQ(r.warm_starts, 0u);
  // Cold start of the high variant: 2.0 exec + 8.0 cold = 10.0.
  EXPECT_DOUBLE_EQ(r.total_service_time_s, 10.0);
  EXPECT_DOUBLE_EQ(r.accuracy_pct_sum, 90.0);
}

TEST(Engine, FollowUpWithinWindowIsWarm) {
  const auto zoo = test_zoo();
  const Deployment d = Deployment::round_robin(zoo, 1);
  trace::Trace t(1, 30);
  t.set_count(0, 5, 1);
  t.set_count(0, 9, 1);  // 4 minutes later: inside the 10-minute window

  SimulationEngine engine(d, t, exact_config());
  policies::FixedKeepAlivePolicy policy;
  const RunResult r = engine.run(policy);

  EXPECT_EQ(r.cold_starts, 1u);
  EXPECT_EQ(r.warm_starts, 1u);
  // 10.0 (cold) + 2.0 (warm).
  EXPECT_DOUBLE_EQ(r.total_service_time_s, 12.0);
}

TEST(Engine, FollowUpBeyondWindowIsColdAgain) {
  const auto zoo = test_zoo();
  const Deployment d = Deployment::round_robin(zoo, 1);
  trace::Trace t(1, 40);
  t.set_count(0, 5, 1);
  t.set_count(0, 16, 1);  // 11 minutes later: outside the window

  SimulationEngine engine(d, t, exact_config());
  policies::FixedKeepAlivePolicy policy;
  const RunResult r = engine.run(policy);

  EXPECT_EQ(r.cold_starts, 2u);
  EXPECT_EQ(r.warm_starts, 0u);
}

TEST(Engine, InvocationAtExactWindowEndIsWarm) {
  const auto zoo = test_zoo();
  const Deployment d = Deployment::round_robin(zoo, 1);
  trace::Trace t(1, 40);
  t.set_count(0, 5, 1);
  t.set_count(0, 15, 1);  // exactly 10 minutes later: last kept minute

  SimulationEngine engine(d, t, exact_config());
  policies::FixedKeepAlivePolicy policy;
  const RunResult r = engine.run(policy);
  EXPECT_EQ(r.warm_starts, 1u);
}

TEST(Engine, MultipleInvocationsSameMinuteOnlyFirstCold) {
  const auto zoo = test_zoo();
  const Deployment d = Deployment::round_robin(zoo, 1);
  trace::Trace t(1, 20);
  t.set_count(0, 3, 5);

  SimulationEngine engine(d, t, exact_config());
  policies::FixedKeepAlivePolicy policy;
  const RunResult r = engine.run(policy);

  EXPECT_EQ(r.invocations, 5u);
  EXPECT_EQ(r.cold_starts, 1u);
  EXPECT_EQ(r.warm_starts, 4u);
  // 10.0 cold + 4 x 2.0 warm.
  EXPECT_DOUBLE_EQ(r.total_service_time_s, 18.0);
}

TEST(Engine, KeepAliveCostMatchesHandComputation) {
  const auto zoo = test_zoo();
  const Deployment d = Deployment::round_robin(zoo, 1);
  trace::Trace t(1, 30);
  t.set_count(0, 5, 1);

  SimulationEngine engine(d, t, exact_config());
  policies::FixedKeepAlivePolicy policy;
  const RunResult r = engine.run(policy);

  // High variant (300 MB) alive at minute 5 (execution) + minutes 6..15.
  const double expected = keepalive_cost_usd(300.0, 11.0);
  EXPECT_NEAR(r.total_keepalive_cost_usd, expected, 1e-12);
}

TEST(Engine, MemorySeriesReflectsKeepAlive) {
  const auto zoo = test_zoo();
  const Deployment d = Deployment::round_robin(zoo, 1);
  trace::Trace t(1, 30);
  t.set_count(0, 5, 1);

  SimulationEngine engine(d, t, exact_config());
  policies::FixedKeepAlivePolicy policy;
  const RunResult r = engine.run(policy);

  ASSERT_EQ(r.keepalive_memory_mb.size(), 30u);
  EXPECT_DOUBLE_EQ(r.keepalive_memory_mb[4], 0.0);
  for (std::size_t m = 5; m <= 15; ++m) EXPECT_DOUBLE_EQ(r.keepalive_memory_mb[m], 300.0);
  EXPECT_DOUBLE_EQ(r.keepalive_memory_mb[16], 0.0);
}

TEST(Engine, IdealCostOnlyDuringInvocationMinutes) {
  const auto zoo = test_zoo();
  const Deployment d = Deployment::round_robin(zoo, 1);
  trace::Trace t(1, 30);
  t.set_count(0, 5, 1);
  t.set_count(0, 7, 2);

  SimulationEngine engine(d, t, exact_config());
  policies::FixedKeepAlivePolicy policy;
  const RunResult r = engine.run(policy);

  const double per_minute = keepalive_cost_usd(300.0, 1.0);
  ASSERT_EQ(r.ideal_cost_usd.size(), 30u);
  EXPECT_DOUBLE_EQ(r.ideal_cost_usd[5], per_minute);
  EXPECT_DOUBLE_EQ(r.ideal_cost_usd[6], 0.0);
  EXPECT_DOUBLE_EQ(r.ideal_cost_usd[7], per_minute);
}

TEST(Engine, AllLowPolicyServesLowVariant) {
  const auto zoo = test_zoo();
  const Deployment d = Deployment::round_robin(zoo, 1);
  trace::Trace t(1, 20);
  t.set_count(0, 2, 1);

  policies::FixedKeepAlivePolicy::Config config;
  config.variant = policies::FixedVariant::kLowest;
  policies::FixedKeepAlivePolicy policy(config);

  SimulationEngine engine(d, t, exact_config());
  const RunResult r = engine.run(policy);

  // Cold start of the LOW variant: 1.0 + 4.0.
  EXPECT_DOUBLE_EQ(r.total_service_time_s, 5.0);
  EXPECT_DOUBLE_EQ(r.accuracy_pct_sum, 70.0);
}

TEST(Engine, StochasticLatencyIsSeedDeterministic) {
  const auto zoo = test_zoo();
  const Deployment d = Deployment::round_robin(zoo, 1);
  trace::Trace t(1, 200);
  for (trace::Minute m = 0; m < 200; m += 3) t.set_count(0, m, 1);

  EngineConfig config;
  config.seed = 77;
  auto run_once = [&] {
    SimulationEngine engine(d, t, config);
    policies::FixedKeepAlivePolicy policy;
    return engine.run(policy).total_service_time_s;
  };
  EXPECT_DOUBLE_EQ(run_once(), run_once());
}

TEST(Engine, OverheadMeasurementAccumulates) {
  const auto zoo = test_zoo();
  const Deployment d = Deployment::round_robin(zoo, 1);
  trace::Trace t(1, 500);
  for (trace::Minute m = 0; m < 500; m += 2) t.set_count(0, m, 1);

  // An attached profiler is what turns the policy-call timer on.
  obs::PhaseProfiler profiler;
  EngineConfig config = exact_config();
  config.observer.profiler = &profiler;
  SimulationEngine engine(d, t, config);
  policies::FixedKeepAlivePolicy policy;
  const RunResult r = engine.run(policy);
  EXPECT_GT(r.policy_overhead_s, 0.0);
  EXPECT_LT(r.policy_overhead_s, 5.0);
}

TEST(Engine, WarmFractionAndAverageAccuracy) {
  const auto zoo = test_zoo();
  const Deployment d = Deployment::round_robin(zoo, 1);
  trace::Trace t(1, 20);
  t.set_count(0, 2, 4);

  SimulationEngine engine(d, t, exact_config());
  policies::FixedKeepAlivePolicy policy;
  const RunResult r = engine.run(policy);
  EXPECT_DOUBLE_EQ(r.warm_start_fraction(), 0.75);
  EXPECT_DOUBLE_EQ(r.average_accuracy_pct(), 90.0);
}

// A function's sampled jitter and Bernoulli accuracy come from its own
// streams: replaying A beside B, or A alone under A's catalog-global id,
// gives A bit-identical metrics (a per-function policy, no capacity).
TEST(EngineStreams, FunctionMetricsIgnoreOtherFunctions) {
  const models::ModelZoo zoo = models::ModelZoo::builtin();
  const models::ModelFamily& a_family = zoo.family(1);
  const models::ModelFamily& b_family = zoo.family(2);
  constexpr trace::Minute kDuration = 600;
  trace::Trace both(2, kDuration);
  trace::Trace alone(1, kDuration);
  util::Pcg32 counts(17, 3);
  for (trace::Minute t = 0; t < kDuration; ++t) {
    const std::uint32_t b = counts.bounded(3) == 0 ? counts.bounded(5) : 0;
    const std::uint32_t a = counts.bounded(4) == 0 ? 1 + counts.bounded(4) : 0;
    both.set_count(0, t, b);  // B is catalog function 0, A is function 1
    both.set_count(1, t, a);
    alone.set_count(0, t, a);
  }

  EngineConfig config;
  config.seed = 2024;
  config.bernoulli_accuracy = true;
  config.record_per_function = true;
  const Deployment both_dep({&b_family, &a_family});
  policies::FixedKeepAlivePolicy both_policy;
  const RunResult with_b = SimulationEngine(both_dep, both, config).run(both_policy);

  const std::vector<trace::FunctionId> a_id{1};
  config.global_ids = &a_id;
  const Deployment alone_dep({&a_family});
  policies::FixedKeepAlivePolicy alone_policy;
  const RunResult solo = SimulationEngine(alone_dep, alone, config).run(alone_policy);

  const FunctionMetrics& x = with_b.per_function[1];
  const FunctionMetrics& y = solo.per_function[0];
  ASSERT_GT(x.invocations, 100u);
  ASSERT_GT(with_b.per_function[0].invocations, 100u);
  EXPECT_EQ(x.invocations, y.invocations);
  EXPECT_EQ(x.cold_starts, y.cold_starts);
  EXPECT_EQ(x.warm_starts, y.warm_starts);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(x.service_time_s),
            std::bit_cast<std::uint64_t>(y.service_time_s));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(x.accuracy_pct_sum),
            std::bit_cast<std::uint64_t>(y.accuracy_pct_sum));
}

/// Keeps nothing alive and cold-starts minute t with the variant of class
/// t % classes: each minute's first invocation is cold, the rest warm.
class VariantPerMinutePolicy final : public KeepAlivePolicy {
 public:
  explicit VariantPerMinutePolicy(std::vector<std::size_t> variant_of_class)
      : variant_of_class_(std::move(variant_of_class)) {}
  [[nodiscard]] std::string name() const override { return "variant-per-minute"; }
  void on_invocation(trace::FunctionId, trace::Minute, KeepAliveSchedule&) override {}
  [[nodiscard]] std::size_t cold_start_variant(trace::FunctionId, trace::Minute t,
                                               const Deployment&) const override {
    return variant_of_class_[static_cast<std::size_t>(t) % variant_of_class_.size()];
  }

 private:
  std::vector<std::size_t> variant_of_class_;
};

// The sampled jitter is unbiased where it is spent: over a long run, the
// mean service time of every (variant, warm/cold) of the builtin zoo lies
// within 4.5 standard errors of expected_service_time, the standard error
// following from the latency model's CVs (a cold time is an independent
// warm draw plus a cold-start draw).
TEST(EngineJitter, MeanServiceTimePerVariantMatchesExpectation) {
  const models::ModelZoo zoo = models::ModelZoo::builtin();
  const Deployment d = Deployment::round_robin(zoo, zoo.family_count());
  std::vector<trace::FunctionId> function_of_class;
  std::vector<std::size_t> variant_of_class;
  for (std::size_t f = 0; f < zoo.family_count(); ++f) {
    for (std::size_t v = 0; v < zoo.family(f).variant_count(); ++v) {
      function_of_class.push_back(f);
      variant_of_class.push_back(v);
    }
  }
  const std::size_t classes = variant_of_class.size();
  constexpr std::size_t kMinutesPerClass = 1500;
  constexpr std::uint32_t kPerMinute = 16;  // 1 cold + 15 warm
  trace::Trace t(zoo.family_count(), static_cast<trace::Minute>(classes * kMinutesPerClass));
  for (trace::Minute m = 0; m < t.duration(); ++m) {
    t.set_count(function_of_class[static_cast<std::size_t>(m) % classes], m, kPerMinute);
  }

  EngineConfig config;
  config.seed = 29;
  config.record_service_samples = true;
  VariantPerMinutePolicy policy(variant_of_class);
  const RunResult r = SimulationEngine(d, t, config).run(policy);
  ASSERT_EQ(r.cold_starts, static_cast<std::uint64_t>(t.duration()));
  ASSERT_EQ(r.service_time_samples.size(), static_cast<std::size_t>(t.duration()) * kPerMinute);

  std::vector<double> cold_sum(classes, 0.0), warm_sum(classes, 0.0);
  for (std::size_t m = 0; m < static_cast<std::size_t>(t.duration()); ++m) {
    const double* s = &r.service_time_samples[m * kPerMinute];
    cold_sum[m % classes] += s[0];
    for (std::uint32_t i = 1; i < kPerMinute; ++i) warm_sum[m % classes] += s[i];
  }
  const double warm_cv = config.latency.warm_cv();
  const double cold_cv = config.latency.cold_cv();
  for (std::size_t c = 0; c < classes; ++c) {
    const models::ModelVariant& v = zoo.family(function_of_class[c]).variant(variant_of_class[c]);
    SCOPED_TRACE(zoo.family(function_of_class[c]).name() + "/" + v.name);
    const double warm_n = static_cast<double>(kMinutesPerClass * (kPerMinute - 1));
    const double warm_sd = warm_cv * v.warm_service_time_s;
    EXPECT_NEAR(warm_sum[c] / warm_n, models::LatencyModel::expected_service_time(v, false),
                4.5 * warm_sd / std::sqrt(warm_n));
    const double cold_n = static_cast<double>(kMinutesPerClass);
    const double cold_sd = std::hypot(warm_sd, cold_cv * v.cold_start_time_s);
    EXPECT_NEAR(cold_sum[c] / cold_n, models::LatencyModel::expected_service_time(v, true),
                4.5 * cold_sd / std::sqrt(cold_n));
  }
}

TEST(RunResultHelpers, ImprovementPct) {
  EXPECT_DOUBLE_EQ(improvement_pct(100.0, 60.0), 40.0);
  EXPECT_DOUBLE_EQ(improvement_pct(100.0, 120.0), -20.0);
  EXPECT_DOUBLE_EQ(improvement_pct(0.0, 5.0), 0.0);
}

TEST(RunResultHelpers, ChangePct) {
  EXPECT_NEAR(change_pct(80.0, 79.2), -1.0, 1e-9);
  EXPECT_DOUBLE_EQ(change_pct(0.0, 1.0), 0.0);
}

}  // namespace
}  // namespace pulse::sim
