// Engine edge cases: degenerate traces, horizon boundaries, and windows
// clipped by the end of the trace.

#include <gtest/gtest.h>

#include "core/pulse_policy.hpp"
#include "policies/fixed_keepalive.hpp"
#include "sim/cost_model.hpp"
#include "sim/engine.hpp"

namespace pulse::sim {
namespace {

models::ModelZoo test_zoo() {
  models::ModelZoo zoo;
  zoo.add_family(models::ModelFamily(
      "Test", "t", "d",
      {models::ModelVariant{"low", 1.0, 4.0, 70.0, 100.0},
       models::ModelVariant{"high", 2.0, 8.0, 90.0, 300.0}}));
  return zoo;
}

TEST(EngineEdge, EmptyTraceYieldsEmptyResult) {
  const auto zoo = test_zoo();
  const Deployment d = Deployment::round_robin(zoo, 2);
  trace::Trace t(2, 100);  // no invocations at all
  SimulationEngine engine(d, t, {});
  policies::FixedKeepAlivePolicy policy;
  const RunResult r = engine.run(policy);
  EXPECT_EQ(r.invocations, 0u);
  EXPECT_DOUBLE_EQ(r.total_service_time_s, 0.0);
  EXPECT_DOUBLE_EQ(r.total_keepalive_cost_usd, 0.0);
  EXPECT_DOUBLE_EQ(r.average_accuracy_pct(), 0.0);
}

TEST(EngineEdge, ZeroDurationTrace) {
  const auto zoo = test_zoo();
  const Deployment d = Deployment::round_robin(zoo, 1);
  trace::Trace t(1, 0);
  SimulationEngine engine(d, t, {});
  policies::FixedKeepAlivePolicy policy;
  const RunResult r = engine.run(policy);
  EXPECT_EQ(r.invocations, 0u);
}

TEST(EngineEdge, InvocationAtLastMinuteClipsWindow) {
  // The keep-alive window extends past the horizon; cost must only accrue
  // inside it.
  const auto zoo = test_zoo();
  const Deployment d = Deployment::round_robin(zoo, 1);
  trace::Trace t(1, 10);
  t.set_count(0, 9, 1);

  EngineConfig config;
  config.deterministic_latency = true;
  SimulationEngine engine(d, t, config);
  policies::FixedKeepAlivePolicy policy;
  const RunResult r = engine.run(policy);

  // Only minute 9 (the execution minute) is inside the horizon.
  EXPECT_NEAR(r.total_keepalive_cost_usd, keepalive_cost_usd(300.0, 1.0), 1e-12);
}

TEST(EngineEdge, InvocationAtMinuteZero) {
  const auto zoo = test_zoo();
  const Deployment d = Deployment::round_robin(zoo, 1);
  trace::Trace t(1, 20);
  t.set_count(0, 0, 1);
  SimulationEngine engine(d, t, {});
  policies::FixedKeepAlivePolicy policy;
  const RunResult r = engine.run(policy);
  EXPECT_EQ(r.cold_starts, 1u);
}

TEST(EngineEdge, PulseSurvivesSingleMinuteTrace) {
  const auto zoo = test_zoo();
  const Deployment d = Deployment::round_robin(zoo, 1);
  trace::Trace t(1, 1);
  t.set_count(0, 0, 3);
  SimulationEngine engine(d, t, {});
  core::PulsePolicy policy;
  const RunResult r = engine.run(policy);
  EXPECT_EQ(r.invocations, 3u);
}

TEST(EngineEdge, ManyInvocationsOneMinute) {
  const auto zoo = test_zoo();
  const Deployment d = Deployment::round_robin(zoo, 1);
  trace::Trace t(1, 5);
  t.set_count(0, 2, 1000);
  EngineConfig config;
  config.deterministic_latency = true;
  SimulationEngine engine(d, t, config);
  policies::FixedKeepAlivePolicy policy;
  const RunResult r = engine.run(policy);
  EXPECT_EQ(r.invocations, 1000u);
  EXPECT_EQ(r.cold_starts, 1u);
  // 1 cold (10 s) + 999 warm (2 s).
  EXPECT_DOUBLE_EQ(r.total_service_time_s, 10.0 + 999.0 * 2.0);
}

TEST(EngineEdge, SeriesLengthsAlwaysMatchDuration) {
  const auto zoo = test_zoo();
  const Deployment d = Deployment::round_robin(zoo, 2);
  trace::Trace t(2, 77);
  t.set_count(0, 5, 1);
  EngineConfig config;
  config.record_series = true;
  SimulationEngine engine(d, t, config);
  policies::FixedKeepAlivePolicy policy;
  const RunResult r = engine.run(policy);
  EXPECT_EQ(r.keepalive_memory_mb.size(), 77u);
  EXPECT_EQ(r.keepalive_cost_usd.size(), 77u);
  EXPECT_EQ(r.ideal_cost_usd.size(), 77u);
}

TEST(EngineEdge, PolicyReuseAcrossRunsIsIndependentForStateless) {
  // Stateless fixed policy: running it twice on the same engine must give
  // identical results (fresh schedule per run).
  const auto zoo = test_zoo();
  const Deployment d = Deployment::round_robin(zoo, 1);
  trace::Trace t(1, 50);
  t.set_count(0, 5, 1);
  t.set_count(0, 30, 1);
  EngineConfig config;
  config.deterministic_latency = true;
  SimulationEngine engine(d, t, config);
  policies::FixedKeepAlivePolicy policy;
  const RunResult a = engine.run(policy);
  const RunResult b = engine.run(policy);
  EXPECT_DOUBLE_EQ(a.total_keepalive_cost_usd, b.total_keepalive_cost_usd);
  EXPECT_EQ(a.cold_starts, b.cold_starts);
}

}  // namespace
}  // namespace pulse::sim
