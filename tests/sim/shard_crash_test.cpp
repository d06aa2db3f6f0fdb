// The shard-crash primitives the cluster engine builds on: lose_warm_pool
// charges the containers alive at the crash minute as crash evictions and
// drops everything scheduled from it on, and run_outage fails every arrival
// of a dead shard while holding no memory.

#include <gtest/gtest.h>

#include <cstdint>

#include "policies/factory.hpp"
#include "sim/engine.hpp"
#include "trace/workload.hpp"

namespace pulse::sim {
namespace {

struct Fixture {
  trace::Workload workload;
  models::ModelZoo zoo;
  Deployment deployment;
};

Fixture make_fixture(std::size_t functions, trace::Minute duration, std::uint64_t seed) {
  trace::WorkloadConfig wc;
  wc.function_count = functions;
  wc.duration = duration;
  wc.seed = seed;
  Fixture fx{trace::build_azure_like_workload(wc), models::ModelZoo::builtin(), {}};
  fx.deployment = Deployment::round_robin(fx.zoo, functions);
  return fx;
}

TEST(ShardCrash, LoseWarmPoolCountsAliveContainersAsCrashEvictions) {
  const Fixture fx = make_fixture(16, 240, 9);
  EngineConfig config;
  config.seed = 7;
  auto policy = policies::make_policy("openwhisk");  // 10-minute windows stay warm
  SteppedRun run(fx.deployment, fx.workload.trace, config, *policy);
  run.run_until(120);

  const std::uint64_t before = run.partial().crash_evictions;
  const std::uint64_t lost = run.lose_warm_pool(120);
  EXPECT_GT(lost, 0u) << "fixture should have a warm pool at minute 120";
  EXPECT_EQ(run.partial().crash_evictions, before + lost);
  // The whole schedule from the crash minute on is gone, not just minute 120.
  const std::uint64_t again = run.lose_warm_pool(120);
  EXPECT_EQ(again, 0u);
}

TEST(ShardCrash, RunOutageFailsEveryArrivalAndHoldsNoMemory) {
  const Fixture fx = make_fixture(16, 240, 9);
  EngineConfig config;
  config.seed = 7;
  config.record_series = true;
  auto policy = policies::make_policy("pulse");
  SteppedRun run(fx.deployment, fx.workload.trace, config, *policy);
  run.run_until(100);
  run.lose_warm_pool(100);

  std::uint64_t arrivals = 0;
  for (trace::Minute t = 100; t < 160; ++t) arrivals += fx.workload.trace.invocations_at(t);
  ASSERT_GT(arrivals, 0u);

  const std::uint64_t failed_before = run.partial().failed_invocations;
  const std::uint64_t degraded_before = run.partial().degraded_minutes;
  const std::uint64_t failed = run.run_outage(160);
  EXPECT_EQ(failed, arrivals);
  EXPECT_EQ(run.partial().failed_invocations, failed_before + failed);
  EXPECT_EQ(run.partial().degraded_minutes, degraded_before + 60);
  EXPECT_EQ(run.next_minute(), 160);
  for (trace::Minute t = 100; t < 160; ++t) {
    EXPECT_EQ(run.keepalive_memory_mb(t), 0.0) << "minute " << t;
  }
  // The run continues normally after the outage.
  run.run_until(fx.workload.trace.duration());
  const RunResult r = run.finish();
  EXPECT_GT(r.invocations, 0u);
}

}  // namespace
}  // namespace pulse::sim
