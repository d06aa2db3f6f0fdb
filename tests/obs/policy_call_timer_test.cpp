// The policy-call timer's contract (sim::PolicyCallTimer). With a
// PhaseProfiler attached, the minute engine and the platform simulator count
// one kSchedule call per function-minute with arrivals and one kOptimize call
// per simulated minute (dead-shard outage minutes included), for every
// factory policy, and the engine's RunResult::policy_overhead_s is positive.
// With no profiler nothing is timed and the overhead reads 0.

#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <string>

#include "obs/profiler.hpp"
#include "platform/platform.hpp"
#include "policies/factory.hpp"
#include "sim/engine.hpp"
#include "trace/workload.hpp"

namespace pulse::sim {
namespace {

using obs::Phase;

class PolicyCallTimerTest : public ::testing::TestWithParam<std::string> {
 protected:
  PolicyCallTimerTest()
      : trace_(make_trace()),
        zoo_(models::ModelZoo::builtin()),
        deployment_(Deployment::round_robin(zoo_, trace_.function_count())) {}

  static trace::Trace make_trace() {
    trace::WorkloadConfig wc;
    wc.function_count = 6;
    wc.duration = 240;
    wc.seed = 3;
    return trace::build_azure_like_workload(wc).trace;
  }

  /// Function-minutes in [from, to) with at least one arrival: the number of
  /// on_invocation calls a run makes there.
  [[nodiscard]] std::uint64_t arrival_minutes(trace::Minute from, trace::Minute to) const {
    std::uint64_t n = 0;
    for (trace::FunctionId f = 0; f < trace_.function_count(); ++f) {
      for (trace::Minute t = from; t < to; ++t) n += trace_.count(f, t) > 0 ? 1 : 0;
    }
    return n;
  }

  trace::Trace trace_;
  models::ModelZoo zoo_;
  Deployment deployment_;
};

TEST_P(PolicyCallTimerTest, EngineCountsEveryCallAndTimesOnlyWithAProfiler) {
  obs::PhaseProfiler profiler;
  EngineConfig config;
  config.observer.profiler = &profiler;
  const auto timed = policies::make_policy(GetParam());
  const RunResult r = SimulationEngine(deployment_, trace_, config).run(*timed);
  EXPECT_EQ(profiler.stats(Phase::kSchedule).calls, arrival_minutes(0, trace_.duration()));
  EXPECT_EQ(profiler.stats(Phase::kOptimize).calls,
            static_cast<std::uint64_t>(trace_.duration()));
  EXPECT_GT(r.policy_overhead_s, 0.0);

  const auto plain = policies::make_policy(GetParam());
  EXPECT_EQ(SimulationEngine(deployment_, trace_, EngineConfig{}).run(*plain).policy_overhead_s,
            0.0);
}

TEST_P(PolicyCallTimerTest, OutageMinutesAreOptimizeCallsWithoutScheduleCalls) {
  constexpr trace::Minute kCrash = 60;
  constexpr trace::Minute kRecover = 120;
  obs::PhaseProfiler profiler;
  EngineConfig config;
  config.observer.profiler = &profiler;
  const auto policy = policies::make_policy(GetParam());
  SteppedRun run(deployment_, trace_, config, *policy);
  run.run_until(kCrash);
  run.lose_warm_pool(kCrash);
  run.run_outage(kRecover);
  const RunResult r = run.finish();
  EXPECT_EQ(profiler.stats(Phase::kSchedule).calls,
            arrival_minutes(0, kCrash) + arrival_minutes(kRecover, trace_.duration()));
  EXPECT_EQ(profiler.stats(Phase::kOptimize).calls,
            static_cast<std::uint64_t>(trace_.duration()));
  EXPECT_GT(r.policy_overhead_s, 0.0);
}

TEST_P(PolicyCallTimerTest, PlatformCountsEveryCall) {
  obs::PhaseProfiler profiler;
  platform::PlatformConfig config;
  config.observer.profiler = &profiler;
  const auto policy = policies::make_policy(GetParam());
  (void)platform::PlatformSimulator(deployment_, trace_, config).run(*policy);
  EXPECT_EQ(profiler.stats(Phase::kSchedule).calls, arrival_minutes(0, trace_.duration()));
  EXPECT_EQ(profiler.stats(Phase::kOptimize).calls,
            static_cast<std::uint64_t>(trace_.duration()));
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, PolicyCallTimerTest,
                         ::testing::ValuesIn(policies::policy_names()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace pulse::sim
