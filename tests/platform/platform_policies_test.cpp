// Every registered policy must survive container-granular execution with
// the same conservation invariants the minute engine guarantees.

#include <gtest/gtest.h>

#include <cctype>

#include "platform/platform.hpp"
#include "policies/factory.hpp"
#include "sim/cost_model.hpp"
#include "trace/workload.hpp"

namespace pulse::platform {
namespace {

class PlatformPolicySweep : public ::testing::TestWithParam<std::string> {};

TEST_P(PlatformPolicySweep, ConservationOnPlatform) {
  trace::WorkloadConfig wconfig;
  wconfig.function_count = 4;
  wconfig.duration = 300;
  const auto workload = trace::build_azure_like_workload(wconfig);
  const auto zoo = models::ModelZoo::builtin();
  const auto d = sim::Deployment::round_robin(zoo, 4);
  bool concurrent = false;  // the per-invocation failure path needs count > 1
  for (trace::FunctionId f = 0; f < 4; ++f) {
    for (trace::Minute t = 0; t < wconfig.duration; ++t) {
      concurrent = concurrent || workload.trace.count(f, t) > 1;
    }
  }
  ASSERT_TRUE(concurrent);

  PlatformConfig config;
  config.deterministic_latency = true;
  // The faulted input: cold starts fail per invocation on the platform, so
  // every arrival must end up served or failed, never both or neither.
  PlatformConfig faulted = config;
  faulted.seed = 3;
  faulted.faults.cold_start_failure_rate = 0.3;
  faulted.faults.max_cold_start_retries = 1;
  faulted.faults.crash_rate = 0.05;
  faulted.faults.slo_multiplier = 1.2;
  faulted.memory_capacity_mb = 0.5 * d.peak_highest_memory_mb();

  for (const PlatformConfig& input : {config, faulted}) {
    SCOPED_TRACE(input.faults.enabled() ? "faulted" : "fault-free");
    PlatformSimulator platform(d, workload.trace, input);
    const auto policy = policies::make_policy(GetParam());
    const PlatformResult r = platform.run(*policy);

    EXPECT_EQ(r.invocations + r.failed_invocations, workload.trace.total_invocations());
    EXPECT_EQ(r.failed_invocations > 0, input.faults.enabled());
    EXPECT_EQ(r.invocations, r.warm_starts + r.cold_starts);
    EXPECT_LE(r.scale_out_cold_starts, r.cold_starts);
    EXPECT_GE(r.containers_created, r.cold_starts);
    EXPECT_GE(r.total_service_time_s, 0.0);
    EXPECT_GE(r.total_cost_usd, 0.0);
    EXPECT_GE(r.average_accuracy_pct(), 50.0);
    EXPECT_LE(r.average_accuracy_pct(), 100.0);
    EXPECT_GE(r.peak_containers, 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, PlatformPolicySweep,
                         ::testing::ValuesIn(policies::policy_names()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
                           }
                           return name;
                         });

TEST(PlatformCostParity, NoKeepAliveMeansExecutionOnlyCost) {
  // The ideal policy keeps containers only during invocation minutes; the
  // platform's cost must therefore be close to pure execution residency.
  const auto zoo = models::ModelZoo::builtin();
  const auto d = sim::Deployment::round_robin(zoo, 1);
  trace::Trace t(1, 100);
  t.set_count(0, 50, 1);

  PlatformConfig config;
  config.deterministic_latency = true;
  PlatformSimulator platform(d, t, config);
  const auto ideal = policies::make_policy("ideal");
  const PlatformResult r = platform.run(*ideal);

  // One container, alive from its spawn at minute 50 until reaped at the
  // next reconciliation: about one minute of residency.
  const double upper =
      sim::keepalive_cost_usd(d.family_of(0).highest().memory_mb, 2.0);
  EXPECT_LE(r.total_cost_usd, upper);
  EXPECT_GT(r.total_cost_usd, 0.0);
}

}  // namespace
}  // namespace pulse::platform
