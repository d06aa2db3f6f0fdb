// Serving hot path: once the stream is warm, OnlineServer must not touch
// the heap. An OnlineServer fed by a ReplaySource runs a day of a 12-function
// workload; no operator new may run in the second half of the event stream.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>

#include "memory/heap_counter.hpp"
#include "policies/factory.hpp"
#include "serve/server.hpp"
#include "serve/source.hpp"
#include "trace/workload.hpp"

namespace pulse::serve {
namespace {

class SteadyStateAllocation : public ::testing::TestWithParam<const char*> {};

TEST_P(SteadyStateAllocation, SecondHalfOfStreamAllocatesNothing) {
  trace::WorkloadConfig wconfig;
  wconfig.function_count = 12;
  wconfig.duration = trace::kMinutesPerDay;
  wconfig.seed = 42;
  const trace::Trace trace = trace::build_azure_like_workload(wconfig).trace;
  const models::ModelZoo zoo = models::ModelZoo::builtin();
  const sim::Deployment deployment = sim::Deployment::round_robin(zoo, trace.function_count());

  const auto policy = policies::make_policy(GetParam());
  ServeConfig config;
  config.horizon = trace.duration();
  OnlineServer server(deployment, *policy, config);
  ReplaySource source(trace);

  // One tick per minute plus at most one invocation event per invocation.
  const std::uint64_t expected_events =
      static_cast<std::uint64_t>(trace.duration()) + trace.total_invocations();
  std::uint64_t seen = 0;
  std::uint64_t steady_events = 0;
  std::uint64_t allocations_at_half = 0;
  StreamEvent event;
  while (source.next(event)) {
    if (seen * 2 >= expected_events) {
      if (steady_events++ == 0) allocations_at_half = testutil::heap_counts().allocations;
    }
    server.ingest(event);
    ++seen;
    if (event.kind == EventKind::kEnd) break;
  }
  const std::uint64_t steady_allocations =
      testutil::heap_counts().allocations - allocations_at_half;

  ASSERT_GT(steady_events, 1000u) << "the stream never reached its second half";
  EXPECT_EQ(steady_allocations, 0u)
      << steady_allocations << " heap allocations in " << steady_events
      << " steady-state events";
  EXPECT_GT(server.finish().invocations, 0u);
}

// The two Figure 8 integrations run PULSE's shared layer on top of Wild and
// IceBreaker; wild+pulse runs its window pass over windows of up to 240
// minutes. milp is left out: it builds a fresh knapsack on every solve.
INSTANTIATE_TEST_SUITE_P(Policies, SteadyStateAllocation,
                         ::testing::Values("pulse", "wild", "icebreaker", "wild+pulse",
                                           "icebreaker+pulse"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           // gtest names allow only [A-Za-z0-9_].
                           std::string name(info.param);
                           std::replace(name.begin(), name.end(), '+', '_');
                           return name;
                         });

}  // namespace
}  // namespace pulse::serve
