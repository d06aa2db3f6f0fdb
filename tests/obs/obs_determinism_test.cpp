// The observability layer's core contract: attaching any combination of
// sink (attached to the engine or through a caller's EventCollector lane) /
// metrics / profiler / top-K tallies leaves the simulation result bitwise
// identical.
// Mirrors the golden-fixture engine configuration (capacity pressure +
// fault injection) across every policy family that emits events.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/collector.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/profiler.hpp"
#include "obs/trace_sink.hpp"
#include "policies/factory.hpp"
#include "sim/engine.hpp"
#include "support/fingerprint.hpp"
#include "trace/workload.hpp"

namespace pulse::obs {
namespace {

using testutil::fingerprint;

sim::RunResult run_once(const char* policy_name, std::uint64_t seed, bool faults,
                        const Observer& observer, std::size_t top_k = 0) {
  trace::WorkloadConfig wc;
  wc.function_count = 16;
  wc.duration = 1440;
  wc.seed = seed;
  const trace::Workload workload = trace::build_azure_like_workload(wc);

  const models::ModelZoo zoo = models::ModelZoo::builtin();
  const sim::Deployment deployment = sim::Deployment::round_robin(zoo, wc.function_count);

  sim::EngineConfig config;
  config.seed = seed * 7919 + 17;
  config.record_series = true;
  config.record_per_function = true;
  config.record_service_samples = true;
  config.bernoulli_accuracy = true;
  config.memory_capacity_mb = deployment.peak_highest_memory_mb() * 0.35;
  if (faults) {
    config.faults.crash_rate = 0.02;
    config.faults.cold_start_failure_rate = 0.10;
    config.faults.slo_multiplier = 3.0;
    config.faults.memory_pressure_rate = 0.05;
    config.faults.memory_pressure_capacity_mb = deployment.peak_highest_memory_mb() * 0.25;
  }
  config.observer = observer;
  config.top_k_function_metrics = top_k;

  sim::SimulationEngine engine(deployment, workload.trace, config);
  auto policy = policies::make_policy(policy_name);
  return engine.run(*policy);
}

struct Case {
  const char* policy;
  std::uint64_t seed;
  bool faults;
};

constexpr Case kCases[] = {
    {"pulse", 101, false},   {"pulse", 202, true},           {"milp", 101, true},
    {"wild+pulse", 202, false}, {"icebreaker+pulse", 101, false}, {"openwhisk", 202, true},
};

TEST(ObsDeterminism, FullObserverLeavesRunResultBitwiseIdentical) {
  for (const Case& c : kCases) {
    SCOPED_TRACE(c.policy);
    const sim::RunResult plain = run_once(c.policy, c.seed, c.faults, Observer{});

    RingBufferSink sink(1 << 16);
    MetricsRegistry registry;
    PhaseProfiler profiler;
    Observer observer;
    observer.sink = &sink;
    observer.metrics = &registry;
    observer.profiler = &profiler;
    const sim::RunResult observed = run_once(c.policy, c.seed, c.faults, observer);

    EXPECT_EQ(fingerprint(plain), fingerprint(observed));
    // And the observed run actually observed something.
    EXPECT_GT(sink.recorded(), 0u);
    EXPECT_GT(registry.metric_count(), 0u);
    EXPECT_EQ(profiler.stats(Phase::kSimulate).calls, 1u);

    // Everything on, the way the ensemble and cluster runners attach it:
    // events through an EventCollector lane, metrics, profiler and the
    // top-K per-function tallies.
    RingBufferSink lane_sink(1 << 16);
    MetricsRegistry full_registry;
    PhaseProfiler full_profiler;
    EventCollector collector(lane_sink, 1);
    Observer full;
    full.sink = &collector.lane(0);
    full.metrics = &full_registry;
    full.profiler = &full_profiler;
    const sim::RunResult everything = run_once(c.policy, c.seed, c.faults, full, 8);
    collector.finish();

    EXPECT_EQ(fingerprint(plain), fingerprint(everything));
    EXPECT_EQ(lane_sink.recorded(), sink.recorded());
    EXPECT_GT(full_registry.metric_count(), registry.metric_count());
  }
}

TEST(ObsDeterminism, EachComponentAloneIsAlsoIdentical) {
  const Case c{"pulse", 202, true};
  const std::uint64_t plain = fingerprint(run_once(c.policy, c.seed, c.faults, Observer{}));

  {
    RingBufferSink sink(1 << 16);
    Observer o;
    o.sink = &sink;
    EXPECT_EQ(plain, fingerprint(run_once(c.policy, c.seed, c.faults, o)));
  }
  {
    MetricsRegistry registry;
    Observer o;
    o.metrics = &registry;
    EXPECT_EQ(plain, fingerprint(run_once(c.policy, c.seed, c.faults, o)));
  }
  {
    PhaseProfiler profiler;
    Observer o;
    o.profiler = &profiler;
    EXPECT_EQ(plain, fingerprint(run_once(c.policy, c.seed, c.faults, o)));
  }
}

TEST(ObsDeterminism, EngineCountersMatchRunResult) {
  MetricsRegistry registry;
  Observer observer;
  observer.metrics = &registry;
  const sim::RunResult r = run_once("pulse", 101, true, observer);

  const MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counter_or("engine.invocations"), r.invocations);
  EXPECT_EQ(snap.counter_or("engine.cold_starts"), r.cold_starts);
  EXPECT_EQ(snap.counter_or("engine.warm_starts"), r.warm_starts);
  EXPECT_EQ(snap.counter_or("engine.downgrades"), r.downgrades);
  EXPECT_EQ(snap.counter_or("engine.capacity_evictions"), r.capacity_evictions);
  EXPECT_EQ(snap.counter_or("engine.crash_evictions"), r.crash_evictions);
  EXPECT_EQ(snap.counter_or("engine.retries"), r.retries);
  EXPECT_EQ(snap.counter_or("engine.timeouts"), r.timeouts);
  // The RunResult carries the same snapshot.
  EXPECT_EQ(r.metrics.counter_or("engine.invocations"), r.invocations);
}

TEST(ObsDeterminism, TopKFunctionCountersMatchPerFunctionTallies) {
  trace::WorkloadConfig wc;
  wc.function_count = 16;
  wc.duration = 1440;
  wc.seed = 101;
  const trace::Workload workload = trace::build_azure_like_workload(wc);
  const models::ModelZoo zoo = models::ModelZoo::builtin();
  const sim::Deployment deployment = sim::Deployment::round_robin(zoo, wc.function_count);

  constexpr std::size_t kTopK = 4;
  MetricsRegistry registry;
  sim::EngineConfig config;
  config.seed = 404;
  config.record_per_function = true;
  config.top_k_function_metrics = kTopK;
  config.observer.metrics = &registry;

  sim::SimulationEngine engine(deployment, workload.trace, config);
  auto policy = policies::make_policy("pulse");
  const sim::RunResult r = engine.run(*policy);

  // Collect the folded engine.topk.cold_starts.<gid> counters.
  const MetricsSnapshot snap = registry.snapshot();
  constexpr std::string_view kPrefix = "engine.topk.cold_starts.";
  std::vector<std::pair<trace::FunctionId, std::uint64_t>> reported;
  for (const auto& [name, value] : snap.counters) {
    if (name.rfind(kPrefix, 0) == 0) {
      reported.emplace_back(std::stoul(name.substr(kPrefix.size())), value);
    }
  }
  ASSERT_LE(reported.size(), kTopK);
  ASSERT_FALSE(reported.empty());

  // Every reported value matches the per-function breakdown exactly...
  std::uint64_t floor = UINT64_MAX;
  for (const auto& [gid, count] : reported) {
    ASSERT_LT(gid, r.per_function.size());
    EXPECT_EQ(count, r.per_function[gid].cold_starts) << "function " << gid;
    floor = std::min(floor, count);
  }
  // ...and no unreported function beats the reported minimum (top-K really
  // is the top K).
  for (trace::FunctionId f = 0; f < r.per_function.size(); ++f) {
    bool in_report = false;
    for (const auto& [gid, count] : reported) in_report |= gid == f;
    if (!in_report) {
      EXPECT_LE(r.per_function[f].cold_starts, floor) << "function " << f;
    }
  }
}

TEST(ObsDeterminism, TopKTalliesLeaveRunResultIdentical) {
  const Case c{"pulse", 101, true};
  const std::uint64_t plain = fingerprint(run_once(c.policy, c.seed, c.faults, Observer{}));

  MetricsRegistry registry;
  Observer o;
  o.metrics = &registry;
  // The tallies are write-only side arrays: enabling them (top_k > 0 with a
  // registry attached) must not perturb the simulation.
  EXPECT_EQ(plain, fingerprint(run_once(c.policy, c.seed, c.faults, o, /*top_k=*/4)));
  EXPECT_GT(registry.snapshot().counter_or("engine.topk.cold_starts.0", 0) +
                registry.metric_count(),
            0u);
}

TEST(ObsDeterminism, SinkSeesTheRunsEventMix) {
  RingBufferSink sink(1 << 16);
  Observer observer;
  observer.sink = &sink;
  const sim::RunResult r = run_once("pulse", 202, true, observer);

  const std::vector<std::uint64_t> counts = sink.counts_by_type();
  const auto count = [&](EventType t) { return counts.at(static_cast<std::size_t>(t)); };
  // One warm/cold event per minute-with-invocations, so > 0 but <= the
  // invocation total; evictions and downgrades match the result exactly.
  EXPECT_GT(count(EventType::kColdStart) + count(EventType::kWarmStart), 0u);
  EXPECT_LE(count(EventType::kColdStart) + count(EventType::kWarmStart), r.invocations);
  EXPECT_EQ(count(EventType::kEviction), r.capacity_evictions);
  EXPECT_EQ(count(EventType::kCrashEviction), r.crash_evictions);
  EXPECT_EQ(count(EventType::kDowngrade), r.downgrades);
}

}  // namespace
}  // namespace pulse::obs
