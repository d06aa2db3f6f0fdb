// Platform-layer fault/capacity/observability parity with the minute
// engine, plus regression tests for the platform accounting bugfix sweep
// (stale scale-out variants, free pre-warms, shared latency rng streams)
// and the engine's share of those per-function streams.
//
// The central invariant: both layers derive every fault decision from the
// same hash-seeded fault::FaultInjector, so on a low-concurrency trace
// (counts <= 1, inter-arrival gaps >= 2 minutes, executions far below a
// minute) the two simulations must report *identical* fault counters and
// the same keep-alive cost.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "fault/diverging_policy.hpp"
#include "fault/guarded_policy.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/profiler.hpp"
#include "obs/trace_sink.hpp"
#include "platform/platform.hpp"
#include "policies/factory.hpp"
#include "policies/fixed_keepalive.hpp"
#include "sim/engine.hpp"
#include "trace/workload.hpp"

namespace pulse::platform {
namespace {

/// One family with round numbers: warm 2 s, cold penalty 8 s.
models::ModelZoo test_zoo() {
  models::ModelZoo zoo;
  zoo.add_family(models::ModelFamily(
      "Test", "t", "d",
      {models::ModelVariant{"low", 1.0, 4.0, 70.0, 100.0},
       models::ModelVariant{"high", 2.0, 8.0, 90.0, 300.0}}));
  return zoo;
}

/// Low-concurrency parity trace: one invocation at a time, per-function
/// inter-arrival gaps of at least 7 minutes, so container-granular and
/// minute-granular execution see exactly the same warm/cold pattern.
trace::Trace parity_trace(trace::FunctionId functions, trace::Minute duration) {
  trace::Trace t(functions, duration);
  constexpr int kGaps[] = {7, 11, 13, 17, 19, 23};
  for (trace::FunctionId f = 0; f < functions; ++f) {
    const int gap = kGaps[f % (sizeof(kGaps) / sizeof(kGaps[0]))];
    for (trace::Minute m = static_cast<trace::Minute>(f) + 1; m < duration; m += gap) {
      t.set_count(f, m, 1);
    }
  }
  return t;
}

fault::FaultConfig parity_faults() {
  fault::FaultConfig faults;
  faults.crash_rate = 0.10;
  faults.cold_start_failure_rate = 0.20;
  faults.max_cold_start_retries = 2;
  faults.retry_backoff_base_s = 0.6;
  // Cold SLO = 1.05 * 10 s = 10.5 s: any retried cold start (penalty
  // >= 0.6 s) overshoots it, so timeouts fire deterministically.
  faults.slo_multiplier = 1.05;
  faults.memory_pressure_rate = 0.15;
  faults.memory_pressure_capacity_mb = 350.0;
  return faults;
}

TEST(PlatformFaultParity, CountersAndCostMatchMinuteEngine) {
  const auto zoo = test_zoo();
  const auto d = sim::Deployment::round_robin(zoo, 4);
  const trace::Trace t = parity_trace(4, 500);
  const fault::FaultConfig faults = parity_faults();

  // Both runs observed: the kernel's events and fault counters must match
  // too, not only the results.
  obs::RingBufferSink minute_sink(1 << 16);
  obs::RingBufferSink platform_sink(1 << 16);
  obs::MetricsRegistry minute_metrics;
  obs::MetricsRegistry platform_metrics;

  // One run description, copied into both frames; only the observers differ.
  sim::RunConfig run;
  run.deterministic_latency = true;
  run.seed = 5;
  run.faults = faults;
  run.memory_capacity_mb = 650.0;

  sim::EngineConfig econfig{run};
  econfig.observer = {&minute_sink, &minute_metrics};
  sim::SimulationEngine engine(d, t, econfig);
  policies::FixedKeepAlivePolicy minute_policy;
  const sim::RunResult minute = engine.run(minute_policy);

  PlatformConfig pconfig{run};
  pconfig.observer = {&platform_sink, &platform_metrics};
  PlatformSimulator platform(d, t, pconfig);
  policies::FixedKeepAlivePolicy platform_policy;
  const PlatformResult container = platform.run(platform_policy);

  // The faults must actually have fired for this test to mean anything.
  EXPECT_GT(container.crash_evictions, 0u);
  EXPECT_GT(container.retries, 0u);
  EXPECT_GT(container.failed_invocations, 0u);
  EXPECT_GT(container.timeouts, 0u);
  EXPECT_GT(container.capacity_evictions, 0u);
  EXPECT_GT(container.degraded_minutes, 0u);

  // Identical fault counters: one shared struct, one comparison.
  EXPECT_EQ(minute.fault_counters(), container.fault_counters());

  // And identical serving behaviour on the low-concurrency trace.
  EXPECT_EQ(container.invocations, minute.invocations);
  EXPECT_EQ(container.cold_starts, minute.cold_starts);
  EXPECT_EQ(container.warm_starts, minute.warm_starts);
  EXPECT_EQ(container.scale_out_cold_starts, 0u);
  EXPECT_DOUBLE_EQ(container.total_service_time_s, minute.total_service_time_s);
  EXPECT_DOUBLE_EQ(container.accuracy_pct_sum, minute.accuracy_pct_sum);

  // Cost: same container residency, accumulated per-container instead of
  // per-minute, so allow only floating-point regrouping error.
  EXPECT_NEAR(container.total_cost_usd, minute.total_keepalive_cost_usd,
              1e-9 * minute.total_keepalive_cost_usd);

  // The events sim::MinuteKernel emits form one sequence on both layers,
  // in order and field for field.
  const auto kernel_events = [](const obs::RingBufferSink& sink) {
    EXPECT_EQ(sink.dropped(), 0u);
    std::vector<std::tuple<obs::EventType, trace::Minute, trace::FunctionId, std::int32_t,
                           double, std::string>>
        out;
    for (const obs::TraceEvent& e : sink.events()) {
      if (e.type == obs::EventType::kFault || e.type == obs::EventType::kCrashEviction ||
          e.type == obs::EventType::kEviction || e.type == obs::EventType::kCapacityPressure) {
        out.emplace_back(e.type, e.minute, e.function, e.variant, e.value, e.detail);
      }
    }
    return out;
  };
  const auto minute_events = kernel_events(minute_sink);
  EXPECT_FALSE(minute_events.empty());
  EXPECT_EQ(kernel_events(platform_sink), minute_events);

  // The seven fault counters fold under engine.* and platform.* alike.
  const obs::MetricsSnapshot ms = minute_metrics.snapshot();
  const obs::MetricsSnapshot ps = platform_metrics.snapshot();
  for (const char* name : {"failed_invocations", "retries", "timeouts", "crash_evictions",
                           "capacity_evictions", "degraded_minutes", "guard_incidents"}) {
    const std::string engine_name = std::string("engine.") + name;
    const std::string platform_name = std::string("platform.") + name;
    EXPECT_EQ(ps.counter_or(platform_name, ~0ULL), ms.counter_or(engine_name, ~1ULL)) << name;
  }
  EXPECT_EQ(ms.counter_or("engine.capacity_evictions"), minute.capacity_evictions);
}

TEST(PlatformFaultParity, ZeroRateFaultConfigAndCapacityIsIdentity) {
  // A zero-rate injector and no capacity limit must be observationally
  // absent: bitwise-identical PlatformResult, jitter included.
  const auto zoo = test_zoo();
  const auto d = sim::Deployment::round_robin(zoo, 3);
  const trace::Trace t = parity_trace(3, 300);

  PlatformConfig plain;
  plain.seed = 9;
  plain.record_series = true;

  PlatformConfig zeroed = plain;
  zeroed.faults = fault::FaultConfig{};  // all rates zero
  zeroed.faults.seed = 0xabcdef;         // seed alone must not matter
  zeroed.memory_capacity_mb = 0.0;

  policies::FixedKeepAlivePolicy p1;
  policies::FixedKeepAlivePolicy p2;
  const PlatformResult a = PlatformSimulator(d, t, plain).run(p1);
  const PlatformResult b = PlatformSimulator(d, t, zeroed).run(p2);

  EXPECT_EQ(a.invocations, b.invocations);
  EXPECT_EQ(a.cold_starts, b.cold_starts);
  EXPECT_EQ(a.warm_starts, b.warm_starts);
  EXPECT_EQ(a.containers_created, b.containers_created);
  EXPECT_EQ(a.prewarm_starts, b.prewarm_starts);
  EXPECT_EQ(a.fault_counters(), b.fault_counters());
  EXPECT_DOUBLE_EQ(a.total_service_time_s, b.total_service_time_s);
  EXPECT_DOUBLE_EQ(a.total_cost_usd, b.total_cost_usd);
  EXPECT_DOUBLE_EQ(a.accuracy_pct_sum, b.accuracy_pct_sum);
  EXPECT_EQ(a.memory_mb, b.memory_mb);
}

TEST(PlatformObservability, AttachedObserverNeverChangesResults) {
  const auto zoo = test_zoo();
  const auto d = sim::Deployment::round_robin(zoo, 3);
  const trace::Trace t = parity_trace(3, 300);

  PlatformConfig config;
  config.seed = 7;
  config.faults = parity_faults();
  config.memory_capacity_mb = 650.0;

  for (const char* name : {"openwhisk", "pulse"}) {
    SCOPED_TRACE(name);
    const auto p1 = policies::make_policy(name);
    const PlatformResult plain = PlatformSimulator(d, t, config).run(*p1);

    obs::RingBufferSink sink(4096);
    obs::MetricsRegistry registry;
    obs::PhaseProfiler profiler;
    PlatformConfig observed = config;
    observed.observer.sink = &sink;
    observed.observer.metrics = &registry;
    observed.observer.profiler = &profiler;
    const auto p2 = policies::make_policy(name);
    const PlatformResult traced = PlatformSimulator(d, t, observed).run(*p2);

    // The layer observes, it never steers: every result field, bit for bit.
    EXPECT_EQ(plain.invocations, traced.invocations);
    EXPECT_EQ(plain.cold_starts, traced.cold_starts);
    EXPECT_EQ(plain.warm_starts, traced.warm_starts);
    EXPECT_EQ(plain.scale_out_cold_starts, traced.scale_out_cold_starts);
    EXPECT_EQ(plain.prewarm_starts, traced.prewarm_starts);
    EXPECT_EQ(plain.containers_created, traced.containers_created);
    EXPECT_EQ(plain.downgrades, traced.downgrades);
    EXPECT_EQ(plain.fault_counters(), traced.fault_counters());
    EXPECT_EQ(plain.total_service_time_s, traced.total_service_time_s);
    EXPECT_EQ(plain.total_cost_usd, traced.total_cost_usd);
    EXPECT_EQ(plain.accuracy_pct_sum, traced.accuracy_pct_sum);

    // And it actually observed: events flowed, metrics folded, the run span
    // was profiled, and the snapshot landed in the result.
    EXPECT_GT(sink.recorded(), 0u);
    EXPECT_EQ(profiler.stats(obs::Phase::kSimulate).calls, 1u);
    EXPECT_TRUE(plain.metrics.empty());
    ASSERT_FALSE(traced.metrics.empty());
    EXPECT_EQ(traced.metrics.counter_or("platform.invocations"), traced.invocations);
    EXPECT_EQ(traced.metrics.counter_or("platform.prewarm_starts"), traced.prewarm_starts);
    EXPECT_EQ(traced.metrics.counter_or("platform.crash_evictions"),
              traced.crash_evictions);
    EXPECT_EQ(traced.metrics.counter_or("platform.capacity_evictions"),
              traced.capacity_evictions);
  }
}

TEST(PlatformCapacity, EvictionsKeepKeptMemoryUnderTheLimit) {
  const auto zoo = test_zoo();
  const auto d = sim::Deployment::round_robin(zoo, 4);
  const trace::Trace t = parity_trace(4, 400);

  PlatformConfig config;
  config.deterministic_latency = true;
  config.record_series = true;
  config.memory_capacity_mb = 650.0;  // fixed-high keeps 4 x 300 MB otherwise

  PlatformSimulator platform(d, t, config);
  policies::FixedKeepAlivePolicy policy;
  const PlatformResult r = platform.run(policy);

  EXPECT_GT(r.capacity_evictions, 0u);
  for (std::size_t m = 0; m < r.memory_mb.size(); ++m) {
    EXPECT_LE(r.memory_mb[m], 650.0) << "minute " << m;
  }
}

/// Schedules `first_minute_variant` for minute 0 and `rest_variant` for
/// every later minute; cold-starts on the family's highest variant.
class PinnedSchedulePolicy : public sim::KeepAlivePolicy {
 public:
  PinnedSchedulePolicy(int first, int rest, trace::Minute rest_from = 1)
      : first_(first), rest_(rest), rest_from_(rest_from) {}
  [[nodiscard]] std::string name() const override { return "pinned"; }
  void initialize(const sim::Deployment& deployment, const trace::Trace& trace,
                  sim::KeepAliveSchedule& schedule) override {
    (void)deployment;
    for (trace::FunctionId f = 0; f < trace.function_count(); ++f) {
      schedule.fill(f, 0, 1, first_);
      schedule.fill(f, rest_from_, trace.duration(), rest_);
    }
  }
  void on_invocation(trace::FunctionId, trace::Minute, sim::KeepAliveSchedule&) override {}

 private:
  int first_;
  int rest_;
  trace::Minute rest_from_;
};

TEST(PlatformBugfix, ScaleOutServesScheduledVariantNotPoolFront) {
  // Regression for the stale scale-out variant: after the schedule
  // downgrades to the low variant, a scale-out must serve the *scheduled*
  // variant even while a busy high-variant container sits at the front of
  // the pool (swap-remove reap order put it there).
  models::ModelZoo zoo;
  zoo.add_family(models::ModelFamily(
      "Two", "t", "d",
      {models::ModelVariant{"low", 2.0, 4.0, 70.0, 100.0},
       models::ModelVariant{"high", 70.0, 5.0, 95.0, 300.0}}));
  const auto d = sim::Deployment::round_robin(zoo, 1);
  trace::Trace t(1, 5);
  t.set_count(0, 0, 1);
  t.set_count(0, 1, 2);

  PlatformConfig config;
  config.deterministic_latency = true;
  PlatformSimulator sim(d, t, config);
  PinnedSchedulePolicy policy(/*first=*/1, /*rest=*/0);
  const PlatformResult r = sim.run(policy);

  // Minute 0: the pre-warm is provisioning, so the arrival scales out on
  // the scheduled high variant (95%), busy across the minute boundary.
  // Minute 1: the schedule says low; the first arrival finds high busy and
  // the fresh low pre-warm still provisioning -> scale-out must serve LOW
  // (70%), not the stale high container at the pool front. The second
  // arrival reuses the now-idle high container (95%).
  EXPECT_DOUBLE_EQ(r.accuracy_pct_sum, 95.0 + 70.0 + 95.0);
  EXPECT_EQ(r.cold_starts, 2u);
  EXPECT_EQ(r.warm_starts, 1u);
}

TEST(PlatformBugfix, PrewarmPaysColdStartProvisioning) {
  // Regression for free pre-warms: a reconcile-time pre-warm is busy until
  // its variant's cold start completes, so an arrival inside the
  // provisioning window still pays a (scale-out) cold start, and the
  // pre-warm is counted.
  const auto zoo = test_zoo();
  const auto d = sim::Deployment::round_robin(zoo, 1);
  trace::Trace t(1, 8);
  t.set_count(0, 3, 1);
  t.set_count(0, 5, 1);

  PlatformConfig config;
  config.deterministic_latency = true;
  PlatformSimulator sim(d, t, config);
  // Schedule the high variant starting exactly at the first arrival's
  // minute, so the arrival lands inside the pre-warm's provisioning window.
  PinnedSchedulePolicy policy(/*first=*/sim::kNoVariant, /*rest=*/1, /*rest_from=*/3);
  const PlatformResult r = sim.run(policy);

  EXPECT_EQ(r.prewarm_starts, 1u);
  EXPECT_EQ(r.cold_starts, 1u);  // the minute-3 arrival, 8 s into provisioning
  EXPECT_EQ(r.scale_out_cold_starts, 1u);
  EXPECT_EQ(r.warm_starts, 1u);  // the minute-5 arrival
  EXPECT_EQ(r.containers_created, 2u);

  // Provisioning accounting: the pre-warm (spawned at minute 3, retired by
  // the minute-4 reconcile in favour of the scale-out copy) is charged like
  // any other container residency.
  EXPECT_GT(r.total_cost_usd, 0.0);
}

TEST(PlatformBugfix, LatencyJitterStreamsArePerFunction) {
  // Regression for rng stream hygiene: function 0's samples must not
  // depend on what other functions do. With per-function hashed streams,
  // a combined two-function run decomposes exactly into the two
  // single-function runs; the old shared stream interleaved the draws and
  // broke this additivity.
  const auto zoo = test_zoo();
  PlatformConfig config;
  config.seed = 42;  // jittered: deterministic_latency stays false

  trace::Trace both(2, 120);
  trace::Trace only_a(1, 120);
  trace::Trace only_b(2, 120);  // function 1 alone, at its combined-run id
  for (trace::Minute m = 1; m < 120; m += 4) {
    both.set_count(0, m, 1);
    only_a.set_count(0, m, 1);
  }
  for (trace::Minute m = 3; m < 120; m += 6) {
    both.set_count(1, m, 1);
    only_b.set_count(1, m, 1);
  }

  const auto d2 = sim::Deployment::round_robin(zoo, 2);
  const auto d1 = sim::Deployment::round_robin(zoo, 1);
  policies::FixedKeepAlivePolicy pab, pa, pb;
  const PlatformResult ab = PlatformSimulator(d2, both, config).run(pab);
  const PlatformResult a = PlatformSimulator(d1, only_a, config).run(pa);
  const PlatformResult b = PlatformSimulator(d2, only_b, config).run(pb);

  EXPECT_EQ(ab.invocations, a.invocations + b.invocations);
  EXPECT_EQ(ab.cold_starts, a.cold_starts + b.cold_starts);
  EXPECT_NEAR(ab.total_service_time_s, a.total_service_time_s + b.total_service_time_s,
              1e-9 * ab.total_service_time_s);
}

TEST(PlatformBugfix, LatencyJitterFixture) {
  // Pinned fixture for the per-function jitter streams: guards the exact
  // sample sequence against accidental stream reshuffles.
  const auto zoo = test_zoo();
  const auto d = sim::Deployment::round_robin(zoo, 2);
  trace::Trace t(2, 120);
  for (trace::Minute m = 1; m < 120; m += 4) t.set_count(0, m, 1);
  for (trace::Minute m = 3; m < 120; m += 6) t.set_count(1, m, 1);

  PlatformConfig config;
  config.seed = 42;
  PlatformSimulator sim(d, t, config);
  policies::FixedKeepAlivePolicy policy;
  const PlatformResult r = sim.run(policy);

  EXPECT_EQ(r.invocations, 50u);
  EXPECT_NEAR(r.total_service_time_s, 117.32861586228506, 1e-6 * r.total_service_time_s);
  EXPECT_NEAR(r.total_cost_usd, 0.14042, 1e-6 * r.total_cost_usd);
}

TEST(PlatformBugfix, JitterMatchesMinuteEngineOnSparseTrace) {
  // LatencyJitterFixture's trace: no concurrency, so both layers serve the
  // same cold/warm sequence, and both draw each function's jitter from its
  // own stream in serving order — the same samples, summed in the same
  // (minute, function) order.
  const auto zoo = test_zoo();
  const auto d = sim::Deployment::round_robin(zoo, 2);
  trace::Trace t(2, 120);
  for (trace::Minute m = 1; m < 120; m += 4) t.set_count(0, m, 1);
  for (trace::Minute m = 3; m < 120; m += 6) t.set_count(1, m, 1);

  PlatformConfig config;
  config.seed = 42;
  policies::FixedKeepAlivePolicy platform_policy;
  const PlatformResult p = PlatformSimulator(d, t, config).run(platform_policy);

  sim::EngineConfig engine_config;
  engine_config.seed = 42;
  policies::FixedKeepAlivePolicy engine_policy;
  const sim::RunResult e = sim::SimulationEngine(d, t, engine_config).run(engine_policy);

  ASSERT_EQ(e.cold_starts, p.cold_starts);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(e.total_service_time_s),
            std::bit_cast<std::uint64_t>(p.total_service_time_s))
      << e.total_service_time_s << " vs " << p.total_service_time_s;
}

/// Throws from end_of_minute once the trace passes minute 5.
class ExplodingPolicy : public sim::KeepAlivePolicy {
 public:
  [[nodiscard]] std::string name() const override { return "exploding"; }
  void on_invocation(trace::FunctionId f, trace::Minute t,
                     sim::KeepAliveSchedule& schedule) override {
    schedule.fill(f, t + 1, t + 3, 0);
  }
  void end_of_minute(trace::Minute t, sim::KeepAliveSchedule&,
                     const sim::MemoryHistory&) override {
    if (t >= 5) throw std::runtime_error("solver exploded");
  }
};

TEST(PlatformGuardedPolicy, GuardAbsorbsIncidentsOnThePlatformPath) {
  const auto zoo = test_zoo();
  const auto d = sim::Deployment::round_robin(zoo, 2);
  const trace::Trace t = parity_trace(2, 200);

  PlatformConfig config;
  config.deterministic_latency = true;
  PlatformSimulator sim(d, t, config);
  fault::GuardedPolicy guarded(std::make_unique<ExplodingPolicy>());
  const PlatformResult r = sim.run(guarded);

  // The run completes with honest metrics; the guard tripped and reported.
  EXPECT_EQ(r.invocations, t.total_invocations());
  EXPECT_TRUE(guarded.degraded());
  EXPECT_GE(r.guard_incidents, 1u);
  EXPECT_EQ(r.guard_incidents, guarded.incident_count());
}

// sim::MinuteKernel::finish folds one sim::RunTotals per run and publishes
// it as `<prefix>.*`. On both frames, with every counter non-zero (faults,
// a capacity, downgrades before a guarded divergence), each published value
// must equal the matching field of the returned result.
void expect_fold_matches(const obs::MetricsSnapshot& s, const std::string& prefix,
                         const sim::RunTotals& r) {
  EXPECT_EQ(s.counter_or(prefix + ".runs"), 1u) << prefix;
  const std::pair<const char*, std::uint64_t> counters[] = {
      {"invocations", r.invocations},
      {"warm_starts", r.warm_starts},
      {"cold_starts", r.cold_starts},
      {"downgrades", r.downgrades},
      {"failed_invocations", r.failed_invocations},
      {"retries", r.retries},
      {"timeouts", r.timeouts},
      {"crash_evictions", r.crash_evictions},
      {"capacity_evictions", r.capacity_evictions},
      {"degraded_minutes", r.degraded_minutes},
      {"guard_incidents", r.guard_incidents},
  };
  for (const auto& [name, value] : counters) {
    const std::string key = prefix + "." + name;
    EXPECT_GT(value, 0u) << key << " must fire for the check to mean anything";
    EXPECT_EQ(s.counter_or(key, ~0ULL), value) << key;
  }
  EXPECT_GT(r.total_service_time_s, 0.0);
  EXPECT_EQ(s.gauge_or(prefix + ".service_time_s", -1.0), r.total_service_time_s) << prefix;
}

TEST(KernelFold, PublishedCountersEqualReturnedTotalsOnBothFrames) {
  trace::WorkloadConfig wc;
  wc.function_count = 24;
  wc.duration = 720;
  wc.seed = 11;
  const trace::Workload workload = trace::build_azure_like_workload(wc);
  const models::ModelZoo zoo = models::ModelZoo::builtin();
  const auto d = sim::Deployment::round_robin(zoo, wc.function_count);
  const double capacity_mb = d.peak_highest_memory_mb() * 0.3;
  fault::DivergingPolicy::Config diverge;
  diverge.diverge_at = 480;
  const auto guarded = [&] {
    return fault::GuardedPolicy(
        std::make_unique<fault::DivergingPolicy>(policies::make_policy("pulse"), diverge));
  };

  sim::RunConfig run;
  run.seed = 3;
  run.faults = parity_faults();
  run.memory_capacity_mb = capacity_mb;

  obs::MetricsRegistry engine_metrics;
  sim::EngineConfig econfig{run};
  econfig.observer.metrics = &engine_metrics;
  sim::SimulationEngine engine(d, workload.trace, econfig);
  fault::GuardedPolicy engine_policy = guarded();
  const sim::RunResult minute = engine.run(engine_policy);
  expect_fold_matches(engine_metrics.snapshot(), "engine", minute);

  obs::MetricsRegistry platform_metrics;
  PlatformConfig pconfig{run};
  pconfig.observer.metrics = &platform_metrics;
  PlatformSimulator platform(d, workload.trace, pconfig);
  fault::GuardedPolicy platform_policy = guarded();
  const PlatformResult container = platform.run(platform_policy);
  expect_fold_matches(platform_metrics.snapshot(), "platform", container);
}

TEST(PlatformEnsemble, ThreadedRunsAreDeterministicAndMergeable) {
  // Ensemble-style use: several PlatformSimulators with fault injection on
  // separate threads, each with its own metrics registry (the engine
  // ensemble's per-slot pattern), merged after the join. TSan runs this in
  // CI; the merged counters must be thread-count invariant.
  const auto zoo = test_zoo();
  const auto d = sim::Deployment::round_robin(zoo, 4);
  const trace::Trace t = parity_trace(4, 300);

  PlatformConfig config;
  config.deterministic_latency = true;
  config.faults = parity_faults();
  config.memory_capacity_mb = 650.0;

  policies::FixedKeepAlivePolicy ref_policy;
  const PlatformResult reference = PlatformSimulator(d, t, config).run(ref_policy);

  constexpr std::size_t kThreads = 4;
  std::vector<PlatformResult> results(kThreads);
  std::vector<obs::MetricsRegistry> registries(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      PlatformConfig local = config;
      local.observer.metrics = &registries[i];
      PlatformSimulator sim(d, t, local);
      policies::FixedKeepAlivePolicy policy;
      results[i] = sim.run(policy);
    });
  }
  for (auto& th : threads) th.join();

  obs::MetricsRegistry merged;
  for (const auto& reg : registries) merged.merge(reg);
  const obs::MetricsSnapshot snapshot = merged.snapshot();

  for (const PlatformResult& r : results) {
    EXPECT_EQ(r.invocations, reference.invocations);
    EXPECT_EQ(r.fault_counters(), reference.fault_counters());
    EXPECT_DOUBLE_EQ(r.total_service_time_s, reference.total_service_time_s);
    EXPECT_DOUBLE_EQ(r.total_cost_usd, reference.total_cost_usd);
  }
  EXPECT_EQ(snapshot.counter_or("platform.runs"), kThreads);
  EXPECT_EQ(snapshot.counter_or("platform.invocations"),
            kThreads * reference.invocations);
  EXPECT_EQ(snapshot.counter_or("platform.crash_evictions"),
            kThreads * reference.crash_evictions);
}

}  // namespace
}  // namespace pulse::platform
