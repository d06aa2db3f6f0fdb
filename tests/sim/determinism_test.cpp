// Bitwise determinism safety net for hot-path refactors.
//
// (a) Golden fixtures: the engine's RunResult on pinned seeds — with and
//     without fault injection, across every policy family that touches the
//     keep-alive schedule — must match the checked-in fingerprints
//     bit-for-bit. Any change to schedule bookkeeping, summation order, or
//     RNG consumption shows up here before it can silently shift paper
//     numbers.
// (b) Deterministic-latency fixtures: the same cases with every service
//     time at its expectation, on the engine and on the container
//     simulator. Nothing in them reads a latency draw.
// (c) Thread-count invariance: run_ensemble must produce identical results
//     for 1 thread, 4 threads, and hardware concurrency.
//
// Regenerating fixtures (only when an *intentional* behaviour change is
// made): run with PULSE_PRINT_GOLDEN=1 and paste the printed table into
// golden_fixtures.inc. Never regenerate to "fix" an optimization — an
// optimization must reproduce the old fingerprints exactly. Replacing the
// jitter sampler's algorithm (Box-Muller gave way to a ziggurat) is an
// intentional change to the draws: it may re-pin golden_fixtures.inc only
// while (b) stays bit-equal, which shows that nothing but the sampled
// service times moved. Likewise a deliberate change to one policy's model
// (IceBreaker's real-input refit and staggered refits) may re-pin that
// policy's rows of both tables only while every other row stays bit-equal.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "platform/platform.hpp"
#include "policies/factory.hpp"
#include "sim/engine.hpp"
#include "sim/ensemble.hpp"
#include "support/fingerprint.hpp"
#include "trace/workload.hpp"

namespace pulse::sim {
namespace {

using testutil::fingerprint;

struct GoldenCase {
  const char* policy;
  std::uint64_t seed;
  bool faults;
};

constexpr GoldenCase kCases[] = {
    {"pulse", 101, false},          {"pulse", 202, true},
    {"milp", 101, true},            {"wild+pulse", 202, false},
    {"icebreaker+pulse", 101, false}, {"openwhisk", 202, true},
};

struct GoldenExpectation {
  double total_service_time_s;
  double total_keepalive_cost_usd;
  std::uint64_t invocations;
  std::uint64_t capacity_evictions;
  std::uint64_t fingerprint;
};

constexpr GoldenExpectation kExpected[] = {
#include "golden_fixtures.inc"
};

/// The deployments point into it, so it outlives every case.
const models::ModelZoo& golden_zoo() {
  static const models::ModelZoo zoo = models::ModelZoo::builtin();
  return zoo;
}

/// One golden case's inputs, shared by the engine and the container
/// simulator.
struct GoldenSetup {
  trace::Workload workload;
  Deployment deployment;
  std::uint64_t seed = 0;
  double memory_capacity_mb = 0.0;
  fault::FaultConfig faults{};
};

GoldenSetup golden_setup(const GoldenCase& c) {
  trace::WorkloadConfig wc;
  wc.function_count = 16;
  wc.duration = 1440;  // one day is enough to exercise every code path
  wc.seed = c.seed;
  GoldenSetup s{trace::build_azure_like_workload(wc),
                Deployment::round_robin(golden_zoo(), wc.function_count)};
  s.seed = c.seed * 7919 + 17;
  // Tight enough that capacity eviction fires regularly.
  s.memory_capacity_mb = s.deployment.peak_highest_memory_mb() * 0.35;
  if (c.faults) {
    s.faults.crash_rate = 0.02;
    s.faults.cold_start_failure_rate = 0.10;
    s.faults.slo_multiplier = 3.0;
    s.faults.memory_pressure_rate = 0.05;
    s.faults.memory_pressure_capacity_mb = s.deployment.peak_highest_memory_mb() * 0.25;
  }
  return s;
}

RunResult golden_run(const GoldenCase& c, bool deterministic_latency = false) {
  const GoldenSetup s = golden_setup(c);
  EngineConfig config;
  config.seed = s.seed;
  config.record_series = true;
  config.record_per_function = true;
  config.record_service_samples = true;
  config.bernoulli_accuracy = true;
  config.deterministic_latency = deterministic_latency;
  config.memory_capacity_mb = s.memory_capacity_mb;
  config.faults = s.faults;

  SimulationEngine engine(s.deployment, s.workload.trace, config);
  auto policy = policies::make_policy(c.policy);
  return engine.run(*policy);
}

platform::PlatformResult golden_platform_run(const GoldenCase& c) {
  const GoldenSetup s = golden_setup(c);
  platform::PlatformConfig config;
  config.seed = s.seed;
  config.record_series = true;
  config.deterministic_latency = true;
  config.memory_capacity_mb = s.memory_capacity_mb;
  config.faults = s.faults;

  platform::PlatformSimulator sim(s.deployment, s.workload.trace, config);
  auto policy = policies::make_policy(c.policy);
  return sim.run(*policy);
}

TEST(GoldenFixtures, RunResultBitwiseStable) {
  const bool regen = std::getenv("PULSE_PRINT_GOLDEN") != nullptr;
  static_assert(std::size(kCases) == std::size(kExpected));
  for (std::size_t i = 0; i < std::size(kCases); ++i) {
    const GoldenCase& c = kCases[i];
    SCOPED_TRACE(std::string(c.policy) + " seed=" + std::to_string(c.seed) +
                 (c.faults ? " faults" : " no-faults"));
    const RunResult r = golden_run(c);
    if (regen) {
      std::printf("    {%a, %a, %lluu, %lluu, 0x%016llxULL},  // %s seed=%llu %s\n",
                  r.total_service_time_s, r.total_keepalive_cost_usd,
                  static_cast<unsigned long long>(r.invocations),
                  static_cast<unsigned long long>(r.capacity_evictions),
                  static_cast<unsigned long long>(fingerprint(r)), c.policy,
                  static_cast<unsigned long long>(c.seed), c.faults ? "faults" : "no-faults");
      continue;
    }
    const GoldenExpectation& e = kExpected[i];
    // Bitwise comparison: golden doubles must match to the last ULP.
    EXPECT_EQ(std::bit_cast<std::uint64_t>(r.total_service_time_s),
              std::bit_cast<std::uint64_t>(e.total_service_time_s));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(r.total_keepalive_cost_usd),
              std::bit_cast<std::uint64_t>(e.total_keepalive_cost_usd));
    EXPECT_EQ(r.invocations, e.invocations);
    EXPECT_EQ(r.capacity_evictions, e.capacity_evictions);
    EXPECT_EQ(fingerprint(r), e.fingerprint);
  }
}

struct DeterministicGolden {
  std::uint64_t engine;
  std::uint64_t platform;
};

constexpr DeterministicGolden kDeterministicExpected[] = {
#include "golden_deterministic_fixtures.inc"
};

TEST(GoldenFixtures, DeterministicLatencyBitwiseStable) {
  const bool regen = std::getenv("PULSE_PRINT_GOLDEN") != nullptr;
  static_assert(std::size(kCases) == std::size(kDeterministicExpected));
  for (std::size_t i = 0; i < std::size(kCases); ++i) {
    const GoldenCase& c = kCases[i];
    SCOPED_TRACE(std::string(c.policy) + " seed=" + std::to_string(c.seed) +
                 (c.faults ? " faults" : " no-faults"));
    const std::uint64_t engine = fingerprint(golden_run(c, /*deterministic_latency=*/true));
    const std::uint64_t platform = fingerprint(golden_platform_run(c));
    if (regen) {
      std::printf("    {0x%016llxULL, 0x%016llxULL},  // %s seed=%llu %s\n",
                  static_cast<unsigned long long>(engine),
                  static_cast<unsigned long long>(platform), c.policy,
                  static_cast<unsigned long long>(c.seed), c.faults ? "faults" : "no-faults");
      continue;
    }
    EXPECT_EQ(engine, kDeterministicExpected[i].engine);
    EXPECT_EQ(platform, kDeterministicExpected[i].platform);
  }
}

/// Ensemble results must not depend on the thread count (CP.2: runs share
/// nothing mutable; each owns its RNG streams).
TEST(Determinism, EnsembleIdenticalAcrossThreadCounts) {
  trace::WorkloadConfig wc;
  wc.function_count = 12;
  wc.duration = 720;
  wc.seed = 11;
  const trace::Workload workload = trace::build_azure_like_workload(wc);
  const models::ModelZoo zoo = models::ModelZoo::builtin();

  EnsembleConfig config;
  config.runs = 8;
  config.seed = 33;
  config.engine.memory_capacity_mb = 2000.0;
  config.engine.faults.crash_rate = 0.01;

  const auto factory = [] { return policies::make_policy("pulse"); };

  std::vector<EnsembleResult> results;
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}, std::size_t{0}}) {
    config.threads = threads;
    results.push_back(run_ensemble(zoo, workload.trace, factory, config));
  }

  for (std::size_t k = 1; k < results.size(); ++k) {
    ASSERT_EQ(results[k].runs.size(), results[0].runs.size());
    for (std::size_t i = 0; i < results[0].runs.size(); ++i) {
      EXPECT_EQ(fingerprint(results[k].runs[i]), fingerprint(results[0].runs[i]))
          << "thread-count variant " << k << ", run " << i;
    }
  }
}

}  // namespace
}  // namespace pulse::sim
