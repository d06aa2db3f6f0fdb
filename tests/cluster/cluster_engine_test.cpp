// ClusterEngine contracts: a one-shard cluster reproduces SimulationEngine
// bit for bit on the golden-fixture configurations; multi-shard runs are
// deterministic for any thread count; fault counters and aggregates are
// plain sums over shards; the capacity market conserves the cluster total.

#include "cluster/cluster_engine.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "policies/factory.hpp"
#include "support/fingerprint.hpp"
#include "trace/workload.hpp"

namespace pulse::cluster {
namespace {

using testutil::fingerprint;

struct Fixture {
  trace::Workload workload;
  models::ModelZoo zoo;
  sim::Deployment deployment;
};

Fixture make_fixture(std::size_t functions, trace::Minute duration, std::uint64_t seed) {
  trace::WorkloadConfig wc;
  wc.function_count = functions;
  wc.duration = duration;
  wc.seed = seed;
  Fixture fx{trace::build_azure_like_workload(wc), models::ModelZoo::builtin(), {}};
  fx.deployment = sim::Deployment::round_robin(fx.zoo, functions);
  return fx;
}

// The golden-fixture engine configuration from tests/sim/determinism_test.cpp.
sim::EngineConfig golden_config(const sim::Deployment& deployment, std::uint64_t seed,
                                bool faults) {
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
  return config;
}

TEST(ClusterEngine, SingleShardBitwiseMatchesSimulationEngine) {
  struct Case {
    const char* policy;
    std::uint64_t seed;
    bool faults;
  };
  constexpr Case kCases[] = {
      {"pulse", 101, false}, {"pulse", 202, true}, {"openwhisk", 202, true},
  };
  for (const Case& c : kCases) {
    SCOPED_TRACE(std::string(c.policy) + (c.faults ? " faults" : " no-faults"));
    const Fixture fx = make_fixture(16, 1440, c.seed);
    const sim::EngineConfig config = golden_config(fx.deployment, c.seed, c.faults);

    sim::SimulationEngine engine(fx.deployment, fx.workload.trace, config);
    auto policy = policies::make_policy(c.policy);
    const sim::RunResult direct = engine.run(*policy);

    ClusterConfig cc;
    cc.shards = 1;
    cc.engine = config;
    ClusterEngine cluster(fx.deployment, fx.workload.trace, cc);
    const ClusterResult result =
        cluster.run([&] { return policies::make_policy(c.policy); });

    ASSERT_EQ(result.shards.size(), 1u);
    EXPECT_EQ(fingerprint(result.shards[0]), fingerprint(direct));
    EXPECT_EQ(result.rebalance_epochs, 0u);
    EXPECT_EQ(result.transfers, 0u);
  }
}

ClusterResult run_cluster(const Fixture& fx, std::size_t shards, std::size_t threads,
                          const char* policy) {
  ClusterConfig cc;
  cc.shards = shards;
  cc.threads = threads;
  cc.engine = golden_config(fx.deployment, 77, true);
  cc.engine.record_series = false;  // keep the multi-shard runs lean
  cc.engine.record_service_samples = false;
  ClusterEngine cluster(fx.deployment, fx.workload.trace, cc);
  return cluster.run([&] { return policies::make_policy(policy); });
}

TEST(ClusterEngine, MultiShardIdenticalAcrossThreadCounts) {
  const Fixture fx = make_fixture(48, 720, 7);
  const ClusterResult one = run_cluster(fx, 4, 1, "pulse");
  const ClusterResult two = run_cluster(fx, 4, 2, "pulse");
  const ClusterResult many = run_cluster(fx, 4, 0, "pulse");

  ASSERT_EQ(one.shards.size(), 4u);
  for (std::size_t s = 0; s < 4; ++s) {
    EXPECT_EQ(fingerprint(two.shards[s]), fingerprint(one.shards[s])) << "shard " << s;
    EXPECT_EQ(fingerprint(many.shards[s]), fingerprint(one.shards[s])) << "shard " << s;
  }
  EXPECT_EQ(two.transfers, one.transfers);
  EXPECT_EQ(many.transfers, one.transfers);
  EXPECT_EQ(two.quota_moved_mb, one.quota_moved_mb);
  for (std::size_t s = 0; s < 4; ++s) {
    EXPECT_EQ(two.final_quota_mb[s], one.final_quota_mb[s]) << "shard " << s;
  }
}

TEST(ClusterEngine, AggregatesAreSumsOverShards) {
  const Fixture fx = make_fixture(48, 720, 7);
  const ClusterResult r = run_cluster(fx, 4, 0, "pulse");

  // Field by field, in shard order, so the doubles must match bit for bit.
  double service = 0.0, cost = 0.0, accuracy = 0.0;
  std::uint64_t invocations = 0, warm = 0, cold = 0, downgrades = 0;
  sim::FaultCounters faults;
  for (const sim::RunResult& shard : r.shards) {
    service += shard.total_service_time_s;
    cost += shard.total_keepalive_cost_usd;
    accuracy += shard.accuracy_pct_sum;
    invocations += shard.invocations;
    warm += shard.warm_starts;
    cold += shard.cold_starts;
    downgrades += shard.downgrades;
    faults.failed_invocations += shard.failed_invocations;
    faults.retries += shard.retries;
    faults.timeouts += shard.timeouts;
    faults.crash_evictions += shard.crash_evictions;
    faults.capacity_evictions += shard.capacity_evictions;
    faults.degraded_minutes += shard.degraded_minutes;
    faults.guard_incidents += shard.guard_incidents;
  }
  const sim::RunTotals totals = r.totals();
  EXPECT_EQ(totals.total_service_time_s, service);
  EXPECT_EQ(r.total_keepalive_cost_usd(), cost);
  EXPECT_EQ(totals.accuracy_pct_sum, accuracy);
  EXPECT_EQ(totals.invocations, invocations);
  EXPECT_EQ(totals.warm_starts, warm);
  EXPECT_EQ(totals.cold_starts, cold);
  EXPECT_EQ(totals.downgrades, downgrades);
  EXPECT_EQ(totals.fault_counters(), faults);
  EXPECT_GT(totals.invocations, 0u);
  EXPECT_GT(totals.capacity_evictions, 0u);
}

TEST(ClusterEngine, MarketConservesClusterCapacity) {
  const Fixture fx = make_fixture(48, 720, 7);
  const ClusterResult r = run_cluster(fx, 4, 0, "openwhisk");

  ASSERT_EQ(r.final_quota_mb.size(), 4u);
  EXPECT_GT(r.rebalance_epochs, 0u);
  // The fixed-point total reconstructs the configured capacity to within
  // one rounding unit per shard.
  const double capacity = fx.deployment.peak_highest_memory_mb() * 0.35;
  EXPECT_NEAR(r.total_quota_mb, capacity, 4.0 / 1024.0);
  // And the final per-shard quotas sum to the conserved total exactly.
  double sum = 0.0;
  for (const double q : r.final_quota_mb) sum += q;
  EXPECT_DOUBLE_EQ(sum, r.total_quota_mb);
}

TEST(ClusterEngine, ZeroCapacityDisablesTheMarket) {
  const Fixture fx = make_fixture(24, 360, 3);
  ClusterConfig cc;
  cc.shards = 3;
  cc.engine.memory_capacity_mb = 0.0;
  ClusterEngine cluster(fx.deployment, fx.workload.trace, cc);
  const ClusterResult r = cluster.run([] { return policies::make_policy("pulse"); });
  EXPECT_TRUE(r.final_quota_mb.empty());
  EXPECT_EQ(r.transfers, 0u);
  EXPECT_EQ(r.total_quota_mb, 0.0);
  EXPECT_EQ(r.totals().capacity_evictions, 0u);
}

TEST(ClusterEngine, RejectsInvalidConfigs) {
  const Fixture fx = make_fixture(8, 60, 1);
  ClusterConfig zero_shards;
  zero_shards.shards = 0;
  EXPECT_THROW(ClusterEngine(fx.deployment, fx.workload.trace, zero_shards),
               std::invalid_argument);

  ClusterConfig bad_market;
  bad_market.market.high_watermark = 0.1;
  EXPECT_THROW(ClusterEngine(fx.deployment, fx.workload.trace, bad_market),
               std::invalid_argument);

  const sim::Deployment mismatched = sim::Deployment::round_robin(fx.zoo, 4);
  EXPECT_THROW(ClusterEngine(mismatched, fx.workload.trace, ClusterConfig{}),
               std::invalid_argument);
}

}  // namespace
}  // namespace pulse::cluster
