// Shard-count invariance of the per-function streams (the seed-derivation
// fix): every latency sample and Bernoulli accuracy draw comes from the
// function's own stream, keyed by (seed, global function id) and consumed
// in serving order, and every fault decision is a pure function of (seed,
// global function id, coordinates), so a per-function policy must produce
// the same aggregate behaviour whether the catalog runs in 1, 4, or 16
// shards.
//
// Scope: memory capacity is off (capacity eviction is a cross-function
// interaction that quota partitioning changes by design) and the policy is
// per-function only ("pulse-individual" — the global optimizer couples
// functions through shard-local peaks). degraded_minutes is also excluded:
// it counts shard-minutes with faults, which legitimately grows with the
// shard count when one minute degrades on several shards at once.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "cluster/cluster_engine.hpp"
#include "policies/factory.hpp"
#include "trace/workload.hpp"

namespace pulse::cluster {
namespace {

ClusterResult run_shards(std::size_t shards) {
  trace::WorkloadConfig wc;
  wc.function_count = 64;
  wc.duration = 720;
  wc.seed = 13;
  const trace::Workload workload = trace::build_azure_like_workload(wc);
  const models::ModelZoo zoo = models::ModelZoo::builtin();
  const sim::Deployment deployment = sim::Deployment::round_robin(zoo, wc.function_count);

  ClusterConfig cc;
  cc.shards = shards;
  cc.engine.seed = 2024;
  cc.engine.bernoulli_accuracy = true;
  cc.engine.memory_capacity_mb = 0.0;
  cc.engine.faults.crash_rate = 0.03;
  cc.engine.faults.cold_start_failure_rate = 0.10;
  cc.engine.faults.slo_multiplier = 3.0;
  ClusterEngine cluster(deployment, workload.trace, cc);
  return cluster.run([] { return policies::make_policy("pulse-individual"); });
}

TEST(SeedDerivation, AggregatesInvariantAcrossShardCounts) {
  const ClusterResult one = run_shards(1);
  const ClusterResult four = run_shards(4);
  const ClusterResult sixteen = run_shards(16);

  const sim::RunTotals b = one.totals();
  ASSERT_GT(b.invocations, 0u);
  ASSERT_GT(b.retries, 0u);  // faults actually fired

  for (const ClusterResult* r : {&four, &sixteen}) {
    // Integer tallies: exactly equal — every per-function outcome is keyed
    // on the global function id, so partitioning cannot move a single one.
    const sim::RunTotals a = r->totals();
    EXPECT_EQ(a.invocations, b.invocations);
    EXPECT_EQ(a.warm_starts, b.warm_starts);
    EXPECT_EQ(a.cold_starts, b.cold_starts);
    EXPECT_EQ(a.failed_invocations, b.failed_invocations);
    EXPECT_EQ(a.retries, b.retries);
    EXPECT_EQ(a.timeouts, b.timeouts);
    EXPECT_EQ(a.crash_evictions, b.crash_evictions);
    EXPECT_EQ(a.capacity_evictions, b.capacity_evictions);

    // Accuracy credits are sums of exact 0/100 doubles — order-independent.
    EXPECT_DOUBLE_EQ(a.accuracy_pct_sum, b.accuracy_pct_sum);

    // Floating sums accumulate in shard order; identical terms, different
    // grouping — equal to tight relative tolerance.
    EXPECT_NEAR(a.total_service_time_s, b.total_service_time_s,
                std::abs(b.total_service_time_s) * 1e-9);
    EXPECT_NEAR(r->total_keepalive_cost_usd(), one.total_keepalive_cost_usd(),
                std::abs(one.total_keepalive_cost_usd()) * 1e-9);
  }
}

// The other half of the contract: the keyed streams must still vary by
// function and produce work (a hash stuck at one value would also pass the
// invariance test above).
TEST(SeedDerivation, HashedRunsDifferBySeed) {
  trace::WorkloadConfig wc;
  wc.function_count = 16;
  wc.duration = 360;
  wc.seed = 5;
  const trace::Workload workload = trace::build_azure_like_workload(wc);
  const models::ModelZoo zoo = models::ModelZoo::builtin();
  const sim::Deployment deployment = sim::Deployment::round_robin(zoo, wc.function_count);

  auto run_with_seed = [&](std::uint64_t seed) {
    ClusterConfig cc;
    cc.shards = 2;
    cc.engine.seed = seed;
    cc.engine.faults.seed = seed;  // fault draws key on their own seed
    cc.engine.faults.cold_start_failure_rate = 0.15;
    ClusterEngine cluster(deployment, workload.trace, cc);
    return cluster.run([] { return policies::make_policy("openwhisk"); });
  };
  const ClusterResult a = run_with_seed(1);
  const ClusterResult b = run_with_seed(2);
  // Different seeds re-key every fault draw: the retry/failure pattern moves.
  EXPECT_NE(a.totals().retries, b.totals().retries);
}

}  // namespace
}  // namespace pulse::cluster
