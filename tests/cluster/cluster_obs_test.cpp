// Observability through the sharded engine: per-shard registries merged
// after the pool joins must equal the sum of the shards' own snapshots,
// kRebalance events must match the market's trade log, and the threaded
// run must be clean under TSan (this binary runs in the gcc-tsan CI job).

#include <gtest/gtest.h>

#include <cstdint>

#include "cluster/cluster_engine.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/profiler.hpp"
#include "obs/trace_sink.hpp"
#include "policies/factory.hpp"
#include "trace/workload.hpp"

namespace pulse::cluster {
namespace {

struct ObservedRun {
  obs::RingBufferSink sink{1 << 17};
  obs::MetricsRegistry registry;
  obs::PhaseProfiler profiler;
  ClusterResult result;
};

void run_observed(ObservedRun& run, std::size_t shards, std::size_t threads) {
  trace::WorkloadConfig wc;
  wc.function_count = 48;
  wc.duration = 720;
  wc.seed = 21;
  const trace::Workload workload = trace::build_azure_like_workload(wc);
  const models::ModelZoo zoo = models::ModelZoo::builtin();
  const sim::Deployment deployment = sim::Deployment::round_robin(zoo, wc.function_count);

  ClusterConfig cc;
  cc.shards = shards;
  cc.threads = threads;
  cc.engine.seed = 9;
  cc.engine.memory_capacity_mb = deployment.peak_highest_memory_mb() * 0.30;
  cc.engine.faults.crash_rate = 0.02;
  cc.engine.faults.cold_start_failure_rate = 0.05;
  cc.engine.observer.sink = &run.sink;
  cc.engine.observer.metrics = &run.registry;
  cc.engine.observer.profiler = &run.profiler;
  ClusterEngine cluster(deployment, workload.trace, cc);
  run.result = cluster.run([] { return policies::make_policy("pulse"); });
}

TEST(ClusterObservability, MergedRegistryEqualsShardSums) {
  ObservedRun run;
  run_observed(run, 4, 0);
  const ClusterResult& r = run.result;
  const sim::RunTotals totals = r.totals();

  const obs::MetricsSnapshot merged = run.registry.snapshot();
  EXPECT_EQ(merged.counter_or("engine.invocations"), totals.invocations);
  EXPECT_EQ(merged.counter_or("engine.cold_starts"), totals.cold_starts);
  EXPECT_EQ(merged.counter_or("engine.warm_starts"), totals.warm_starts);
  EXPECT_EQ(merged.counter_or("engine.capacity_evictions"), totals.capacity_evictions);
  EXPECT_EQ(merged.counter_or("cluster.transfers"), r.transfers);
  EXPECT_EQ(merged.counter_or("cluster.rebalance_epochs"), r.rebalance_epochs);
  EXPECT_DOUBLE_EQ(merged.gauge_or("cluster.shards"), 4.0);
  EXPECT_DOUBLE_EQ(merged.gauge_or("cluster.quota_moved_mb"), r.quota_moved_mb);
  // The result carries the same snapshot.
  EXPECT_EQ(r.metrics.counter_or("engine.invocations"), totals.invocations);

  // The profiler merged one kSimulate span per shard per epoch slice; at
  // minimum every shard contributed once.
  EXPECT_GE(run.profiler.stats(obs::Phase::kSimulate).calls, 4u);
}

TEST(ClusterObservability, RebalanceEventsMatchTheTradeLog) {
  ObservedRun run;
  run_observed(run, 4, 0);
  const ClusterResult& r = run.result;
  ASSERT_GT(r.rebalance_epochs, 0u);
  // The fixture's tight band + tight capacity guarantee real trades, so
  // the per-event assertions below actually run.
  ASSERT_GT(r.transfers, 0u);

  std::uint64_t rebalances = 0;
  double moved = 0.0;
  for (const obs::TraceEvent& e : run.sink.events()) {
    if (e.type != obs::EventType::kRebalance) continue;
    ++rebalances;
    moved += e.value;
    ASSERT_NE(e.function, obs::TraceEvent::kNoFunction);
    EXPECT_LT(e.function, 4u);                    // recipient shard
    EXPECT_GE(e.variant, 0);                      // donor shard
    EXPECT_LT(e.variant, 4);
    EXPECT_NE(static_cast<std::size_t>(e.variant), e.function);
    EXPECT_GT(e.value, 0.0);
    EXPECT_STREQ(e.detail, "quota_transfer");
  }
  EXPECT_EQ(rebalances, r.transfers);
  EXPECT_NEAR(moved, r.quota_moved_mb, 1e-9 * (1.0 + r.quota_moved_mb));
  // The shared ring buffer was large enough to keep every event.
  EXPECT_EQ(run.sink.dropped(), 0u);
}

// TSan target: shards step concurrently while sharing the sink; per-shard
// registries/profilers are single-writer and merged after the join. The
// assertions double as a smoke check that the threaded path produces the
// same aggregates as the single-threaded one.
TEST(ClusterObservability, ThreadedRunMatchesSingleThreaded) {
  ObservedRun threaded;
  run_observed(threaded, 4, 4);
  ObservedRun single;
  run_observed(single, 4, 1);

  EXPECT_EQ(threaded.result.totals().invocations, single.result.totals().invocations);
  EXPECT_EQ(threaded.result.transfers, single.result.transfers);
  EXPECT_EQ(threaded.sink.recorded(), single.sink.recorded());
  EXPECT_EQ(threaded.registry.snapshot().counter_or("engine.invocations"),
            single.registry.snapshot().counter_or("engine.invocations"));
}

}  // namespace
}  // namespace pulse::cluster
