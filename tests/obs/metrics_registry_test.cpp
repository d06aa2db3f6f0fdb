// MetricsRegistry and PhaseProfiler behaviour, plus the ensemble's
// per-slot aggregation: counter totals must be exact and independent of
// the thread count (no locks in the hot path — each worker slot owns its
// registry and the merge happens after the pool joins).

#include "obs/metrics_registry.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/profiler.hpp"
#include "policies/factory.hpp"
#include "sim/ensemble.hpp"
#include "trace/workload.hpp"

namespace pulse::obs {
namespace {

TEST(MetricsRegistry, CreatesOnFirstUseWithStableAddresses) {
  MetricsRegistry registry;
  Counter& c1 = registry.counter("a.hits");
  c1.add(3);
  Counter& c2 = registry.counter("a.hits");
  EXPECT_EQ(&c1, &c2);
  EXPECT_EQ(c2.value(), 3u);

  Counter& other = registry.counter("b.hits");
  EXPECT_NE(&c1, &other);
  EXPECT_EQ(other.value(), 0u);
  EXPECT_EQ(registry.metric_count(), 2u);
}

TEST(MetricsRegistry, GaugeOperations) {
  MetricsRegistry registry;
  Gauge& g = registry.gauge("engine.peak_mb");
  g.set(10.0);
  g.max_with(7.0);
  EXPECT_DOUBLE_EQ(g.value(), 10.0);
  g.max_with(12.5);
  EXPECT_DOUBLE_EQ(g.value(), 12.5);
  g.add(0.5);
  EXPECT_DOUBLE_EQ(g.value(), 13.0);
}

TEST(MetricsRegistry, SnapshotIsSortedAndQueryable) {
  MetricsRegistry registry;
  registry.counter("z.last").add(1);
  registry.counter("a.first").add(2);
  registry.gauge("m.cost").set(4.5);
  registry.histogram("h.gaps", 16).add(3, 10);

  const MetricsSnapshot snap = registry.snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].first, "a.first");
  EXPECT_EQ(snap.counters[1].first, "z.last");
  EXPECT_EQ(snap.counter_or("a.first"), 2u);
  EXPECT_EQ(snap.counter_or("missing", 99), 99u);
  EXPECT_DOUBLE_EQ(snap.gauge_or("m.cost"), 4.5);
  EXPECT_DOUBLE_EQ(snap.gauge_or("missing", -1.0), -1.0);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].second.total, 10u);
  EXPECT_EQ(snap.histograms[0].second.p50, 3u);
  EXPECT_FALSE(snap.empty());
  EXPECT_TRUE(MetricsSnapshot{}.empty());
}

TEST(MetricsRegistry, MergeSumsEverything) {
  MetricsRegistry a;
  a.counter("hits").add(2);
  a.gauge("cost").set(1.5);
  a.histogram("gaps", 8).add(2, 4);

  MetricsRegistry b;
  b.counter("hits").add(5);
  b.counter("only_in_b").add(1);
  b.gauge("cost").set(2.5);
  b.histogram("gaps", 8).add(5, 4);

  a.merge(b);
  const MetricsSnapshot snap = a.snapshot();
  EXPECT_EQ(snap.counter_or("hits"), 7u);
  EXPECT_EQ(snap.counter_or("only_in_b"), 1u);
  EXPECT_DOUBLE_EQ(snap.gauge_or("cost"), 4.0);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].second.total, 8u);
}

TEST(MetricsRegistry, MaxGaugesMergeByMaximumNotSum) {
  // Regression: peak gauges (engine.peak_keepalive_memory_mb) used to be
  // summed across ensemble slots by merge(), reporting a "peak" no single
  // run ever reached. GaugeMerge::kMax merges them as a maximum.
  MetricsRegistry a;
  a.gauge("peak_mb", GaugeMerge::kMax).set(10.0);
  a.gauge("cost").set(1.0);

  MetricsRegistry b;
  b.gauge("peak_mb", GaugeMerge::kMax).set(7.0);
  b.gauge("cost").set(2.0);

  MetricsRegistry c;
  c.gauge("peak_mb", GaugeMerge::kMax).set(12.5);

  a.merge(b);
  a.merge(c);
  const MetricsSnapshot snap = a.snapshot();
  EXPECT_DOUBLE_EQ(snap.gauge_or("peak_mb"), 12.5);  // max, not 29.5
  EXPECT_DOUBLE_EQ(snap.gauge_or("cost"), 3.0);      // kSum default unchanged
}

TEST(MetricsRegistry, MergeAdoptsTheSourceGaugeMode) {
  // The destination may never have seen the gauge (ensemble slots register
  // it, the user's registry starts empty): merging must carry the mode so
  // a later merge still maxes.
  MetricsRegistry user;
  MetricsRegistry slot1;
  slot1.gauge("peak_mb", GaugeMerge::kMax).set(8.0);
  MetricsRegistry slot2;
  slot2.gauge("peak_mb", GaugeMerge::kMax).set(5.0);

  user.merge(slot1);
  user.merge(slot2);
  EXPECT_DOUBLE_EQ(user.snapshot().gauge_or("peak_mb"), 8.0);
}

// --- handle bundles (the pre-resolved hot-path metrics API) ---

TEST(MetricsHandles, UnboundHandlesAreInertNoOps) {
  CounterHandle counter;
  GaugeHandle gauge;
  HistogramHandle histogram;
  counter.add();
  counter.add(5);
  gauge.add(1.5);
  histogram.record(3);
  EXPECT_FALSE(counter.bound());
  EXPECT_FALSE(gauge.bound());
  EXPECT_FALSE(histogram.bound());
  SUCCEED();  // the disabled path: no registry, no crash, no effect
}

TEST(MetricsHandles, CounterAddsStraightIntoTheRegistry) {
  MetricsRegistry registry;
  CounterHandle h;
  h.bind(registry, "engine.cold_starts");
  EXPECT_TRUE(h.bound());
  // Binding registers the name at zero.
  EXPECT_EQ(registry.snapshot().counter_or("engine.cold_starts", 99), 0u);
  h.add();
  // Every add is visible at once: there is no pending state to flush.
  EXPECT_EQ(registry.snapshot().counter_or("engine.cold_starts"), 1u);
  h.add(4);
  EXPECT_EQ(registry.snapshot().counter_or("engine.cold_starts"), 5u);
  // The handle and a by-name lookup share one counter.
  registry.counter("engine.cold_starts").add(2);
  h.add();
  EXPECT_EQ(registry.snapshot().counter_or("engine.cold_starts"), 8u);
}

TEST(MetricsHandles, GaugeHandleAddsToASumGauge) {
  MetricsRegistry registry;
  GaugeHandle sum;
  sum.bind(registry, "cost_usd");
  sum.add(1.5);
  EXPECT_DOUBLE_EQ(registry.snapshot().gauge_or("cost_usd"), 1.5);
  sum.add(2.5);
  EXPECT_DOUBLE_EQ(registry.snapshot().gauge_or("cost_usd"), 4.0);
  // The bound gauge is kSum, so per-slot registries add on merge.
  MetricsRegistry other;
  other.gauge("cost_usd").add(3.0);
  registry.merge(other);
  EXPECT_DOUBLE_EQ(registry.snapshot().gauge_or("cost_usd"), 7.0);
}

TEST(MetricsHandles, HistogramHandleRecordsDirectly) {
  MetricsRegistry registry;
  HistogramHandle h;
  h.bind(registry, "gaps", 32);
  h.record(3);
  h.record(3, 4);
  const MetricsSnapshot snap = registry.snapshot();
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].second.total, 5u);
  EXPECT_EQ(snap.histograms[0].second.p50, 3u);
}

TEST(MetricsRegistry, ClearEmptiesTheRegistry) {
  MetricsRegistry registry;
  registry.counter("x").add(1);
  registry.clear();
  EXPECT_EQ(registry.metric_count(), 0u);
  EXPECT_TRUE(registry.snapshot().empty());
}

// --- PhaseProfiler ---

TEST(PhaseProfiler, RecordAndStats) {
  PhaseProfiler profiler;
  profiler.record(Phase::kPredict, 0.5);
  profiler.record(Phase::kPredict, 1.5);
  const PhaseStats& s = profiler.stats(Phase::kPredict);
  EXPECT_EQ(s.calls, 2u);
  EXPECT_DOUBLE_EQ(s.total_s, 2.0);
  EXPECT_DOUBLE_EQ(s.mean_s(), 1.0);
  EXPECT_EQ(profiler.stats(Phase::kOptimize).calls, 0u);
}

TEST(PhaseProfiler, MergeSumsPerPhase) {
  PhaseProfiler a, b;
  a.record(Phase::kSchedule, 1.0);
  b.record(Phase::kSchedule, 2.0);
  b.record(Phase::kSimulate, 4.0);
  a.merge(b);
  EXPECT_EQ(a.stats(Phase::kSchedule).calls, 2u);
  EXPECT_DOUBLE_EQ(a.stats(Phase::kSchedule).total_s, 3.0);
  EXPECT_DOUBLE_EQ(a.stats(Phase::kSimulate).total_s, 4.0);
}

TEST(PhaseProfiler, TimerRecordsOneCall) {
  PhaseProfiler profiler;
  { const PhaseTimer timer(&profiler, Phase::kPredict); }
  EXPECT_EQ(profiler.stats(Phase::kPredict).calls, 1u);
  EXPECT_GE(profiler.stats(Phase::kPredict).total_s, 0.0);
}

TEST(PhaseProfiler, NullProfilerTimerIsInert) {
  // Must not crash or record anywhere; this is the disabled hot path.
  { const PhaseTimer timer(nullptr, Phase::kSimulate); }
  SUCCEED();
}

TEST(PhaseProfiler, PhaseNames) {
  EXPECT_STREQ(to_string(Phase::kPredict), "predict");
  EXPECT_STREQ(to_string(Phase::kOptimize), "optimize");
  EXPECT_STREQ(to_string(Phase::kSchedule), "schedule");
  EXPECT_STREQ(to_string(Phase::kSimulate), "simulate");
}

// --- Ensemble aggregation ---

sim::EnsembleResult run_observed_ensemble(std::size_t threads, MetricsRegistry& registry,
                                          PhaseProfiler& profiler) {
  trace::WorkloadConfig wc;
  wc.function_count = 10;
  wc.duration = 360;
  wc.seed = 5;
  const trace::Workload workload = trace::build_azure_like_workload(wc);
  const models::ModelZoo zoo = models::ModelZoo::builtin();

  sim::EnsembleConfig config;
  config.runs = 8;
  config.seed = 21;
  config.threads = threads;
  config.engine.observer.metrics = &registry;
  config.engine.observer.profiler = &profiler;
  return sim::run_ensemble(zoo, workload.trace,
                           [] { return policies::make_policy("pulse"); }, config);
}

TEST(EnsembleObservability, CounterTotalsAreThreadCountInvariant) {
  std::vector<MetricsSnapshot> snapshots;
  std::vector<std::uint64_t> schedule_calls;
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    MetricsRegistry registry;
    PhaseProfiler profiler;
    const sim::EnsembleResult result = run_observed_ensemble(threads, registry, profiler);
    EXPECT_FALSE(result.metrics.empty());
    snapshots.push_back(result.metrics);
    schedule_calls.push_back(profiler.stats(Phase::kSchedule).calls);
  }

  // Integer totals merge associatively, so any thread count yields the
  // same counters (gauges are float sums — diagnostics, not compared).
  ASSERT_EQ(snapshots[0].counters.size(), snapshots[1].counters.size());
  for (std::size_t i = 0; i < snapshots[0].counters.size(); ++i) {
    EXPECT_EQ(snapshots[0].counters[i].first, snapshots[1].counters[i].first);
    EXPECT_EQ(snapshots[0].counters[i].second, snapshots[1].counters[i].second)
        << snapshots[0].counters[i].first;
  }
  // Profiler call counts are integers too: one per function-minute with
  // arrivals, regardless of which worker ran it.
  EXPECT_EQ(schedule_calls[0], schedule_calls[1]);
  EXPECT_GT(schedule_calls[0], 0u);
}

TEST(EnsembleObservability, CountersMatchSummedRunResults) {
  MetricsRegistry registry;
  PhaseProfiler profiler;
  const sim::EnsembleResult result = run_observed_ensemble(2, registry, profiler);

  std::uint64_t invocations = 0;
  std::uint64_t cold = 0;
  for (const sim::RunResult& r : result.runs) {
    invocations += r.invocations;
    cold += r.cold_starts;
  }
  EXPECT_EQ(result.metrics.counter_or("engine.invocations"), invocations);
  EXPECT_EQ(result.metrics.counter_or("engine.cold_starts"), cold);
  EXPECT_EQ(result.metrics.counter_or("engine.runs"), result.runs.size());
}

}  // namespace
}  // namespace pulse::obs
