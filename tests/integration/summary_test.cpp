#include "exp/summary.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <numeric>
#include <vector>

#include "exp/figures.hpp"
#include "policies/factory.hpp"

namespace pulse::exp {
namespace {

Scenario small_scenario() {
  ScenarioConfig config;
  config.days = 1;
  config.function_count = 4;
  return make_scenario(config);
}

TEST(Summary, SummarizeMatchesEnsembleAggregates) {
  const Scenario s = small_scenario();
  sim::EnsembleConfig config;
  config.runs = 4;
  const sim::EnsembleResult ensemble = sim::run_ensemble(
      s.zoo, s.workload.trace, [] { return policies::make_policy("openwhisk"); }, config);
  const PolicySummary summary = summarize("openwhisk", ensemble);
  EXPECT_EQ(summary.policy, "openwhisk");
  EXPECT_EQ(summary.runs, 4u);
  EXPECT_DOUBLE_EQ(summary.keepalive_cost_usd, ensemble.mean_keepalive_cost_usd());
  EXPECT_DOUBLE_EQ(summary.service_time_s, ensemble.mean_service_time_s());
  EXPECT_DOUBLE_EQ(summary.accuracy_pct, ensemble.mean_accuracy_pct());
  EXPECT_DOUBLE_EQ(summary.warm_fraction, ensemble.mean_warm_fraction());
}

TEST(Summary, RunPolicyEnsembleIsSeedDeterministic) {
  const Scenario s = small_scenario();
  const PolicySummary a = run_policy_ensemble(s, "pulse", 3, /*seed=*/11);
  const PolicySummary b = run_policy_ensemble(s, "pulse", 3, /*seed=*/11);
  EXPECT_DOUBLE_EQ(a.keepalive_cost_usd, b.keepalive_cost_usd);
  EXPECT_DOUBLE_EQ(a.service_time_s, b.service_time_s);
}

TEST(Summary, DifferentSeedsDiffer) {
  const Scenario s = small_scenario();
  const PolicySummary a = run_policy_ensemble(s, "pulse", 3, /*seed=*/11);
  const PolicySummary b = run_policy_ensemble(s, "pulse", 3, /*seed=*/12);
  EXPECT_NE(a.keepalive_cost_usd, b.keepalive_cost_usd);
}

TEST(Summary, RunPolicySingleDeterministic) {
  const Scenario s = small_scenario();
  const sim::RunResult a = run_policy_single(s, "pulse", 5);
  const sim::RunResult b = run_policy_single(s, "pulse", 5);
  EXPECT_DOUBLE_EQ(a.total_keepalive_cost_usd, b.total_keepalive_cost_usd);
  EXPECT_EQ(a.downgrades, b.downgrades);
}

TEST(Summary, ImprovementSignConventions) {
  PolicySummary base;
  base.service_time_s = 100.0;
  base.keepalive_cost_usd = 10.0;
  base.accuracy_pct = 80.0;
  PolicySummary worse;
  worse.policy = "worse";
  worse.service_time_s = 120.0;   // slower -> negative improvement
  worse.keepalive_cost_usd = 12.0;  // pricier -> negative improvement
  worse.accuracy_pct = 84.0;      // more accurate -> positive change
  const ImprovementRow row = improvement_over(base, worse);
  EXPECT_LT(row.service_time_pct, 0.0);
  EXPECT_LT(row.keepalive_cost_pct, 0.0);
  EXPECT_GT(row.accuracy_pct, 0.0);
}

TEST(Summary, ScenarioHonoursConfig) {
  ScenarioConfig config;
  config.days = 2;
  config.function_count = 7;
  config.seed = 9;
  config.global_peaks = 3;
  const Scenario s = make_scenario(config);
  EXPECT_EQ(s.workload.trace.function_count(), 7u);
  EXPECT_EQ(s.workload.trace.duration(), 2 * trace::kMinutesPerDay);
  EXPECT_EQ(s.workload.peak_minutes.size(), 3u);
  EXPECT_EQ(s.config.seed, 9u);
}

TEST(Summary, BenchEnvOverrides) {
  ::setenv("PULSE_BENCH_RUNS", "17", 1);
  EXPECT_EQ(bench_ensemble_runs(100), 17u);
  ::setenv("PULSE_BENCH_RUNS", "garbage", 1);
  EXPECT_EQ(bench_ensemble_runs(100), 100u);
  ::setenv("PULSE_BENCH_RUNS", "-3", 1);
  EXPECT_EQ(bench_ensemble_runs(100), 100u);
  ::unsetenv("PULSE_BENCH_RUNS");
  EXPECT_EQ(bench_ensemble_runs(100), 100u);

  ::setenv("PULSE_BENCH_DAYS", "3", 1);
  EXPECT_EQ(bench_trace_days(7), 3);
  ::unsetenv("PULSE_BENCH_DAYS");
  EXPECT_EQ(bench_trace_days(7), 7);
}

// Figure 9(a)'s buckets span the data: PULSE's ratios sit near 5e-8, below
// any fixed 1e-7 floor, and nothing may fall off either end.
TEST(Fig9Histogram, DecadesSpanTheDataAndCountEveryRun) {
  const std::vector<double> ratios = {3e-9, 5e-8, 5e-8, 1e-7, 2e-4, 0.5, 0.0};
  const DecadeHistogram h = decade_histogram(ratios);
  EXPECT_EQ(h.first_decade, -9);
  const std::vector<std::size_t> expected = {2, 2, 1, 0, 0, 1, 0, 0, 1};  // 1e-9 .. 1e-1
  EXPECT_EQ(h.counts, expected);
  EXPECT_EQ(std::accumulate(h.counts.begin(), h.counts.end(), std::size_t{0}), ratios.size());

  EXPECT_TRUE(decade_histogram({}).counts.empty());
  const DecadeHistogram zeros = decade_histogram({0.0, 0.0});
  EXPECT_EQ(zeros.counts, std::vector<std::size_t>{2});
  const DecadeHistogram one = decade_histogram({1e-3});
  EXPECT_EQ(one.first_decade, -3);  // an exact power of ten opens its decade
  EXPECT_EQ(one.counts, std::vector<std::size_t>{1});
}

}  // namespace
}  // namespace pulse::exp
