#pragma once
// The rows of the paper's tables and figures, computed once: the figure
// benches print them and tests/integration/paper_shape_test.cpp asserts
// their orderings. Figures 6(a) and 8 are plain run_policy_ensemble /
// improvement_over pairs (summary.hpp).

#include <string>
#include <vector>

#include "exp/summary.hpp"

namespace pulse::exp {

/// Tables II-III evaluate the keep-alive window after `peak`, with a
/// 2-minute lead and a 3-minute tail, clamped to the trace.
[[nodiscard]] trace::Trace peak_window(const trace::Trace& trace, trace::Minute peak);

/// Tables II-III: the four approaches, ensemble-averaged over one peak window.
struct PeakTable {
  trace::Minute peak = 0;
  PolicySummary all_high;     // "openwhisk"
  PolicySummary all_low;      // "all-low"
  PolicySummary random_mix;   // "random-mix"
  PolicySummary intelligent;  // "oracle"
};

/// One table for each of the trace's two most prominent aggregate peaks, in
/// trace::find_peak_minutes order (Peak I, Peak II).
[[nodiscard]] std::vector<PeakTable> peak_tables(const Scenario& scenario, std::size_t runs);

/// Figures 4 and 7: one round-robin run's keep-alive memory per minute.
struct MemorySeries {
  std::string policy;
  std::vector<double> memory_mb;
  double average_mb = 0.0;
  double peak_mb = 0.0;
  double max_rise_mb = 0.0;  // largest minute-to-minute rise: a "sudden peak"
  double accuracy_pct = 0.0;
};

[[nodiscard]] MemorySeries memory_series(const Scenario& scenario, const std::string& policy);

/// Figure 5: the lowest- and highest-quality corners ("all-low",
/// "openwhisk") and PULSE's position between them on each axis (0 at the
/// low corner, 1 at the high one; 0 when the corners coincide).
struct TradeoffCorners {
  PolicySummary low, high, pulse;
  double cost_position = 0.0;
  double accuracy_position = 0.0;
};

[[nodiscard]] TradeoffCorners tradeoff_corners(const Scenario& scenario, std::size_t runs);

/// Figure 6(b): one round-robin run's keep-alive cost error against the
/// ideal policy, in 30-minute buckets over the first six hours; a bucket's
/// error is 100 x (policy - ideal) / (mean ideal per minute x 30).
struct CostError {
  static constexpr std::size_t kBucketMinutes = 30;
  std::vector<double> bucket_pct;  // empty when the trace has no invocations
  double mean_abs_pct = 0.0;       // mean of |error|
  double mean_pct = 0.0;           // signed mean error
};
[[nodiscard]] CostError cost_error_vs_ideal(const Scenario& scenario, const std::string& policy);

/// Figure 9: each run's wall-clock policy overhead over its service time, in
/// run order (a PhaseProfiler attached turns on sim::PolicyCallTimer), and
/// the mean accuracy.
struct DecisionOverhead {
  std::vector<double> overhead_ratio;
  double accuracy_pct = 0.0;
};
[[nodiscard]] DecisionOverhead decision_overhead(const Scenario& scenario,
                                                 const std::string& policy, std::size_t runs);

/// Figure 9(a)'s log-scaled histogram: counts[b] ratios lie in the decade
/// [1e(first_decade + b), 1e(first_decade + b + 1)). The decades run from
/// the smallest positive ratio's to the largest's, so the counts sum to the
/// number of ratios; a non-positive ratio (a run with no timed policy call)
/// counts in the first bucket. No ratios, no buckets.
struct DecadeHistogram {
  int first_decade = 0;
  std::vector<std::size_t> counts;
};
[[nodiscard]] DecadeHistogram decade_histogram(const std::vector<double>& ratios);

/// Figures 10-12: one PULSE configuration per row, each an improvement over
/// OpenWhisk labelled as the figure labels it. Fig 10: techniques "T1",
/// "T2"; Fig 11: memory thresholds 0.05/0.10/0.15 ("M1 (5%)".."M3 (15%)");
/// Fig 12: local windows of 10/60/120 minutes ("10 min".."120 min").
[[nodiscard]] std::vector<ImprovementRow> threshold_technique_rows(const Scenario& scenario,
                                                                   std::size_t runs);
[[nodiscard]] std::vector<ImprovementRow> memory_threshold_rows(const Scenario& scenario,
                                                                std::size_t runs);
[[nodiscard]] std::vector<ImprovementRow> local_window_rows(const Scenario& scenario,
                                                            std::size_t runs);

}  // namespace pulse::exp
