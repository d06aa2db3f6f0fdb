#include "exp/figures.hpp"

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <memory>
#include <numeric>
#include <utility>

#include "core/pulse_policy.hpp"
#include "policies/factory.hpp"
#include "trace/analysis.hpp"
#include "trace/workload.hpp"
#include "util/stats.hpp"

namespace pulse::exp {

namespace {

/// Runs PULSE once per (label, value) point, with `set(config, value)`
/// applied to a default config, and reports each against OpenWhisk.
template <typename T, typename Set>
std::vector<ImprovementRow> pulse_sweep(const Scenario& scenario, std::size_t runs,
                                        std::initializer_list<std::pair<const char*, T>> points,
                                        Set set) {
  const PolicySummary openwhisk = run_policy_ensemble(scenario, "openwhisk", runs);
  std::vector<ImprovementRow> rows;
  for (const auto& [label, value] : points) {
    core::PulsePolicy::Config config;
    set(config, value);
    const PolicySummary s = run_policy_ensemble(
        scenario.zoo, scenario.workload.trace, label,
        [&] { return std::make_unique<core::PulsePolicy>(config); }, runs);
    rows.push_back(improvement_over(openwhisk, s));
  }
  return rows;
}

}  // namespace

trace::Trace peak_window(const trace::Trace& trace, trace::Minute peak) {
  return trace.slice(std::max<trace::Minute>(0, peak - 2),
                     std::min(trace.duration(), peak + trace::kKeepAliveWindow + 3));
}

std::vector<PeakTable> peak_tables(const Scenario& scenario, std::size_t runs) {
  std::vector<PeakTable> tables;
  for (const trace::Minute peak : trace::find_peak_minutes(scenario.workload.trace, 2)) {
    const trace::Trace window = peak_window(scenario.workload.trace, peak);
    const auto run = [&](const std::string& policy) {
      return run_policy_ensemble(scenario.zoo, window, policy,
                                 [&] { return policies::make_policy(policy); }, runs);
    };
    tables.push_back({peak, run("openwhisk"), run("all-low"), run("random-mix"), run("oracle")});
  }
  return tables;
}

MemorySeries memory_series(const Scenario& scenario, const std::string& policy) {
  sim::RunResult r = run_policy_single(scenario, policy);
  MemorySeries s;
  s.policy = policy;
  s.memory_mb = std::move(r.keepalive_memory_mb);
  s.average_mb = util::mean(s.memory_mb);
  s.peak_mb = util::max_of(s.memory_mb);
  for (std::size_t m = 1; m < s.memory_mb.size(); ++m) {
    s.max_rise_mb = std::max(s.max_rise_mb, s.memory_mb[m] - s.memory_mb[m - 1]);
  }
  s.accuracy_pct = r.average_accuracy_pct();
  return s;
}

TradeoffCorners tradeoff_corners(const Scenario& scenario, std::size_t runs) {
  TradeoffCorners c;
  c.low = run_policy_ensemble(scenario, "all-low", runs);
  c.high = run_policy_ensemble(scenario, "openwhisk", runs);
  c.pulse = run_policy_ensemble(scenario, "pulse", runs);
  const auto position = [](double low, double high, double x) {
    return high - low != 0.0 ? (x - low) / (high - low) : 0.0;
  };
  c.cost_position = position(c.low.keepalive_cost_usd, c.high.keepalive_cost_usd,
                             c.pulse.keepalive_cost_usd);
  c.accuracy_position =
      position(c.low.accuracy_pct, c.high.accuracy_pct, c.pulse.accuracy_pct);
  return c;
}

CostError cost_error_vs_ideal(const Scenario& scenario, const std::string& policy) {
  const sim::RunResult run = run_policy_single(scenario, policy);
  constexpr std::size_t bucket = CostError::kBucketMinutes;
  const double denom = util::mean(run.ideal_cost_usd) * static_cast<double>(bucket);
  const std::size_t limit = std::min<std::size_t>(run.keepalive_cost_usd.size(), 360);
  CostError err;
  util::RunningStats signed_err, abs_err;
  for (std::size_t start = 0; denom > 0.0 && start + bucket <= limit; start += bucket) {
    const auto sum = [&](const std::vector<double>& series) {
      return std::accumulate(series.begin() + start, series.begin() + start + bucket, 0.0);
    };
    const double e = 100.0 * (sum(run.keepalive_cost_usd) - sum(run.ideal_cost_usd)) / denom;
    err.bucket_pct.push_back(e);
    signed_err.add(e);
    abs_err.add(std::abs(e));
  }
  err.mean_pct = signed_err.mean();
  err.mean_abs_pct = abs_err.mean();
  return err;
}

DecisionOverhead decision_overhead(const Scenario& scenario, const std::string& policy,
                                   std::size_t runs) {
  obs::PhaseProfiler profiler;
  sim::EnsembleConfig config;
  config.runs = runs;
  config.engine.observer.profiler = &profiler;
  const sim::EnsembleResult e = sim::run_ensemble(
      scenario.zoo, scenario.workload.trace, [&] { return policies::make_policy(policy); },
      config);
  DecisionOverhead d{{}, e.mean_accuracy_pct()};
  for (const sim::RunResult& r : e.runs) d.overhead_ratio.push_back(r.overhead_over_service_time());
  return d;
}

DecadeHistogram decade_histogram(const std::vector<double>& ratios) {
  std::vector<int> decades;  // of the positive ratios
  for (const double r : ratios) {
    if (!(r > 0.0)) continue;
    // floor(log10 r), corrected where log10 rounds across a power of ten.
    const int d = static_cast<int>(std::floor(std::log10(r)));
    decades.push_back(d + (r >= std::pow(10.0, d + 1)) - (r < std::pow(10.0, d)));
  }
  if (ratios.empty()) return {};
  const auto [lo, hi] = std::minmax_element(decades.begin(), decades.end());
  DecadeHistogram h;
  h.first_decade = decades.empty() ? 0 : *lo;
  h.counts.assign(decades.empty() ? 1 : static_cast<std::size_t>(*hi - *lo + 1), 0);
  h.counts[0] = ratios.size() - decades.size();  // the non-positive ratios
  for (const int d : decades) ++h.counts[static_cast<std::size_t>(d - h.first_decade)];
  return h;
}

std::vector<ImprovementRow> threshold_technique_rows(const Scenario& scenario,
                                                     std::size_t runs) {
  using core::ThresholdTechnique;
  return pulse_sweep<ThresholdTechnique>(
      scenario, runs, {{"T1", ThresholdTechnique::kT1}, {"T2", ThresholdTechnique::kT2}},
      [](core::PulsePolicy::Config& c, ThresholdTechnique t) { c.technique = t; });
}

std::vector<ImprovementRow> memory_threshold_rows(const Scenario& scenario, std::size_t runs) {
  return pulse_sweep<double>(
      scenario, runs, {{"M1 (5%)", 0.05}, {"M2 (10%)", 0.10}, {"M3 (15%)", 0.15}},
      [](core::PulsePolicy::Config& c, double m) { c.memory_threshold = m; });
}

std::vector<ImprovementRow> local_window_rows(const Scenario& scenario, std::size_t runs) {
  return pulse_sweep<trace::Minute>(
      scenario, runs, {{"10 min", 10}, {"60 min", 60}, {"120 min", 120}},
      [](core::PulsePolicy::Config& c, trace::Minute w) { c.local_window = w; });
}

}  // namespace pulse::exp
