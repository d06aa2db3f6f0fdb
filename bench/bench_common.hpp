#pragma once
// Shared scaffolding for the paper-reproduction bench binaries.
//
// Every binary: (1) rebuilds the experiment behind one table/figure of the
// paper and prints the same rows/series, then (2) runs google-benchmark
// micro-timings for the code paths the experiment exercises. All binaries
// run with no arguments; PULSE_BENCH_RUNS / PULSE_BENCH_DAYS scale the
// ensembles (the paper uses 1000 runs over 14 days; the defaults keep a
// full sweep in the minutes range on one core).

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <vector>

#include "exp/scenario.hpp"
#include "exp/summary.hpp"
#include "util/table.hpp"

namespace pulse::bench {

/// Default ensemble sizing shared by the figure benches.
inline exp::Scenario default_scenario() {
  exp::ScenarioConfig config;
  config.days = exp::bench_trace_days(7);
  return exp::make_scenario(config);
}

inline std::size_t default_runs() { return exp::bench_ensemble_runs(100); }

inline void print_heading(const std::string& title, const std::string& paper_ref) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("Reproduces: %s\n", paper_ref.c_str());
  std::printf("================================================================\n");
}

inline void print_scenario_info(const exp::Scenario& scenario, std::size_t runs) {
  std::printf("workload: %zu functions, %lld days, seed %llu | ensemble: %zu runs\n\n",
              scenario.workload.trace.function_count(),
              static_cast<long long>(scenario.config.days),
              static_cast<unsigned long long>(scenario.config.seed), runs);
}

/// Prints Figs 10-12's table: one row per PULSE configuration, each an
/// improvement over OpenWhisk.
inline void print_improvement_table(const std::string& first_column,
                                    const std::vector<exp::ImprovementRow>& rows) {
  util::TextTable table({first_column, "Service Time (% impr.)", "Keep-alive Cost (% impr.)",
                         "Accuracy (% change)"});
  for (const exp::ImprovementRow& row : rows) {
    table.add_row({row.policy, util::fmt_pct(row.service_time_pct),
                   util::fmt_pct(row.keepalive_cost_pct), util::fmt_pct(row.accuracy_pct)});
  }
  std::printf("%s", table.render().c_str());
}

/// Runs the registered google-benchmark timings with default settings.
inline int run_microbenchmarks(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  std::printf("\n--- micro-benchmarks -------------------------------------------\n");
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

}  // namespace pulse::bench
