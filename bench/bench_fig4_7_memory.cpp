// Figures 4 & 7: keep-alive memory over time.
//   Fig 4(a): OpenWhisk's fixed policy — high memory with sudden peaks.
//   Fig 4(b): individual function optimization — lower, but peaks persist.
//   Fig 7(a/b): fixed policy vs full PULSE — PULSE lowers the average and
//   smooths the peaks with a near-identical accuracy.

#include "bench_common.hpp"

#include <algorithm>

#include "exp/figures.hpp"
#include "policies/factory.hpp"
#include "sim/engine.hpp"
#include "util/stats.hpp"

namespace {

using namespace pulse;

void print_series_plot(const exp::MemorySeries& s, double global_max) {
  // Bucket the series into 2-hour averages and draw an ASCII profile.
  const std::size_t bucket = 120;
  std::printf("\n%s  (avg %.0f MB, peak %.0f MB, max jump %.0f MB, accuracy %.2f%%)\n",
              s.policy.c_str(), s.average_mb, s.peak_mb, s.max_rise_mb, s.accuracy_pct);
  for (std::size_t start = 0; start + bucket <= s.memory_mb.size(); start += bucket) {
    const std::span<const double> window(s.memory_mb.data() + start, bucket);
    const double avg = util::mean(window);
    const double mx = util::max_of(window);
    std::printf("  t=%5zu..%5zu  avg %7.0f MB |%s| max %7.0f\n", start, start + bucket,
                avg, util::bar(avg, global_max, 36).c_str(), mx);
  }
}

void BM_FullDay(benchmark::State& state, const char* policy_name) {
  exp::ScenarioConfig config;
  config.days = 1;
  const exp::Scenario scenario = exp::make_scenario(config);
  const sim::Deployment d = sim::Deployment::round_robin(
      scenario.zoo, scenario.workload.trace.function_count());
  for (auto _ : state) {
    sim::SimulationEngine engine(d, scenario.workload.trace, {});
    const auto policy = policies::make_policy(policy_name);
    benchmark::DoNotOptimize(engine.run(*policy));
  }
}
BENCHMARK_CAPTURE(BM_FullDay, pulse, "pulse");
BENCHMARK_CAPTURE(BM_FullDay, openwhisk, "openwhisk");

}  // namespace

int main(int argc, char** argv) {
  using namespace pulse;
  bench::print_heading("Figures 4 & 7 — keep-alive memory over time",
                       "PULSE paper, Figures 4(a,b) and 7(a,b)");
  exp::ScenarioConfig config;
  config.days = std::min<trace::Minute>(exp::bench_trace_days(2), 4);
  const exp::Scenario scenario = exp::make_scenario(config);
  bench::print_scenario_info(scenario, 1);

  const exp::MemorySeries openwhisk = exp::memory_series(scenario, "openwhisk");
  const exp::MemorySeries individual = exp::memory_series(scenario, "pulse-individual");
  const exp::MemorySeries pulse = exp::memory_series(scenario, "pulse");
  const double global_max = std::max({openwhisk.peak_mb, individual.peak_mb, pulse.peak_mb});

  std::printf("--- Figure 4(a) / 7(a): OpenWhisk fixed 10-minute policy ---");
  print_series_plot(openwhisk, global_max);
  std::printf("\n--- Figure 4(b): individual function optimization only ---");
  print_series_plot(individual, global_max);
  std::printf("\n--- Figure 7(b): full PULSE (function-centric + global) ---");
  print_series_plot(pulse, global_max);

  util::TextTable summary({"Policy", "Avg memory (MB)", "Peak (MB)", "Max jump (MB)",
                           "Accuracy (%)"});
  for (const auto* s : {&openwhisk, &individual, &pulse}) {
    summary.add_row({s->policy, util::fmt(s->average_mb, 0), util::fmt(s->peak_mb, 0),
                     util::fmt(s->max_rise_mb, 0), util::fmt(s->accuracy_pct)});
  }
  std::printf("\n%s", summary.render().c_str());
  std::printf(
      "\nExpected shape (paper): individual optimization reduces average\n"
      "memory but peaks persist (Fig 4b); full PULSE reduces memory AND\n"
      "flattens sudden jumps at a near-identical accuracy (Fig 7b).\n");

  return bench::run_microbenchmarks(argc, argv);
}
