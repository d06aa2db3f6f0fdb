// Figure 6: the headline comparison.
//   (a) PULSE's % improvement over the OpenWhisk fixed 10-minute policy in
//       keep-alive cost (paper: 39.5%), service time (8.8%), and accuracy
//       (-0.6%).
//   (b) per-minute keep-alive cost error relative to the ideal policy that
//       keeps the model alive only during invocation minutes.

#include "bench_common.hpp"

#include "exp/figures.hpp"
#include "policies/factory.hpp"

namespace {

using namespace pulse;

void print_fig6a(const exp::Scenario& scenario, std::size_t runs) {
  const exp::PolicySummary openwhisk =
      exp::run_policy_ensemble(scenario, "openwhisk", runs);
  const exp::PolicySummary pulse = exp::run_policy_ensemble(scenario, "pulse", runs);
  const exp::ImprovementRow row = exp::improvement_over(openwhisk, pulse);

  std::printf("\nFigure 6(a) — PULSE %% improvement over OpenWhisk:\n\n");
  util::TextTable table({"Metric", "Measured", "Paper"});
  table.add_row({"Keep-alive Cost", util::fmt_pct(row.keepalive_cost_pct), "+39.5%"});
  table.add_row({"Service Time", util::fmt_pct(row.service_time_pct), "+8.8%"});
  table.add_row({"Accuracy", util::fmt_pct(row.accuracy_pct), "-0.6%"});
  std::printf("%s", table.render().c_str());

  util::TextTable raw({"Policy", "Service Time (s)", "Cost ($)", "Accuracy (%)",
                       "Warm starts (%)"});
  for (const auto* s : {&openwhisk, &pulse}) {
    raw.add_row({s->policy, util::fmt(s->service_time_s, 0), util::fmt(s->keepalive_cost_usd),
                 util::fmt(s->accuracy_pct), util::fmt(100.0 * s->warm_fraction, 1)});
  }
  std::printf("\n%s", raw.render().c_str());
}

void print_fig6b(const exp::Scenario& scenario) {
  std::printf(
      "\nFigure 6(b) — per-minute keep-alive cost error vs the ideal policy\n"
      "(ideal keeps the highest-quality model alive exactly during invocation\n"
      "minutes; error%% = 100 x (policy - ideal) / mean(ideal); 30-minute buckets):\n\n");

  const exp::CostError pulse = exp::cost_error_vs_ideal(scenario, "pulse");
  const exp::CostError openwhisk = exp::cost_error_vs_ideal(scenario, "openwhisk");
  if (pulse.bucket_pct.empty()) {
    std::printf("  (no invocations in trace; skipped)\n");
    return;
  }
  std::printf("  %-14s %18s %18s\n", "minutes", "PULSE error %", "OpenWhisk error %");
  constexpr std::size_t bucket = exp::CostError::kBucketMinutes;
  for (std::size_t b = 0; b < pulse.bucket_pct.size(); ++b) {
    std::printf("  %5zu..%5zu  %18.1f %18.1f\n", b * bucket, (b + 1) * bucket,
                pulse.bucket_pct[b], openwhisk.bucket_pct[b]);
  }
  std::printf(
      "\n  mean |error|: PULSE %.1f%%, OpenWhisk %.1f%%\n"
      "  mean error:   PULSE %+.1f%%, OpenWhisk %+.1f%%\n"
      "  Expected shape (paper): OpenWhisk's error is mostly large and\n"
      "  positive; PULSE stays much closer to the ideal line.\n",
      pulse.mean_abs_pct, openwhisk.mean_abs_pct, pulse.mean_pct, openwhisk.mean_pct);
}

void BM_PulseDecisionPath(benchmark::State& state) {
  // Cost of one on_invocation decision (function-centric optimization).
  exp::ScenarioConfig config;
  config.days = 1;
  const exp::Scenario scenario = exp::make_scenario(config);
  const sim::Deployment d = sim::Deployment::round_robin(
      scenario.zoo, scenario.workload.trace.function_count());
  sim::KeepAliveSchedule schedule(d, scenario.workload.trace.duration());
  const auto policy = policies::make_policy("pulse");
  policy->initialize(d, scenario.workload.trace, schedule);
  trace::Minute t = 0;
  for (auto _ : state) {
    policy->on_invocation(0, t, schedule);
    t = (t + 3) % (scenario.workload.trace.duration() - 20);
  }
}
BENCHMARK(BM_PulseDecisionPath);

}  // namespace

int main(int argc, char** argv) {
  using namespace pulse;
  bench::print_heading("Figure 6 — PULSE vs OpenWhisk fixed keep-alive",
                       "PULSE paper, Figure 6(a) and 6(b)");
  const exp::Scenario scenario = bench::default_scenario();
  const std::size_t runs = bench::default_runs();
  bench::print_scenario_info(scenario, runs);
  print_fig6a(scenario, runs);
  print_fig6b(scenario);
  return bench::run_microbenchmarks(argc, argv);
}
