// Figure 5: the accuracy / keep-alive-cost trade-off. Keeping only the
// lowest-quality variants is cheap but inaccurate; only the highest is
// accurate but expensive; PULSE lands near the low-quality cost at close to
// the high-quality accuracy.

#include "bench_common.hpp"

#include "exp/figures.hpp"

namespace {

using namespace pulse;

void BM_EnsembleRunPulse(benchmark::State& state) {
  exp::ScenarioConfig config;
  config.days = 1;
  const exp::Scenario scenario = exp::make_scenario(config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(exp::run_policy_ensemble(scenario, "pulse", 2));
  }
}
BENCHMARK(BM_EnsembleRunPulse);

}  // namespace

int main(int argc, char** argv) {
  using namespace pulse;
  bench::print_heading("Figure 5 — accuracy vs keep-alive cost",
                       "PULSE paper, Figure 5");
  const exp::Scenario scenario = bench::default_scenario();
  const std::size_t runs = bench::default_runs();
  bench::print_scenario_info(scenario, runs);

  const auto [low, high, pulse, cost_pos, acc_pos] = exp::tradeoff_corners(scenario, runs);

  util::TextTable table({"Point", "Keep-alive Cost ($)", "Accuracy (%)"});
  table.add_row({"Lowest Quality", util::fmt(low.keepalive_cost_usd), util::fmt(low.accuracy_pct)});
  table.add_row({"Highest Quality", util::fmt(high.keepalive_cost_usd), util::fmt(high.accuracy_pct)});
  table.add_row({"PULSE", util::fmt(pulse.keepalive_cost_usd), util::fmt(pulse.accuracy_pct)});
  std::printf("%s", table.render().c_str());
  std::printf(
      "\nPULSE position between the Lowest(0) and Highest(1) corner points:\n"
      "  cost axis:     %.2f   (paper: close to 0 — near the low-cost corner)\n"
      "  accuracy axis: %.2f   (paper: close to 1 — near the high-accuracy corner)\n",
      cost_pos, acc_pos);

  return bench::run_microbenchmarks(argc, argv);
}
