// Tables II & III: the four keep-alive approaches evaluated over the
// 10-minute keep-alive periods following the trace's two most prominent
// invocation peaks (Peak I and Peak II) — service time, keep-alive cost,
// and accuracy of All-High / All-Low / Random-Mix / Intelligent (oracle).

#include "bench_common.hpp"

#include "exp/figures.hpp"
#include "policies/factory.hpp"
#include "sim/engine.hpp"
#include "trace/workload.hpp"

namespace {

using namespace pulse;

void print_peak_table(const exp::PeakTable& t, std::size_t index) {
  std::printf("\nPeak %s at trace minute %lld:\n", index == 0 ? "I" : "II",
              static_cast<long long>(t.peak));
  util::TextTable table({"Approach", "Service Time (s)", "Keep-alive Cost (USD)",
                         "Accuracy (%)"});
  const std::pair<const char*, const exp::PolicySummary*> rows[] = {
      {"All High Quality", &t.all_high},
      {"All Low Quality", &t.all_low},
      {"Random High Quality Low Quality", &t.random_mix},
      {"Intelligent Solution", &t.intelligent},
  };
  for (const auto& [label, s] : rows) {
    table.add_row({label, util::fmt(s->service_time_s), util::fmt(s->keepalive_cost_usd, 4),
                   util::fmt(s->accuracy_pct)});
  }
  std::printf("%s", table.render().c_str());
}

void BM_PeakWindowSimulation(benchmark::State& state) {
  const exp::Scenario scenario = bench::default_scenario();
  const auto peaks = trace::find_peak_minutes(scenario.workload.trace, 1);
  const trace::Trace window = exp::peak_window(scenario.workload.trace, peaks.at(0));
  const sim::Deployment d =
      sim::Deployment::round_robin(scenario.zoo, window.function_count());
  for (auto _ : state) {
    sim::SimulationEngine engine(d, window, {});
    const auto policy = policies::make_policy("oracle");
    benchmark::DoNotOptimize(engine.run(*policy));
  }
}
BENCHMARK(BM_PeakWindowSimulation);

}  // namespace

int main(int argc, char** argv) {
  using namespace pulse;
  bench::print_heading("Tables II & III — keep-alive approaches during invocation peaks",
                       "PULSE paper, Tables II and III");
  const exp::Scenario scenario = bench::default_scenario();
  const std::size_t runs = bench::default_runs();
  bench::print_scenario_info(scenario, runs);

  // The paper designates the two highest-volume peaks of the trace; our
  // workload injects two coordinated peaks, recovered from the aggregate
  // series exactly as the paper's analysis does.
  const std::vector<exp::PeakTable> tables = exp::peak_tables(scenario, runs);
  for (std::size_t i = 0; i < tables.size(); ++i) print_peak_table(tables[i], i);
  std::printf(
      "\nExpected shape (paper): AllHigh has highest service time, cost and\n"
      "accuracy; AllLow the lowest of all three; RandomMix in between;\n"
      "Intelligent close to AllHigh accuracy at lower cost.\n");

  return bench::run_microbenchmarks(argc, argv);
}
