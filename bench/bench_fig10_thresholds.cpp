// Figure 10: probability-threshold techniques T1 vs T2. T1 splits the
// probability space into N areas (N-1 thresholds); T2 reserves the lowest
// variant for zero probability and splits (0,1] into N-1 areas. The paper's
// point: both behave comparably — PULSE is robust to the threshold scheme
// as long as higher probability maps to higher quality.

#include "bench_common.hpp"

#include "core/pulse_policy.hpp"
#include "exp/figures.hpp"

namespace {

using namespace pulse;

void BM_SelectVariant(benchmark::State& state, core::ThresholdTechnique technique) {
  double p = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::select_variant(p, 3, technique));
    p += 0.001;
    if (p > 1.0) p = 0.0;
  }
}
BENCHMARK_CAPTURE(BM_SelectVariant, T1, core::ThresholdTechnique::kT1);
BENCHMARK_CAPTURE(BM_SelectVariant, T2, core::ThresholdTechnique::kT2);

}  // namespace

int main(int argc, char** argv) {
  using namespace pulse;
  bench::print_heading("Figure 10 — threshold techniques T1 vs T2",
                       "PULSE paper, Figure 10");
  const exp::Scenario scenario = bench::default_scenario();
  const std::size_t runs = bench::default_runs();
  bench::print_scenario_info(scenario, runs);

  bench::print_improvement_table("Technique", exp::threshold_technique_rows(scenario, runs));
  std::printf(
      "\nExpected shape (paper): both techniques improve cost and service time\n"
      "over OpenWhisk with a small accuracy drop — the exact threshold scheme\n"
      "is not what PULSE's gains depend on.\n");

  return bench::run_microbenchmarks(argc, argv);
}
