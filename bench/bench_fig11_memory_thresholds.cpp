// Figure 11: PULSE across keep-alive memory thresholds. M1 = 5%, M2 = 10%
// (the default), M3 = 15% — the KM_T parameter of Algorithm 1. PULSE should
// keep its cost/service-time/accuracy balance at every setting.

#include "bench_common.hpp"

#include "core/pulse_policy.hpp"
#include "exp/figures.hpp"

namespace {

using namespace pulse;

void BM_PeakDetect(benchmark::State& state) {
  const core::PeakDetector detector;
  double current = 900.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(detector.is_peak(current, 850.0));
    current += 1.0;
    if (current > 1200.0) current = 900.0;
  }
}
BENCHMARK(BM_PeakDetect);

}  // namespace

int main(int argc, char** argv) {
  using namespace pulse;
  bench::print_heading("Figure 11 — keep-alive memory thresholds M1/M2/M3",
                       "PULSE paper, Figure 11");
  const exp::Scenario scenario = bench::default_scenario();
  const std::size_t runs = bench::default_runs();
  bench::print_scenario_info(scenario, runs);

  bench::print_improvement_table("Threshold", exp::memory_threshold_rows(scenario, runs));
  std::printf(
      "\nExpected shape (paper): all three thresholds keep a large cost\n"
      "improvement and a small accuracy drop; tighter thresholds flatten\n"
      "more aggressively.\n");

  return bench::run_microbenchmarks(argc, argv);
}
