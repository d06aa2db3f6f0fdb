// Figure 12: PULSE across local window sizes (10 / 60 / 120 minutes). The
// local window feeds both the inter-arrival tracker's recent-history
// estimate and the peak detector's prior; PULSE's balance should hold
// across the sweep.

#include "bench_common.hpp"

#include "core/interarrival.hpp"
#include "exp/figures.hpp"
#include "util/rng.hpp"

namespace {

using namespace pulse;

void BM_TrackerProbability(benchmark::State& state) {
  core::InterArrivalTracker tracker;
  util::Pcg32 rng(5);
  trace::Minute t = 0;
  for (int i = 0; i < 2000; ++i) {
    t += 1 + static_cast<trace::Minute>(rng.bounded(8));
    tracker.record(t);
  }
  std::size_t d = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tracker.probability(d, t));
    d = d % 10 + 1;
  }
}
BENCHMARK(BM_TrackerProbability);

}  // namespace

int main(int argc, char** argv) {
  using namespace pulse;
  bench::print_heading("Figure 12 — local window sizes 10/60/120 minutes",
                       "PULSE paper, Figure 12");
  const exp::Scenario scenario = bench::default_scenario();
  const std::size_t runs = bench::default_runs();
  bench::print_scenario_info(scenario, runs);

  bench::print_improvement_table("Local window", exp::local_window_rows(scenario, runs));
  std::printf(
      "\nExpected shape (paper): consistent improvements across the window\n"
      "sweep — PULSE is not sensitive to the local window size.\n");

  return bench::run_microbenchmarks(argc, argv);
}
