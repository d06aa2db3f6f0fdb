// Figure 9: PULSE vs the MILP alternative.
//   (a) distribution of decision overhead / delivered service time across
//       simulation runs — MILP's branch-and-bound costs considerably more
//       than PULSE's greedy loop;
//   (b) accuracy — MILP's one-shot selection (no iterative priority
//       adaptation) favours lower-quality variants, costing accuracy.

#include "bench_common.hpp"

#include "core/global_optimizer.hpp"
#include "core/interarrival.hpp"
#include "exp/figures.hpp"
#include "policies/milp.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace {

using namespace pulse;

void print_overhead_histogram(const char* label, const std::vector<double>& ratios) {
  // Log-scaled buckets over overhead/service-time, like the paper's x-axis.
  const exp::DecadeHistogram h = exp::decade_histogram(ratios);
  std::size_t max_count = 1;
  for (std::size_t c : h.counts) max_count = std::max(max_count, c);
  std::printf("\n%s (overhead / service time, %zu runs):\n", label, ratios.size());
  for (std::size_t b = 0; b < h.counts.size(); ++b) {
    const int d = h.first_decade + static_cast<int>(b);
    std::printf("  [1e%+d, 1e%+d)  %4zu |%s|\n", d, d + 1, h.counts[b],
                util::bar(static_cast<double>(h.counts[b]), static_cast<double>(max_count), 30)
                    .c_str());
  }
}

policies::MilpProblem representative_instance() {
  // A peak over 12 kept-alive models with up to 3 variants each — the shape
  // MilpPolicy solves during a real peak.
  util::Pcg32 rng(7);
  policies::MilpProblem p;
  for (int i = 0; i < 12; ++i) {
    std::vector<policies::MilpOption> options;
    const std::size_t variants = 2 + rng.bounded(2);
    for (std::size_t v = 0; v < variants; ++v) {
      options.push_back(policies::MilpOption{rng.uniform(0.0, 2.0), rng.uniform(200.0, 3500.0)});
    }
    p.items.push_back(std::move(options));
  }
  p.memory_budget_mb = 9000.0;
  return p;
}

void BM_MilpSolve(benchmark::State& state) {
  const policies::MilpProblem p = representative_instance();
  for (auto _ : state) {
    benchmark::DoNotOptimize(policies::solve_milp(p));
  }
}
BENCHMARK(BM_MilpSolve);

void BM_PulseGreedyFlattenScale(benchmark::State& state) {
  // The greedy counterpart: score-and-downgrade over the same 12 models is
  // linear per round instead of a tree search.
  const models::ModelZoo zoo = models::ModelZoo::builtin();
  const sim::Deployment d = sim::Deployment::round_robin(zoo, 12);
  for (auto _ : state) {
    state.PauseTiming();
    sim::KeepAliveSchedule schedule(d, 40);
    for (trace::FunctionId f = 0; f < 12; ++f) {
      schedule.fill(f, 0, 20, static_cast<int>(d.family_of(f).highest_index()));
    }
    core::GlobalOptimizer opt(12, core::GlobalOptimizer::Config{});
    std::vector<core::InterArrivalTracker> trackers(12, core::InterArrivalTracker());
    // Build a demand history with a low prior so minute 19 peaks.
    for (trace::Minute m = 0; m < 19; ++m) {
      sim::KeepAliveSchedule quiet(d, 40);
      quiet.set(0, m, 0);
      opt.flatten_peak(m, quiet, trackers);
    }
    state.ResumeTiming();
    benchmark::DoNotOptimize(opt.flatten_peak(19, schedule, trackers));
  }
}
BENCHMARK(BM_PulseGreedyFlattenScale);

}  // namespace

int main(int argc, char** argv) {
  using namespace pulse;
  bench::print_heading("Figure 9 — decision overhead and accuracy: MILP vs PULSE",
                       "PULSE paper, Figure 9(a) and 9(b)");
  exp::ScenarioConfig sconfig;
  sconfig.days = std::min<trace::Minute>(exp::bench_trace_days(3), 7);
  const exp::Scenario scenario = exp::make_scenario(sconfig);
  const std::size_t runs = std::max<std::size_t>(bench::default_runs() / 2, 10);
  bench::print_scenario_info(scenario, runs);

  const exp::DecisionOverhead pulse = exp::decision_overhead(scenario, "pulse", runs);
  const exp::DecisionOverhead milp = exp::decision_overhead(scenario, "milp", runs);

  print_overhead_histogram("Figure 9(a) — PULSE", pulse.overhead_ratio);
  print_overhead_histogram("Figure 9(a) — MILP", milp.overhead_ratio);

  util::TextTable table({"Technique", "Median overhead/svc-time", "Accuracy (%)"});
  table.add_row({"PULSE", util::fmt(util::percentile(pulse.overhead_ratio, 50) * 1e6, 2) + "e-6",
                 util::fmt(pulse.accuracy_pct)});
  table.add_row({"MILP", util::fmt(util::percentile(milp.overhead_ratio, 50) * 1e6, 2) + "e-6",
                 util::fmt(milp.accuracy_pct)});
  std::printf("\nFigure 9(b):\n%s", table.render().c_str());
  std::printf(
      "\nExpected shape (paper): MILP's overhead distribution sits at larger\n"
      "overhead/service-time ratios than PULSE's, and its accuracy is lower\n"
      "than PULSE's because one-shot selection favours low-quality variants.\n");

  return bench::run_microbenchmarks(argc, argv);
}
