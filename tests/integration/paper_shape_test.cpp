// Paper-shape gate: the orderings the paper's figures report must hold on
// a fixed grid — the default scenario at 2 days, 8 ensemble runs per
// policy, scenario seeds 1-10 and 42. The rows come from the same
// exp::run_policy_ensemble / exp::improvement_over calls the figure benches
// print, so the figure math has one copy. One TEST per figure, so ctest
// runs them in parallel.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "exp/summary.hpp"

namespace pulse::exp {
namespace {

constexpr std::size_t kRuns = 8;
constexpr std::uint64_t kSeeds[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 42};

Scenario grid_scenario(std::uint64_t seed) {
  ScenarioConfig config;
  config.days = 2;
  config.seed = seed;
  return make_scenario(config);
}

// Figure 6: PULSE beats OpenWhisk on keep-alive cost and service time and
// gives up little accuracy (paper: +39.5 %, +8.8 %, -0.6 %). The -5 %
// accuracy bound was fixed before any seed ran; the 14-day figure bench
// reads -3.0 %.
TEST(PaperShape, Fig6PulseBeatsOpenWhisk) {
  for (const std::uint64_t seed : kSeeds) {
    SCOPED_TRACE("scenario seed " + std::to_string(seed));
    const Scenario scenario = grid_scenario(seed);
    const PolicySummary openwhisk = run_policy_ensemble(scenario, "openwhisk", kRuns);
    const PolicySummary pulse = run_policy_ensemble(scenario, "pulse", kRuns);
    const ImprovementRow row = improvement_over(openwhisk, pulse);
    EXPECT_GT(row.keepalive_cost_pct, 0.0)
        << "pulse $" << pulse.keepalive_cost_usd << " vs openwhisk $"
        << openwhisk.keepalive_cost_usd;
    EXPECT_GT(row.service_time_pct, 0.0)
        << "pulse " << pulse.service_time_s << " s vs openwhisk " << openwhisk.service_time_s
        << " s";
    EXPECT_GE(row.accuracy_pct, -5.0)
        << "pulse " << pulse.accuracy_pct << "% vs openwhisk " << openwhisk.accuracy_pct << "%";
  }
}

// Figure 8: adding PULSE to Wild and to IceBreaker cuts keep-alive cost.
TEST(PaperShape, Fig8IntegrationsCutKeepAliveCost) {
  for (const std::uint64_t seed : kSeeds) {
    SCOPED_TRACE("scenario seed " + std::to_string(seed));
    const Scenario scenario = grid_scenario(seed);
    for (const char* base : {"wild", "icebreaker"}) {
      const std::string integrated = std::string(base) + "+pulse";
      const PolicySummary b = run_policy_ensemble(scenario, base, kRuns);
      const PolicySummary i = run_policy_ensemble(scenario, integrated, kRuns);
      const ImprovementRow row = improvement_over(b, i);
      EXPECT_GT(row.keepalive_cost_pct, 0.0)
          << integrated << " $" << i.keepalive_cost_usd << " vs " << base << " $"
          << b.keepalive_cost_usd;
    }
  }
}

// Figure 9(b): MILP's one-shot selection favours lower-quality variants, so
// its mean accuracy is below PULSE's.
TEST(PaperShape, Fig9bMilpAccuracyBelowPulse) {
  for (const std::uint64_t seed : kSeeds) {
    SCOPED_TRACE("scenario seed " + std::to_string(seed));
    const Scenario scenario = grid_scenario(seed);
    const PolicySummary pulse = run_policy_ensemble(scenario, "pulse", kRuns);
    const PolicySummary milp = run_policy_ensemble(scenario, "milp", kRuns);
    const ImprovementRow row = improvement_over(pulse, milp);
    EXPECT_LT(row.accuracy_pct, 0.0)
        << "milp " << milp.accuracy_pct << "% vs pulse " << pulse.accuracy_pct << "%";
  }
}

}  // namespace
}  // namespace pulse::exp
