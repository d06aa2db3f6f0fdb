// Paper-shape gate: the orderings the paper's figures report must hold on
// a fixed grid — the default scenario at 2 days, 8 ensemble runs per
// policy, scenario seeds 1-10 and 42. The rows come from the same exp::
// calls the figure benches print (exp/figures.hpp, exp/summary.hpp), so the
// figure math has one copy. Every bound was fixed from the paper's wording
// before any seed ran. One TEST per figure, so ctest runs them in parallel.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>

#include "exp/figures.hpp"

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

// Tables II-III: on both peak windows AllHigh > RandomMix > AllLow in
// service time, cost and accuracy, and the intelligent selection costs less
// than AllHigh with at most 1 accuracy point lost (paper, Peak I: 0.96).
TEST(PaperShape, Tables2And3PeakOrdering) {
  const struct {
    const char* name;
    double PolicySummary::*value;
  } metrics[] = {{"service time", &PolicySummary::service_time_s},
                 {"keep-alive cost", &PolicySummary::keepalive_cost_usd},
                 {"accuracy", &PolicySummary::accuracy_pct}};
  for (const std::uint64_t seed : kSeeds) {
    SCOPED_TRACE("scenario seed " + std::to_string(seed));
    const std::vector<PeakTable> tables = peak_tables(grid_scenario(seed), kRuns);
    ASSERT_EQ(tables.size(), 2u);
    for (const PeakTable& t : tables) {
      SCOPED_TRACE("peak at minute " + std::to_string(t.peak));
      for (const auto& m : metrics) {
        EXPECT_GT(t.all_high.*m.value, t.random_mix.*m.value) << m.name;
        EXPECT_GT(t.random_mix.*m.value, t.all_low.*m.value) << m.name;
      }
      EXPECT_LT(t.intelligent.keepalive_cost_usd, t.all_high.keepalive_cost_usd);
      EXPECT_GE(t.intelligent.accuracy_pct, t.all_high.accuracy_pct - 1.0);
    }
  }
}

// Figure 4: individual-only PULSE costs more than full PULSE, and on the
// single round-robin run its memory peaks persist: both its peak and its
// largest minute-to-minute rise exceed full PULSE's.
TEST(PaperShape, Fig4IndividualOnlyKeepsPeaks) {
  for (const std::uint64_t seed : kSeeds) {
    SCOPED_TRACE("scenario seed " + std::to_string(seed));
    const Scenario scenario = grid_scenario(seed);
    EXPECT_GT(run_policy_ensemble(scenario, "pulse-individual", kRuns).keepalive_cost_usd,
              run_policy_ensemble(scenario, "pulse", kRuns).keepalive_cost_usd);
    const MemorySeries individual = memory_series(scenario, "pulse-individual");
    const MemorySeries pulse = memory_series(scenario, "pulse");
    EXPECT_GT(individual.peak_mb, pulse.peak_mb);
    EXPECT_GT(individual.max_rise_mb, pulse.max_rise_mb);
  }
}

// Figure 5: PULSE's cost is "similar to" the lowest-quality corner (at most
// a tenth of the way to the highest) while its accuracy moves toward the
// highest-quality corner.
TEST(PaperShape, Fig5PulseCostNearLowCorner) {
  for (const std::uint64_t seed : kSeeds) {
    SCOPED_TRACE("scenario seed " + std::to_string(seed));
    const TradeoffCorners c = tradeoff_corners(grid_scenario(seed), kRuns);
    EXPECT_LE(c.cost_position, 0.10) << "pulse $" << c.pulse.keepalive_cost_usd
                                     << ", all-low $" << c.low.keepalive_cost_usd;
    EXPECT_GT(c.accuracy_position, 0.0);
  }
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

// Figure 6(b): "OpenWhisk's error is mostly large and positive; PULSE stays
// much closer to the ideal line." On the single round-robin run, PULSE's
// mean |error| against the ideal is below OpenWhisk's, and OpenWhisk's
// signed mean error is positive. The paper does not quantify "much", so the
// gate is the ordering.
TEST(PaperShape, Fig6bPulseErrorBelowOpenWhisk) {
  for (const std::uint64_t seed : kSeeds) {
    SCOPED_TRACE("scenario seed " + std::to_string(seed));
    const Scenario scenario = grid_scenario(seed);
    const CostError pulse = cost_error_vs_ideal(scenario, "pulse");
    const CostError openwhisk = cost_error_vs_ideal(scenario, "openwhisk");
    ASSERT_FALSE(pulse.bucket_pct.empty());
    EXPECT_LT(pulse.mean_abs_pct, openwhisk.mean_abs_pct);
    EXPECT_GT(openwhisk.mean_pct, 0.0);
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

// Figure 10: both threshold techniques cut cost; T2's floor variant is one
// step higher, so its cut is at most T1's.
TEST(PaperShape, Fig10T2CostCutAtMostT1) {
  for (const std::uint64_t seed : kSeeds) {
    SCOPED_TRACE("scenario seed " + std::to_string(seed));
    const std::vector<ImprovementRow> rows = threshold_technique_rows(grid_scenario(seed), kRuns);
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_GT(rows[1].keepalive_cost_pct, 0.0);
    EXPECT_LE(rows[1].keepalive_cost_pct, rows[0].keepalive_cost_pct);
  }
}

// Figure 11: a looser memory threshold flattens less, so from M1 to M3 the
// cost cut strictly falls and the service-time cut strictly rises.
TEST(PaperShape, Fig11MonotoneInMemoryThreshold) {
  for (const std::uint64_t seed : kSeeds) {
    SCOPED_TRACE("scenario seed " + std::to_string(seed));
    const std::vector<ImprovementRow> rows = memory_threshold_rows(grid_scenario(seed), kRuns);
    ASSERT_EQ(rows.size(), 3u);
    for (std::size_t i = 1; i < rows.size(); ++i) {
      SCOPED_TRACE(rows[i - 1].policy + " -> " + rows[i].policy);
      EXPECT_GT(rows[i - 1].keepalive_cost_pct, rows[i].keepalive_cost_pct);
      EXPECT_LT(rows[i - 1].service_time_pct, rows[i].service_time_pct);
    }
  }
}

// Figure 12: PULSE is insensitive to the local window: the cost cuts at 10,
// 60 and 120 minutes lie within 5 percentage points of each other.
TEST(PaperShape, Fig12FlatAcrossLocalWindows) {
  for (const std::uint64_t seed : kSeeds) {
    SCOPED_TRACE("scenario seed " + std::to_string(seed));
    const std::vector<ImprovementRow> rows = local_window_rows(grid_scenario(seed), kRuns);
    ASSERT_EQ(rows.size(), 3u);
    const auto [lo, hi] = std::minmax_element(
        rows.begin(), rows.end(), [](const ImprovementRow& a, const ImprovementRow& b) {
          return a.keepalive_cost_pct < b.keepalive_cost_pct;
        });
    EXPECT_LE(hi->keepalive_cost_pct - lo->keepalive_cost_pct, 5.0)
        << lo->policy << " vs " << hi->policy;
  }
}

}  // namespace
}  // namespace pulse::exp
