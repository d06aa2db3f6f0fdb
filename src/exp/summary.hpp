#pragma once
// Aggregation and paper-row formatting shared by the bench binaries.

#include <string>
#include <vector>

#include "exp/scenario.hpp"
#include "sim/ensemble.hpp"

namespace pulse::exp {

/// The three paper metrics (plus diagnostics) for one policy.
struct PolicySummary {
  std::string policy;
  double service_time_s = 0.0;
  double keepalive_cost_usd = 0.0;
  double accuracy_pct = 0.0;
  double warm_fraction = 0.0;
  std::size_t runs = 0;
};

/// Collapses an ensemble into a summary (per-run totals averaged, exactly
/// the paper's aggregation).
[[nodiscard]] PolicySummary summarize(std::string policy, const sim::EnsembleResult& ensemble);

/// Runs `factory`'s policy over `trace` as an ensemble of model-to-function
/// assignments from `zoo`, summarized under `label`.
[[nodiscard]] PolicySummary run_policy_ensemble(const models::ModelZoo& zoo,
                                                const trace::Trace& trace, std::string label,
                                                const sim::PolicyFactory& factory,
                                                std::size_t runs, std::uint64_t seed = 7);

/// The named form: policies::make_policy(policy) over the scenario.
[[nodiscard]] PolicySummary run_policy_ensemble(const Scenario& scenario,
                                                const std::string& policy,
                                                std::size_t runs, std::uint64_t seed = 7);

/// Single deterministic run (round-robin deployment) with per-minute series
/// recorded — used by the figure benches that plot time series.
[[nodiscard]] sim::RunResult run_policy_single(const Scenario& scenario,
                                               const std::string& policy,
                                               std::uint64_t seed = 7);

/// Figure 6(a)-style improvement row of `ours` relative to `baseline`:
/// positive service-time/cost values mean we are cheaper/faster; the
/// accuracy value is the (usually slightly negative) relative change.
struct ImprovementRow {
  std::string policy;
  double service_time_pct = 0.0;
  double keepalive_cost_pct = 0.0;
  double accuracy_pct = 0.0;
};

[[nodiscard]] ImprovementRow improvement_over(const PolicySummary& baseline,
                                              const PolicySummary& ours);

}  // namespace pulse::exp
