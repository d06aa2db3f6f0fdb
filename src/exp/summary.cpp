#include "exp/summary.hpp"

#include <utility>

#include "policies/factory.hpp"
#include "sim/engine.hpp"

namespace pulse::exp {

PolicySummary summarize(std::string policy, const sim::EnsembleResult& ensemble) {
  PolicySummary s;
  s.policy = std::move(policy);
  s.service_time_s = ensemble.mean_service_time_s();
  s.keepalive_cost_usd = ensemble.mean_keepalive_cost_usd();
  s.accuracy_pct = ensemble.mean_accuracy_pct();
  s.warm_fraction = ensemble.mean_warm_fraction();
  s.runs = ensemble.runs.size();
  return s;
}

PolicySummary run_policy_ensemble(const models::ModelZoo& zoo, const trace::Trace& trace,
                                  std::string label, const sim::PolicyFactory& factory,
                                  std::size_t runs, std::uint64_t seed) {
  sim::EnsembleConfig config;
  config.runs = runs;
  config.seed = seed;
  return summarize(std::move(label), sim::run_ensemble(zoo, trace, factory, config));
}

PolicySummary run_policy_ensemble(const Scenario& scenario, const std::string& policy,
                                  std::size_t runs, std::uint64_t seed) {
  return run_policy_ensemble(scenario.zoo, scenario.workload.trace, policy,
                             [&] { return policies::make_policy(policy); }, runs, seed);
}

sim::RunResult run_policy_single(const Scenario& scenario, const std::string& policy,
                                 std::uint64_t seed) {
  const sim::Deployment deployment = sim::Deployment::round_robin(
      scenario.zoo, scenario.workload.trace.function_count());
  sim::EngineConfig config;
  config.record_series = true;
  config.seed = seed;
  sim::SimulationEngine engine(deployment, scenario.workload.trace, config);
  auto p = policies::make_policy(policy);
  return engine.run(*p);
}

ImprovementRow improvement_over(const PolicySummary& baseline, const PolicySummary& ours) {
  ImprovementRow row;
  row.policy = ours.policy;
  row.service_time_pct = sim::improvement_pct(baseline.service_time_s, ours.service_time_s);
  row.keepalive_cost_pct =
      sim::improvement_pct(baseline.keepalive_cost_usd, ours.keepalive_cost_usd);
  row.accuracy_pct = sim::change_pct(baseline.accuracy_pct, ours.accuracy_pct);
  return row;
}

}  // namespace pulse::exp
