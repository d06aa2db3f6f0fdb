#include "policies/milp_policy.hpp"

#include <algorithm>
#include <optional>

namespace pulse::policies {

void MilpPolicy::initialize(const sim::Deployment& deployment, const trace::Trace& trace,
                            sim::KeepAliveSchedule& schedule) {
  (void)trace;
  (void)schedule;
  // The optimizer only detects peaks, scores and tallies here; MILP emits
  // its own milp.* metrics and events, so the optimizer gets no observer.
  const core::PulseLayer::Config config{};
  pulse_.initialize(config, deployment.function_count(), config.keepalive_window, nullptr);
}

void MilpPolicy::attach_observer(const obs::Observer* observer) {
  sim::KeepAlivePolicy::attach_observer(observer);
  metrics_handles_ = {};
  if (obs::MetricsRegistry* const m = metrics()) {
    metrics_handles_.solves.bind(*m, "milp.solves");
    metrics_handles_.solver_nodes.bind(*m, "milp.solver_nodes");
    metrics_handles_.downgrades.bind(*m, "milp.downgrades");
  }
}

void MilpPolicy::on_invocation(trace::FunctionId f, trace::Minute t,
                               sim::KeepAliveSchedule& schedule) {
  // Same function-centric optimization as PULSE: the comparison isolates
  // the cross-function step.
  pulse_.record(f, t);
  pulse_.schedule_window(f, t, 1, pulse_.config().keepalive_window, schedule);
}

void MilpPolicy::end_of_minute(trace::Minute t, sim::KeepAliveSchedule& schedule,
                               const sim::MemoryHistory& history) {
  (void)history;  // like PULSE, peaks are detected against demand memory
  core::GlobalOptimizer& optimizer = pulse_.optimizer();
  const std::optional<double> prior = optimizer.detect_peak(t, schedule);
  if (!prior) return;

  schedule.kept_alive_at(t, kept_buffer_);
  const auto& kept = kept_buffer_;
  if (kept.empty()) return;

  // Build the multiple-choice knapsack: for every kept model, the options
  // are its current variant or any lower one (an upgrade would raise
  // memory, never flatten a peak). Every option is scored before any
  // downgrade is applied. The budget is the highest keep-alive memory that
  // is not a peak.
  MilpProblem problem;
  problem.memory_budget_mb = *prior + pulse_.config().memory_threshold * *prior;
  // Paper-scale instances (~12 models) solve exactly well inside this
  // budget; it bounds worst-case latency for very large deployments.
  problem.node_limit = 5'000'000;
  problem.items.reserve(kept.size());
  const sim::Deployment& deployment = schedule.deployment();
  for (const auto& [f, current] : kept) {
    const auto& family = deployment.family_of(f);
    core::UtilityComponents u = optimizer.score(f, current, t, deployment, pulse_.trackers());
    std::vector<MilpOption> options;
    options.reserve(current + 1);
    for (std::size_t v = 0; v <= current; ++v) {
      u.accuracy_improvement = family.accuracy_improvement(v);
      options.push_back(MilpOption{u.value(), family.variant(v).memory_mb});
    }
    problem.items.push_back(std::move(options));
  }

  const MilpSolution solution = solve_milp(problem);
  solver_nodes_ += solution.nodes_explored;
  if (obs::TraceSink* const s = sink()) {
    s->record({obs::EventType::kPolicyDecision, t, obs::TraceEvent::kNoFunction, -1,
               static_cast<double>(solution.nodes_explored), "milp_solve"});
  }

  // Apply: drop or lower every model whose optimal choice is below its
  // current variant, from minute t onward.
  std::uint64_t applied = 0;
  for (std::size_t i = 0; i < kept.size(); ++i) {
    const auto [f, current] = kept[i];
    const int chosen = solution.choice[i];
    if (chosen == static_cast<int>(current)) continue;
    const int delta = static_cast<int>(current) - std::max(chosen, -1);
    // Lower (or clear) all scheduled minutes >= t by the same amount.
    // scheduled_end(f) bounds the walk: every later slot is kNoVariant.
    const trace::Minute end = std::min(schedule.duration(), schedule.scheduled_end(f));
    for (trace::Minute m = t; m < end; ++m) {
      const int v = schedule.variant_at(f, m);
      if (v == sim::kNoVariant) continue;
      const int lowered = v - delta;
      schedule.set(f, m, lowered >= 0 ? lowered : sim::kNoVariant);
    }
    optimizer.record_downgrade(f);
    ++applied;
    if (obs::TraceSink* const s = sink()) {
      s->record({obs::EventType::kDowngrade, t, f, static_cast<std::int32_t>(current),
                 static_cast<double>(chosen), "milp"});
    }
  }
  metrics_handles_.solves.add();
  metrics_handles_.solver_nodes.add(solution.nodes_explored);
  if (applied > 0) metrics_handles_.downgrades.add(applied);
}

}  // namespace pulse::policies
