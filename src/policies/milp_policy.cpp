#include "policies/milp_policy.hpp"

#include <algorithm>

#include "core/utility.hpp"

namespace pulse::policies {

void MilpPolicy::initialize(const sim::Deployment& deployment, const trace::Trace& trace,
                            sim::KeepAliveSchedule& schedule) {
  (void)trace;
  (void)schedule;
  core::InterArrivalTracker::Config tracker_config;
  tracker_config.local_window = config_.local_window;
  trackers_.assign(deployment.function_count(), core::InterArrivalTracker(tracker_config));

  core::PeakDetector::Config peak_config;
  peak_config.memory_threshold = config_.memory_threshold;
  peak_config.local_window = config_.local_window;
  detector_ = std::make_unique<core::PeakDetector>(peak_config);
  priority_ = std::make_unique<core::PriorityStructure>(deployment.function_count());
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
  const obs::PhaseTimer timer(profiler(), obs::Phase::kSchedule);
  core::InterArrivalTracker& tracker = trackers_.at(f);
  tracker.record(t);
  const std::size_t variants = schedule.variant_count_of(f);
  for (trace::Minute d = 1; d <= config_.keepalive_window; ++d) {
    const double p = tracker.probability(static_cast<std::size_t>(d), t);
    const std::size_t v = core::select_variant(p, variants, config_.technique);
    schedule.set(f, t + d, static_cast<int>(v));
  }
}

std::size_t MilpPolicy::cold_start_variant(trace::FunctionId f, trace::Minute t,
                                           const sim::Deployment& deployment) const {
  if (f < trackers_.size()) {
    if (const auto last = trackers_[f].last_invocation()) {
      if (t - *last <= config_.keepalive_window) return 0;
    }
  }
  return deployment.family_of(f).highest_index();
}

void MilpPolicy::end_of_minute(trace::Minute t, sim::KeepAliveSchedule& schedule,
                               const sim::MemoryHistory& history) {
  (void)history;  // like PULSE, peaks are detected against demand memory
  const obs::PhaseTimer timer(profiler(), obs::Phase::kOptimize);
  while (demand_.now() < t) demand_.push(0.0);
  const double prior = detector_->prior_memory(demand_, t);
  demand_.push(schedule.memory_at(t));
  if (!detector_->is_peak(schedule.memory_at(t), prior)) return;

  schedule.kept_alive_at(t, kept_buffer_);
  const auto& kept = kept_buffer_;
  if (kept.empty()) return;

  // Memory budget: the highest keep-alive memory that is not a peak.
  const double budget = prior + detector_->config().memory_threshold * prior;

  // Build the multiple-choice knapsack: for every kept model, the options
  // are its current variant or any lower one (an upgrade would raise
  // memory, never flatten a peak).
  priority_->normalized_into(priority_buffer_);
  const std::vector<double>& pr = priority_buffer_;
  MilpProblem problem;
  problem.memory_budget_mb = budget;
  // Paper-scale instances (~12 models) solve exactly well inside this
  // budget; it bounds worst-case latency for very large deployments.
  problem.node_limit = 5'000'000;
  problem.items.reserve(kept.size());
  for (const auto& [f, current] : kept) {
    const auto& family = schedule.deployment().family_of(f);
    std::vector<MilpOption> options;
    options.reserve(current + 1);
    for (std::size_t v = 0; v <= current; ++v) {
      core::UtilityComponents u;
      u.accuracy_improvement = family.accuracy_improvement(v);
      u.priority = pr.at(f);
      if (const auto last = trackers_.at(f).last_invocation()) {
        const trace::Minute offset = t - *last;
        if (offset < config_.keepalive_window) {
          u.invocation_probability = trackers_.at(f).probability_within(
              static_cast<std::size_t>(offset + 1),
              static_cast<std::size_t>(config_.keepalive_window), t);
        }
      }
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
    priority_->record_downgrade(f);
    ++downgrades_;
    ++applied;
    if (obs::TraceSink* const s = sink()) {
      s->record({obs::EventType::kDowngrade, t, f, static_cast<std::int32_t>(current),
                 static_cast<double>(chosen), "milp"});
    }
  }
  // Solve boundary == minute boundary: fold the pending deltas through the
  // pre-resolved handles (no-ops when observability is disabled).
  metrics_handles_.solves.bump();
  metrics_handles_.solver_nodes.bump(solution.nodes_explored);
  if (applied > 0) metrics_handles_.downgrades.bump(applied);
  metrics_handles_.solves.flush();
  metrics_handles_.solver_nodes.flush();
  metrics_handles_.downgrades.flush();
}

}  // namespace pulse::policies
