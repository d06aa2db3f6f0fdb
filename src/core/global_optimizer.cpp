#include "core/global_optimizer.hpp"

#include <limits>
#include <stdexcept>
#include <string>

namespace pulse::core {

GlobalOptimizer::GlobalOptimizer(std::size_t model_count, Config config)
    : config_(config), detector_(config.peak), priority_(model_count) {
  // A peak minute can first occur arbitrarily late in a served stream;
  // sizing the flatten-round buffers up front keeps even that first peak
  // allocation-free (serve-mode hot-path discipline).
  kept_buffer_.reserve(model_count);
  kept_utility_.reserve(model_count);
}

UtilityComponents GlobalOptimizer::score(
    trace::FunctionId f, std::size_t variant, trace::Minute t,
    const sim::Deployment& deployment, const std::vector<InterArrivalTracker>& trackers) const {
  UtilityComponents u;
  u.accuracy_improvement = deployment.family_of(f).accuracy_improvement(variant);
  u.priority = priority_.normalized_priority(f);

  // Ip: probability the function is invoked during the remainder of its
  // current keep-alive window. The offset of "now" within the window comes
  // from the function's last invocation.
  const auto& tracker = trackers.at(f);
  if (const auto last = tracker.last_invocation()) {
    const trace::Minute offset = t - *last;
    if (offset < config_.keepalive_window) {
      u.invocation_probability = tracker.probability_within(
          static_cast<std::size_t>(offset + 1),
          static_cast<std::size_t>(config_.keepalive_window), t);
    }
  }
  return u;
}

std::size_t GlobalOptimizer::flatten_peak(trace::Minute t, sim::KeepAliveSchedule& schedule,
                                          const std::vector<InterArrivalTracker>& trackers) {
  const std::optional<double> prior = detect_peak(t, schedule);
  if (!prior) return 0;
  std::size_t downgrades = 0;

  obs::TraceSink* const sink = obs_ != nullptr ? obs_->sink : nullptr;

  // The kept list is built once and maintained across rounds: a downgrade
  // only changes the downgraded function's own entry (one variant lower, or
  // gone entirely), so updating that entry in place is bit-identical to
  // re-listing the schedule — without the per-round O(F) scan + allocation.
  const sim::Deployment& deployment = schedule.deployment();
  bool kept_built = false;
  while (detector_.is_peak(schedule.memory_at(t), *prior)) {
    if (!kept_built) {
      schedule.kept_alive_at(t, kept_buffer_);
      kept_utility_.clear();
      for (const auto& [f, variant] : kept_buffer_) {
        kept_utility_.push_back(score(f, variant, t, deployment, trackers));
      }
      kept_built = true;
    }
    if (kept_buffer_.empty()) break;  // nothing left to downgrade; peak cannot be flattened

    // Algorithm 2, line 4: this round's normalized priorities (Equation 1),
    // read for just the kept entries.
    std::size_t worst_idx = 0;
    double worst_uv = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < kept_buffer_.size(); ++i) {
      UtilityComponents& u = kept_utility_[i];
      u.priority = priority_.normalized_of(kept_buffer_[i].first);
      const double uv = u.value(config_.weights);
      if (uv < worst_uv) {
        worst_uv = uv;
        worst_idx = i;
      }
    }

    const trace::FunctionId worst_f = kept_buffer_[worst_idx].first;
    const auto prev = schedule.downgrade_from(worst_f, t);
    if (!prev) break;  // defensive: should not happen
    if (*prev > 0) {
      const auto lower = static_cast<std::size_t>(*prev - 1);
      kept_buffer_[worst_idx].second = lower;
      kept_utility_[worst_idx].accuracy_improvement =
          deployment.family_of(worst_f).accuracy_improvement(lower);
    } else {
      const auto at = static_cast<std::ptrdiff_t>(worst_idx);
      kept_buffer_.erase(kept_buffer_.begin() + at);
      kept_utility_.erase(kept_utility_.begin() + at);
    }
    priority_.record_downgrade(worst_f);
    ++downgrades;
    if (sink != nullptr) {
      sink->record({obs::EventType::kDowngrade, t, worst_f, *prev,
                    static_cast<double>(*prev - 1), "flatten_peak"});
    }
  }
  if (downgrades > 0) {
    // Unbound handles make these no-ops.
    metrics_.peak_minutes.add();
    metrics_.downgrades.add(downgrades);
  }
  return downgrades;
}

std::optional<double> GlobalOptimizer::detect_peak(trace::Minute t,
                                                   const sim::KeepAliveSchedule& schedule) {
  if (t != detector_.minutes_seen()) {
    throw std::logic_error("GlobalOptimizer::detect_peak: minute " + std::to_string(t) +
                           " is not the next minute " +
                           std::to_string(detector_.minutes_seen()));
  }
  // Compare this minute's demand, before any flattening, against the prior
  // derived from past demand, then record it.
  const double demand = schedule.memory_at(t);
  const double prior = detector_.prior_memory();
  detector_.push(demand);
  if (!detector_.is_peak(demand, prior)) return std::nullopt;
  return prior;
}

void GlobalOptimizer::set_observer(const obs::Observer* observer) {
  obs_ = observer;
  metrics_ = Metrics{};
  if (observer != nullptr && observer->metrics != nullptr) {
    metrics_.peak_minutes.bind(*observer->metrics, "optimizer.peak_minutes");
    metrics_.downgrades.bind(*observer->metrics, "optimizer.downgrades");
  }
}

}  // namespace pulse::core
