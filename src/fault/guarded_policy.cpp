#include "fault/guarded_policy.hpp"

#include <exception>
#include <stdexcept>

namespace pulse::fault {

GuardedPolicy::GuardedPolicy(std::unique_ptr<sim::KeepAlivePolicy> inner)
    : inner_(std::move(inner)) {
  if (!inner_) throw std::invalid_argument("GuardedPolicy: inner policy is null");
}

std::string GuardedPolicy::name() const {
  try {
    return "Guarded(" + inner_->name() + ")";
  } catch (const std::exception&) {
    return "Guarded(?)";
  }
}

void GuardedPolicy::attach_observer(const obs::Observer* observer) {
  sim::KeepAlivePolicy::attach_observer(observer);
  inner_->attach_observer(observer);
  incident_counter_ = {};
  if (obs::MetricsRegistry* const m = metrics()) {
    incident_counter_.bind(*m, "guard.incidents");
  }
}

void GuardedPolicy::record_incident(trace::Minute t, const char* what) const {
  ++incidents_;
  if (!degraded_) {
    degraded_ = true;
    degraded_since_ = t;
    first_incident_ = what;
  }
  // The caught message is dynamic, so the event carries a static tag; the
  // first message itself stays available via first_incident().
  if (obs::TraceSink* const s = sink()) {
    s->record({obs::EventType::kFault, t, obs::TraceEvent::kNoFunction, -1,
               static_cast<double>(incidents_), "guard_incident"});
  }
  incident_counter_.add();
}

void GuardedPolicy::initialize(const sim::Deployment& deployment, const trace::Trace& trace,
                               sim::KeepAliveSchedule& schedule) {
  try {
    inner_->initialize(deployment, trace, schedule);
  } catch (const std::exception& e) {
    record_incident(0, e.what());
  }
}

void GuardedPolicy::on_invocation(trace::FunctionId f, trace::Minute t,
                                  sim::KeepAliveSchedule& schedule) {
  if (!degraded_) {
    try {
      inner_->on_invocation(f, t, schedule);
      return;
    } catch (const std::exception& e) {
      record_incident(t, e.what());
      // The inner policy may have left a partial window; the fallback fill
      // below overwrites the minutes that matter.
    }
  }
  const auto& family = schedule.deployment().family_of(f);
  schedule.fill(f, t + 1, t + 1 + trace::kKeepAliveWindow,
                static_cast<int>(family.highest_index()));
}

void GuardedPolicy::end_of_minute(trace::Minute t, sim::KeepAliveSchedule& schedule,
                                  const sim::MemoryHistory& history) {
  if (degraded_) return;  // the fixed fallback needs no end-of-minute work
  try {
    inner_->end_of_minute(t, schedule, history);
  } catch (const std::exception& e) {
    record_incident(t, e.what());
  }
}

std::size_t GuardedPolicy::cold_start_variant(trace::FunctionId f, trace::Minute t,
                                              const sim::Deployment& deployment) const {
  if (!degraded_) {
    try {
      return inner_->cold_start_variant(f, t, deployment);
    } catch (const std::exception& e) {
      record_incident(t, e.what());
    }
  }
  return deployment.family_of(f).highest_index();
}

std::uint64_t GuardedPolicy::downgrade_count() const {
  try {
    return inner_->downgrade_count();
  } catch (const std::exception&) {
    return 0;
  }
}

}  // namespace pulse::fault
