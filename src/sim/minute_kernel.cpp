#include "sim/minute_kernel.hpp"

#include <bit>
#include <cmath>
#include <stdexcept>
#include <string>

namespace pulse::sim {

MinuteKernel::MinuteKernel(const Deployment& deployment, const trace::Trace& trace,
                           KeepAlivePolicy& policy, RunTotals& totals, const RunConfig& config,
                           const std::vector<trace::FunctionId>* global_ids)
    : schedule_(deployment, trace.duration()),
      latency_(deployment, config.latency),
      deterministic_latency_(config.deterministic_latency),
      totals_(&totals),
      observer_(config.observer),
      policy_(&policy),
      policy_calls_(policy, config.observer.profiler),
      injector_(config.faults),
      faults_on_(config.faults.enabled()),
      seed_(config.seed),
      global_ids_(global_ids) {
  // step() would evict every kept container under a NaN capacity and read
  // a negative one as unlimited.
  if (!std::isfinite(config.memory_capacity_mb) || config.memory_capacity_mb < 0.0) {
    throw std::invalid_argument("MinuteKernel: memory_capacity_mb must be finite and >= 0, not " +
                                std::to_string(config.memory_capacity_mb));
  }
  const std::size_t functions = deployment.function_count();
  if (functions != trace.function_count()) {
    throw std::invalid_argument("MinuteKernel: deployment/trace function count mismatch");
  }
  if (global_ids != nullptr && global_ids->size() != functions) {
    throw std::invalid_argument("MinuteKernel: global_ids/trace function count mismatch");
  }
  streams_.reserve(functions);
  for (trace::FunctionId f = 0; f < functions; ++f) {
    streams_.push_back(util::function_stream(seed_, global_id(f), util::kJitterStream));
  }
  // Capacity-pressured minutes fill this with every kept container; sizing
  // it up front keeps even a late first pressure event allocation-free
  // (the serve-mode hot-path discipline tests/memory enforces).
  kept_.reserve(functions);
  live_tree_.reserve(functions + 1);
  record_.reserve(static_cast<std::size_t>(trace.duration()));

  lane_ = obs::own_lane(config.observer.sink, collector_);
  observer_.sink = lane_;
  policy.attach_observer(observer_.any() ? &observer_ : nullptr);
  policy.initialize(deployment, trace, schedule_);
}

void MinuteKernel::close_minute(double memory_mb) {
  if (degraded_) ++totals_->degraded_minutes;
  degraded_ = false;
  record_.push_back(memory_mb);
}

fault::ColdStartOutcome MinuteKernel::start_cold(trace::FunctionId gf, trace::Minute t,
                                                 std::size_t variant, std::uint32_t count) {
  if (!faults_on_) return {};
  // Bounded retry with exponential backoff; exhausting every retry fails
  // the invocations (no container exists to serve them).
  const fault::ColdStartOutcome cs = injector_.cold_start(gf, t);
  totals_->retries += cs.retries;
  if (cs.retries > 0) {
    degraded_ = true;
    emit(obs::EventType::kFault, t, gf, static_cast<std::int32_t>(variant),
         static_cast<double>(cs.retries), "cold_start_retry");
  }
  if (!cs.succeeded) {
    fail(gf, t, static_cast<std::int32_t>(variant), count, "cold_start_failure");
  }
  return cs;
}

void MinuteKernel::finish(std::string_view prefix) {
  if (collector_) collector_->finish();
  RunTotals& r = *totals_;
  r.guard_incidents = policy_->incident_count();
  r.downgrades = policy_->downgrade_count();
  // One batch of registry adds at the end of the run: zero hot-path cost.
  if (obs::MetricsRegistry* const m = observer_.metrics) {
    const std::string p(prefix);
    m->counter(p + ".runs").add(1);
    m->counter(p + ".invocations").add(r.invocations);
    m->counter(p + ".warm_starts").add(r.warm_starts);
    m->counter(p + ".cold_starts").add(r.cold_starts);
    m->counter(p + ".downgrades").add(r.downgrades);
    m->counter(p + ".failed_invocations").add(r.failed_invocations);
    m->counter(p + ".retries").add(r.retries);
    m->counter(p + ".timeouts").add(r.timeouts);
    m->counter(p + ".crash_evictions").add(r.crash_evictions);
    m->counter(p + ".capacity_evictions").add(r.capacity_evictions);
    m->counter(p + ".degraded_minutes").add(r.degraded_minutes);
    m->counter(p + ".guard_incidents").add(r.guard_incidents);
    m->gauge(p + ".service_time_s").add(r.total_service_time_s);
  }
}

void MinuteKernel::fail(trace::FunctionId gf, trace::Minute t, std::int32_t variant,
                        std::uint32_t count, const char* cause) {
  totals_->failed_invocations += count;
  degraded_ = true;
  emit(obs::EventType::kFault, t, gf, variant, static_cast<double>(count), cause);
}

std::uint32_t MinuteKernel::pick_victim(trace::Minute t, std::uint32_t ordinal,
                                        std::uint32_t live) const noexcept {
  // Victim picks keyed by (minute, ordinal): independent of how many
  // evictions earlier minutes performed, hence reproducible whatever quota
  // trajectory the cluster market applied before this minute.
  util::Pcg32 draw(util::hash_u64(seed_, kHashEvictStream, static_cast<std::uint64_t>(t),
                                  ordinal),
                   kHashEvictStream);
  return draw.bounded(live);
}

void MinuteKernel::reset_live() {
  // Every entry live: node i covers lowbit(i) positions.
  live_tree_.resize(kept_.size() + 1);
  live_tree_[0] = 0;
  for (std::size_t i = 1; i < live_tree_.size(); ++i) {
    live_tree_[i] = static_cast<std::uint32_t>(i & (~i + 1));
  }
}

std::size_t MinuteKernel::take_live(std::uint32_t idx) {
  const std::size_t n = live_tree_.size() - 1;
  // Descend to the largest position whose live prefix count is <= idx; the
  // entry after it is the idx-th live one.
  std::size_t pos = 0;
  std::uint32_t rank = idx;
  for (std::size_t step = std::bit_floor(n); step > 0; step >>= 1) {
    if (pos + step <= n && live_tree_[pos + step] <= rank) {
      pos += step;
      rank -= live_tree_[pos];
    }
  }
  for (std::size_t i = pos + 1; i <= n; i += i & (~i + 1)) --live_tree_[i];
  return pos;
}

}  // namespace pulse::sim
