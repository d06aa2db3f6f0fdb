#include "sim/engine.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <vector>

namespace pulse::sim {

namespace {

/// MemoryHistory backed by the engine's growing per-minute record.
class RecordedHistory final : public MemoryHistory {
 public:
  explicit RecordedHistory(const std::vector<double>& record) : record_(&record) {}

  [[nodiscard]] double memory_at(trace::Minute t) const override {
    if (t < 0 || static_cast<std::size_t>(t) >= record_->size()) return 0.0;
    return (*record_)[static_cast<std::size_t>(t)];
  }

  [[nodiscard]] trace::Minute now() const override {
    return static_cast<trace::Minute>(record_->size());
  }

 private:
  const std::vector<double>* record_;
};

using Clock = std::chrono::steady_clock;

// Stream tags of the hashed (EngineConfig::hashed_rng) per-invocation
// draws. Disjoint from the FaultInjector's stream tags so fault decisions
// and sampling never correlate.
constexpr std::uint64_t kHashLatencyStream = 0x1a7e'2c91;
constexpr std::uint64_t kHashAccuracyStream = 0x0acc'0117;
constexpr std::uint64_t kHashEvictStream = 0xeb1c'7005;

/// One key per invocation: minute in the high bits, the minute's invocation
/// index in the low 32 (counts are std::uint32_t, so the packing is exact).
[[nodiscard]] constexpr std::uint64_t invocation_key(trace::Minute t,
                                                     std::uint32_t i) noexcept {
  return (static_cast<std::uint64_t>(t) << 32) | i;
}

}  // namespace

SimulationEngine::SimulationEngine(const Deployment& deployment, const trace::Trace& trace,
                                   EngineConfig config)
    : deployment_(&deployment), trace_(&trace), config_(config) {
  if (deployment.function_count() != trace.function_count()) {
    throw std::invalid_argument(
        "SimulationEngine: deployment/trace function count mismatch");
  }
}

RunResult SimulationEngine::run(KeepAlivePolicy& policy) {
  SteppedRun stepped(*deployment_, *trace_, config_, policy);
  return stepped.finish();
}

SteppedRun::SteppedRun(const Deployment& deployment, const trace::Trace& trace,
                       EngineConfig config, KeepAlivePolicy& policy)
    : deployment_(&deployment),
      trace_(&trace),
      config_(config),
      policy_(&policy),
      schedule_(deployment, trace.duration()),
      latency_rng_(config.seed, /*stream=*/0xc0ffee),
      accuracy_rng_(config.seed, /*stream=*/0xacc),
      eviction_rng_(config.seed, /*stream=*/0xeb1c7),
      injector_(config.faults) {
  if (deployment.function_count() != trace.function_count()) {
    throw std::invalid_argument("SteppedRun: deployment/trace function count mismatch");
  }
  if (config_.global_ids != nullptr &&
      config_.global_ids->size() != trace.function_count()) {
    throw std::invalid_argument("SteppedRun: global_ids/trace function count mismatch");
  }
  const trace::Minute duration = trace.duration();
  memory_record_.reserve(static_cast<std::size_t>(duration));
  // Capacity-pressured minutes fill this with every kept container; sizing
  // it up front keeps even a late first pressure event allocation-free
  // (the serve-mode hot-path discipline bench_serve_latency enforces).
  kept_buffer_.reserve(deployment.function_count());
  history_ = std::make_unique<RecordedHistory>(memory_record_);
  faults_on_ = injector_.config().enabled();

  const obs::Observer& obs = config_.observer;
  policy_->attach_observer(obs.any() ? &config_.observer : nullptr);

  if (config_.record_series) {
    result_.keepalive_memory_mb.reserve(static_cast<std::size_t>(duration));
    result_.keepalive_cost_usd.reserve(static_cast<std::size_t>(duration));
    result_.ideal_cost_usd.reserve(static_cast<std::size_t>(duration));
  }
  if (config_.record_per_function) {
    result_.per_function.assign(trace.function_count(), FunctionMetrics{});
  }

  // Looked up once; per-minute updates are then a pointer check away.
  alive_hist_ = obs.metrics != nullptr
                    ? &obs.metrics->histogram("engine.alive_containers", 512)
                    : nullptr;

  // Same discipline for the finish-time fold: every engine.* name resolves
  // here, exactly once, into the handle bundle.
  if (obs.metrics != nullptr) {
    obs::MetricsRegistry& m = *obs.metrics;
    metric_handles_.runs.bind(m, "engine.runs");
    metric_handles_.invocations.bind(m, "engine.invocations");
    metric_handles_.warm_starts.bind(m, "engine.warm_starts");
    metric_handles_.cold_starts.bind(m, "engine.cold_starts");
    metric_handles_.downgrades.bind(m, "engine.downgrades");
    metric_handles_.capacity_evictions.bind(m, "engine.capacity_evictions");
    metric_handles_.crash_evictions.bind(m, "engine.crash_evictions");
    metric_handles_.failed_invocations.bind(m, "engine.failed_invocations");
    metric_handles_.retries.bind(m, "engine.retries");
    metric_handles_.timeouts.bind(m, "engine.timeouts");
    metric_handles_.degraded_minutes.bind(m, "engine.degraded_minutes");
    metric_handles_.guard_incidents.bind(m, "engine.guard_incidents");
    metric_handles_.service_time_s.bind(m, "engine.service_time_s");
    metric_handles_.keepalive_cost_usd.bind(m, "engine.keepalive_cost_usd");
    metric_handles_.peak_keepalive_memory_mb.bind(m, "engine.peak_keepalive_memory_mb",
                                                  obs::GaugeMerge::kMax);
    if (config_.top_k_function_metrics > 0) {
      fn_cold_starts_.assign(trace.function_count(), 0);
      fn_evictions_.assign(trace.function_count(), 0);
    }
  }

  policy_->initialize(deployment, trace, schedule_);
}

SteppedRun::~SteppedRun() = default;

trace::Minute SteppedRun::duration() const noexcept { return trace_->duration(); }

double SteppedRun::keepalive_memory_mb(trace::Minute t) const noexcept {
  if (t < 0 || static_cast<std::size_t>(t) >= memory_record_.size()) return 0.0;
  return memory_record_[static_cast<std::size_t>(t)];
}

void SteppedRun::run_until(trace::Minute end) {
  const trace::Minute stop = std::min(end, trace_->duration());
  if (next_minute_ >= stop) return;
  // One kSimulate span per advancing slice: a run driven straight to the
  // end records exactly one call, like the historical monolithic run().
  const obs::PhaseTimer timer(config_.observer.profiler, obs::Phase::kSimulate);
  while (next_minute_ < stop) {
    step_minute();
    ++next_minute_;
  }
}

void SteppedRun::step_minute() {
  const trace::Trace& tr = *trace_;
  const Deployment& dep = *deployment_;
  KeepAlivePolicy& policy = *policy_;
  KeepAliveSchedule& schedule = schedule_;
  RunResult& result = result_;
  const fault::FaultInjector& injector = injector_;
  const bool faults_on = faults_on_;
  const bool hashed = config_.hashed_rng;
  const std::vector<trace::FunctionId>* const gids = config_.global_ids;

  const obs::Observer& obs = config_.observer;
  obs::TraceSink* const sink = obs.sink;

  const trace::Minute t = next_minute_;
  double ideal_cost_t = 0.0;
  bool minute_degraded = false;

  // Injected container crashes fire at the minute boundary: the crashed
  // container's remaining keep-alive stretch is evicted, so this minute's
  // invocations (if any) go cold.
  if (faults_on && injector.config().crash_rate > 0.0) {
    schedule.for_each_alive(t, [&](trace::FunctionId f, std::size_t variant) {
      const trace::FunctionId gf = gids != nullptr ? (*gids)[f] : f;
      if (injector.container_crashes(gf, t)) {
        schedule.evict_from(f, t);
        ++result.crash_evictions;
        if (!fn_evictions_.empty()) ++fn_evictions_[f];
        minute_degraded = true;
        if (sink != nullptr) {
          sink->record({obs::EventType::kCrashEviction, t, gf,
                        static_cast<std::int32_t>(variant), 1.0, ""});
        }
      }
    });
  }

  for (trace::FunctionId f = 0; f < tr.function_count(); ++f) {
    const std::uint32_t count = tr.count(f, t);
    if (count == 0) continue;
    const trace::FunctionId gf = gids != nullptr ? (*gids)[f] : f;

    const models::ModelFamily& family = dep.family_of(f);
    const int alive = schedule.variant_at(f, t);
    std::size_t serving;
    bool first_is_cold;
    if (alive != kNoVariant) {
      serving = static_cast<std::size_t>(alive);
      first_is_cold = false;
    } else {
      serving = policy.cold_start_variant(f, t, dep);
      first_is_cold = true;
      // The cold-started container exists for the rest of this minute and
      // counts toward keep-alive memory at t.
      schedule.set(f, t, static_cast<int>(serving));
    }

    // Injected cold-start failures: bounded retry with exponential
    // backoff; exhausting every retry fails the whole minute's
    // invocations (no container exists to serve them).
    bool served = true;
    double cold_retry_penalty_s = 0.0;
    if (first_is_cold && faults_on) {
      const fault::ColdStartOutcome cs = injector.cold_start(gf, t);
      result.retries += cs.retries;
      cold_retry_penalty_s = cs.retry_penalty_s;
      if (cs.retries > 0 || !cs.succeeded) minute_degraded = true;
      if (!cs.succeeded) {
        served = false;
        schedule.clear(f, t);  // the provisional container never started
        result.failed_invocations += count;
      }
      if (sink != nullptr && cs.retries > 0) {
        sink->record({obs::EventType::kFault, t, gf, static_cast<std::int32_t>(serving),
                      static_cast<double>(cs.retries), "cold_start_retry"});
      }
    }

    if (sink != nullptr) {
      if (served) {
        sink->record({first_is_cold ? obs::EventType::kColdStart
                                    : obs::EventType::kWarmStart,
                      t, gf, static_cast<std::int32_t>(serving),
                      static_cast<double>(count), ""});
      } else {
        sink->record({obs::EventType::kFault, t, gf, static_cast<std::int32_t>(serving),
                      static_cast<double>(count), "cold_start_failure"});
      }
    }

    if (served) {
      const models::ModelVariant& variant = family.variant(serving);
      for (std::uint32_t i = 0; i < count; ++i) {
        const bool cold = first_is_cold && i == 0;
        double service_s;
        if (config_.deterministic_latency) {
          service_s = models::LatencyModel::expected_service_time(variant, cold);
        } else if (hashed) {
          // A function's jitter depends only on its own coordinates: one
          // short-lived generator per invocation, keyed by the catalog-
          // global id. See EngineConfig::hashed_rng.
          util::Pcg32 draw(util::hash_u64(config_.seed, kHashLatencyStream,
                                          static_cast<std::uint64_t>(gf),
                                          invocation_key(t, i)),
                           kHashLatencyStream);
          service_s = config_.latency.sample_service_time(variant, cold, draw);
        } else {
          service_s = config_.latency.sample_service_time(variant, cold, latency_rng_);
        }
        double accuracy_credit;
        if (!config_.bernoulli_accuracy) {
          accuracy_credit = variant.accuracy_pct;
        } else if (hashed) {
          accuracy_credit =
              util::hash_uniform(config_.seed, kHashAccuracyStream,
                                 static_cast<std::uint64_t>(gf), invocation_key(t, i)) <
                      variant.accuracy_fraction()
                  ? 100.0
                  : 0.0;
        } else {
          accuracy_credit =
              accuracy_rng_.bernoulli(variant.accuracy_fraction()) ? 100.0 : 0.0;
        }
        if (cold) service_s += cold_retry_penalty_s;
        if (faults_on) {
          // Per-variant SLO: the client abandons at the deadline, so the
          // time is clipped there and no accuracy is delivered.
          const double slo = injector.timeout_slo_s(
              models::LatencyModel::expected_service_time(variant, cold));
          if (slo > 0.0 && service_s > slo) {
            service_s = slo;
            accuracy_credit = 0.0;
            ++result.timeouts;
            minute_degraded = true;
            if (sink != nullptr) {
              sink->record({obs::EventType::kFault, t, gf,
                            static_cast<std::int32_t>(serving), slo, "slo_timeout"});
            }
          }
        }
        result.total_service_time_s += service_s;
        result.accuracy_pct_sum += accuracy_credit;
        ++result.invocations;
        if (cold) {
          ++result.cold_starts;
          if (!fn_cold_starts_.empty()) ++fn_cold_starts_[f];
        } else {
          ++result.warm_starts;
        }
        if (config_.record_service_samples) {
          result.service_time_samples.push_back(service_s);
        }
        if (config_.record_per_function) {
          FunctionMetrics& fm = result.per_function[f];
          ++fm.invocations;
          cold ? ++fm.cold_starts : ++fm.warm_starts;
          fm.service_time_s += service_s;
          fm.accuracy_pct_sum += accuracy_credit;
        }
      }
    }

    // The ideal reference keeps the highest-quality model alive exactly
    // during invocation minutes (Figure 6b's ideal line). It is fault-free
    // by definition, so failed minutes still accrue it.
    ideal_cost_t += config_.cost_model.keepalive_cost_usd(family.highest().memory_mb, 1.0);

    // The policy observes the arrival even when the platform failed to
    // serve it — predictors track demand, not fulfillment.
    if (config_.measure_overhead) {
      const auto start = Clock::now();
      policy.on_invocation(f, t, schedule);
      result.policy_overhead_s +=
          std::chrono::duration<double>(Clock::now() - start).count();
    } else {
      policy.on_invocation(f, t, schedule);
    }
  }

  if (config_.measure_overhead) {
    const auto start = Clock::now();
    policy.end_of_minute(t, schedule, *history_);
    result.policy_overhead_s += std::chrono::duration<double>(Clock::now() - start).count();
  } else {
    policy.end_of_minute(t, schedule, *history_);
  }

  // Capacity pressure: the platform evicts random kept containers until
  // keep-alive memory fits (the provider baseline behaviour under memory
  // stress; PULSE-style policies flatten before this fires). Injected
  // memory-pressure spikes temporarily tighten the capacity.
  double capacity_mb = config_.memory_capacity_mb;
  if (faults_on) {
    capacity_mb = injector.effective_capacity_mb(capacity_mb, t);
    if (injector.under_memory_pressure(t)) minute_degraded = true;
  }
  // memory_at is O(1) (no per-iteration rescan), and evicting a victim only
  // changes that victim's row, so the alive list is built once and
  // maintained by erasing the victim — bit-identical to rebuilding it, at
  // O(evictions) instead of O(F * evictions).
  if (capacity_mb > 0.0 && schedule.memory_at(t) > capacity_mb) {
    if (sink != nullptr) {
      sink->record({obs::EventType::kCapacityPressure, t, obs::TraceEvent::kNoFunction,
                    -1, schedule.memory_at(t) - capacity_mb, ""});
    }
    schedule.kept_alive_at(t, kept_buffer_);
    std::uint32_t evict_ordinal = 0;
    while (!kept_buffer_.empty()) {
      std::uint32_t idx;
      if (hashed) {
        // Victim picks keyed by (minute, ordinal): independent of how many
        // evictions earlier minutes performed, hence reproducible whatever
        // quota trajectory the cluster market applied before this minute.
        util::Pcg32 draw(util::hash_u64(config_.seed, kHashEvictStream,
                                        static_cast<std::uint64_t>(t), evict_ordinal),
                         kHashEvictStream);
        idx = draw.bounded(static_cast<std::uint32_t>(kept_buffer_.size()));
        ++evict_ordinal;
      } else {
        idx = eviction_rng_.bounded(static_cast<std::uint32_t>(kept_buffer_.size()));
      }
      const auto victim = kept_buffer_[static_cast<std::size_t>(idx)];
      schedule.evict_from(victim.first, t);
      kept_buffer_.erase(kept_buffer_.begin() + idx);
      ++result.capacity_evictions;
      if (!fn_evictions_.empty()) ++fn_evictions_[victim.first];
      if (sink != nullptr) {
        sink->record({obs::EventType::kEviction, t,
                      gids != nullptr ? (*gids)[victim.first] : victim.first,
                      static_cast<std::int32_t>(victim.second), 1.0, "capacity"});
      }
      if (schedule.memory_at(t) <= capacity_mb) break;
    }
  }
  if (minute_degraded) ++result.degraded_minutes;

  const double memory_t = schedule.memory_at(t);
  const double cost_t = config_.cost_model.keepalive_cost_usd(memory_t, 1.0);
  result.total_keepalive_cost_usd += cost_t;
  memory_record_.push_back(memory_t);
  const bool sample_minute = sink != nullptr && config_.emit_minute_samples;
  if (alive_hist_ != nullptr || sample_minute) {
    const std::size_t alive_n = schedule.alive_count_at(t);
    if (alive_hist_ != nullptr) alive_hist_->add(alive_n);
    if (sample_minute) {
      // End-of-minute aggregate: the replayer's cost-curve anchor. value
      // carries the exact memory double (%.17g survives the JSONL round
      // trip), variant the alive container count.
      sink->record({obs::EventType::kMinuteSample, t, obs::TraceEvent::kNoFunction,
                    static_cast<std::int32_t>(alive_n), memory_t, ""});
    }
  }

  if (config_.record_series) {
    result.keepalive_memory_mb.push_back(memory_t);
    result.keepalive_cost_usd.push_back(cost_t);
    result.ideal_cost_usd.push_back(ideal_cost_t);
  }
}

RunCheckpoint SteppedRun::checkpoint() const {
  return RunCheckpoint{next_minute_,  config_.memory_capacity_mb,
                       result_,       schedule_,
                       memory_record_, latency_rng_,
                       accuracy_rng_, eviction_rng_,
                       policy_->checkpoint()};
}

void SteppedRun::restore(const RunCheckpoint& snapshot) {
  if (finished_) {
    throw std::logic_error("SteppedRun::restore: run already finished");
  }
  next_minute_ = snapshot.minute;
  config_.memory_capacity_mb = snapshot.memory_capacity_mb;
  result_ = snapshot.result;
  schedule_ = snapshot.schedule;
  memory_record_ = snapshot.memory_record;
  latency_rng_ = snapshot.latency_rng;
  accuracy_rng_ = snapshot.accuracy_rng;
  eviction_rng_ = snapshot.eviction_rng;
  policy_->restore(snapshot.policy.get());
}

void SteppedRun::replay_until(trace::Minute end) {
  // Muting config_.observer in place silences the engine's own emission,
  // but policies (and helpers like the PULSE optimizer) bind metric-handle
  // bundles at attach time — their resolved registry pointers outlive any
  // in-place mute. Detach for the replayed span and re-attach after, so
  // the handles unbind and the replay double-counts nothing.
  const obs::Observer saved_observer = config_.observer;
  util::IntHistogram* const saved_hist = alive_hist_;
  // The top-K tallies counted the rolled-back span in the original pass,
  // so they go quiet with the rest of the emission during replay.
  std::vector<std::uint64_t> saved_cold = std::move(fn_cold_starts_);
  std::vector<std::uint64_t> saved_evict = std::move(fn_evictions_);
  config_.observer = obs::Observer{};
  alive_hist_ = nullptr;
  fn_cold_starts_.clear();
  fn_evictions_.clear();
  policy_->attach_observer(nullptr);
  const auto reattach = [&] {
    config_.observer = saved_observer;
    alive_hist_ = saved_hist;
    fn_cold_starts_ = std::move(saved_cold);
    fn_evictions_ = std::move(saved_evict);
    policy_->attach_observer(config_.observer.any() ? &config_.observer : nullptr);
  };
  try {
    run_until(end);
  } catch (...) {
    reattach();
    throw;
  }
  reattach();
}

std::uint64_t SteppedRun::lose_warm_pool(trace::Minute t) {
  std::uint64_t lost = 0;
  schedule_.for_each_alive(t, [&](trace::FunctionId, std::size_t) { ++lost; });
  // Everything scheduled from t onward dies with the shard: the alive
  // containers (charged as crash evictions) and any planned keep-alive.
  for (trace::FunctionId f = 0; f < trace_->function_count(); ++f) {
    schedule_.clear_from(f, t);
  }
  result_.crash_evictions += lost;
  return lost;
}

std::uint64_t SteppedRun::run_outage(trace::Minute end) {
  const trace::Trace& tr = *trace_;
  const trace::Minute stop = std::min(end, tr.duration());
  const std::vector<trace::FunctionId>* const gids = config_.global_ids;
  obs::TraceSink* const sink = config_.observer.sink;
  std::uint64_t failed = 0;

  while (next_minute_ < stop) {
    const trace::Minute t = next_minute_;
    double ideal_cost_t = 0.0;
    for (trace::FunctionId f = 0; f < tr.function_count(); ++f) {
      const std::uint32_t count = tr.count(f, t);
      if (count == 0) continue;
      // The ideal reference is fault-free by definition, so outage minutes
      // still accrue it — exactly like failed minutes in step_minute().
      ideal_cost_t += config_.cost_model.keepalive_cost_usd(
          deployment_->family_of(f).highest().memory_mb, 1.0);
      result_.failed_invocations += count;
      failed += count;
      if (sink != nullptr) {
        sink->record({obs::EventType::kFault, t, gids != nullptr ? (*gids)[f] : f, -1,
                      static_cast<double>(count), "shard_outage"});
      }
    }
    ++result_.degraded_minutes;

    // The control plane outlives the worker: minute-indexed policy state
    // (demand histories, forecast periods) stays aligned with the clock,
    // and windows it schedules past the outage become recovery pre-warms.
    // Arrivals were lost, so on_invocation is never called.
    policy_->end_of_minute(t, schedule_, *history_);

    // A dead shard holds nothing warm: zero memory, zero keep-alive cost.
    memory_record_.push_back(0.0);
    if (alive_hist_ != nullptr) alive_hist_->add(0);
    if (sink != nullptr && config_.emit_minute_samples) {
      sink->record({obs::EventType::kMinuteSample, t, obs::TraceEvent::kNoFunction, 0, 0.0,
                    ""});
    }
    if (config_.record_series) {
      result_.keepalive_memory_mb.push_back(0.0);
      result_.keepalive_cost_usd.push_back(0.0);
      result_.ideal_cost_usd.push_back(ideal_cost_t);
    }
    ++next_minute_;
  }
  return failed;
}

RunResult SteppedRun::finish() { return finish_at(trace_->duration()); }

RunResult SteppedRun::finish_at(trace::Minute end) {
  if (finished_) {
    throw std::logic_error("SteppedRun::finish: already finished");
  }
  run_until(end);
  finished_ = true;

  RunResult& result = result_;
  result.downgrades = policy_->downgrade_count();
  result.guard_incidents = policy_->incident_count();

  // Fold the run's aggregates into the registry (zero hot-path cost: one
  // batch of pointer adds through the pre-resolved handle bundle) and
  // snapshot it into the result.
  const obs::Observer& obs = config_.observer;
  if (obs.metrics != nullptr) {
    MetricsHandles& h = metric_handles_;
    h.runs.bump();
    h.invocations.bump(result.invocations);
    h.warm_starts.bump(result.warm_starts);
    h.cold_starts.bump(result.cold_starts);
    h.downgrades.bump(result.downgrades);
    h.capacity_evictions.bump(result.capacity_evictions);
    h.crash_evictions.bump(result.crash_evictions);
    h.failed_invocations.bump(result.failed_invocations);
    h.retries.bump(result.retries);
    h.timeouts.bump(result.timeouts);
    h.degraded_minutes.bump(result.degraded_minutes);
    h.guard_incidents.bump(result.guard_incidents);
    h.service_time_s.bump(result.total_service_time_s);
    h.keepalive_cost_usd.bump(result.total_keepalive_cost_usd);
    double peak = 0.0;
    for (const double v : memory_record_) peak = std::max(peak, v);
    h.peak_keepalive_memory_mb.bump(peak);
    h.runs.flush();
    h.invocations.flush();
    h.warm_starts.flush();
    h.cold_starts.flush();
    h.downgrades.flush();
    h.capacity_evictions.flush();
    h.crash_evictions.flush();
    h.failed_invocations.flush();
    h.retries.flush();
    h.timeouts.flush();
    h.degraded_minutes.flush();
    h.guard_incidents.flush();
    h.service_time_s.flush();
    h.keepalive_cost_usd.flush();
    h.peak_keepalive_memory_mb.flush();
    fold_top_k(*obs.metrics);
    result.metrics = obs.metrics->snapshot();
  }
  return std::move(result_);
}

void SteppedRun::fold_top_k(obs::MetricsRegistry& m) const {
  if (fn_cold_starts_.empty()) return;
  const std::vector<trace::FunctionId>* const gids = config_.global_ids;
  const auto fold = [&](const char* prefix, const std::vector<std::uint64_t>& tallies) {
    // Rank by count descending, ties by ascending catalog-global id — a
    // total order, so the reported set is deterministic.
    std::vector<std::pair<std::uint64_t, trace::FunctionId>> ranked;
    for (trace::FunctionId f = 0; f < tallies.size(); ++f) {
      if (tallies[f] == 0) continue;
      ranked.emplace_back(tallies[f], gids != nullptr ? (*gids)[f] : f);
    }
    std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
      return a.first != b.first ? a.first > b.first : a.second < b.second;
    });
    if (ranked.size() > config_.top_k_function_metrics) {
      ranked.resize(config_.top_k_function_metrics);
    }
    for (const auto& [count, gid] : ranked) {
      m.counter(std::string(prefix) + std::to_string(gid)).add(count);
    }
  };
  fold("engine.topk.cold_starts.", fn_cold_starts_);
  fold("engine.topk.evictions.", fn_evictions_);
}

}  // namespace pulse::sim
