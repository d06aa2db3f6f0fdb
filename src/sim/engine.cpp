#include "sim/engine.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "sim/cost_model.hpp"

namespace pulse::sim {

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
      kernel_(deployment, trace, policy, result_, config_, config_.global_ids) {
  const trace::Minute duration = trace.duration();
  if (config_.record_series) {
    result_.keepalive_memory_mb.reserve(static_cast<std::size_t>(duration));
    result_.keepalive_cost_usd.reserve(static_cast<std::size_t>(duration));
  }
  if (config_.record_per_function) {
    result_.per_function.assign(trace.function_count(), FunctionMetrics{});
  }
  if (config_.bernoulli_accuracy) {
    accuracy_rng_.reserve(trace.function_count());
    for (trace::FunctionId f = 0; f < trace.function_count(); ++f) {
      accuracy_rng_.push_back(
          util::function_stream(config_.seed, kernel_.global_id(f), util::kAccuracyStream));
    }
  }

  // Looked up once; per-minute updates are then a pointer check away.
  const obs::Observer& obs = config_.observer;
  alive_hist_ = obs.metrics != nullptr
                    ? &obs.metrics->histogram("engine.alive_containers", 512)
                    : nullptr;

  if (obs.metrics != nullptr && config_.top_k_function_metrics > 0) {
    fn_cold_starts_.assign(trace.function_count(), 0);
    fn_evictions_.assign(trace.function_count(), 0);
  }
}

trace::Minute SteppedRun::duration() const noexcept { return trace_->duration(); }

double SteppedRun::keepalive_memory_mb(trace::Minute t) const noexcept {
  return kernel_.memory_at(t);
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
  const trace::Minute t = next_minute_;
  kernel_.step(
      t, config_.memory_capacity_mb, [&] { serve_minute(t); },
      [&](trace::FunctionId f, Eviction) {
        if (!fn_evictions_.empty()) ++fn_evictions_[f];
      });
  const KeepAliveSchedule& schedule = kernel_.schedule();
  close_minute(t, schedule.memory_at(t), schedule.alive_count_at(t));
}

// The engine's serving rule: all of a minute's invocations of f share one
// container — the one kept alive at t, or a single cold start.
void SteppedRun::serve_minute(trace::Minute t) {
  const trace::Trace& tr = *trace_;
  const Deployment& dep = *deployment_;
  KeepAliveSchedule& schedule = kernel_.schedule();
  RunResult& result = result_;
  obs::EventLane* const sink = kernel_.lane();

  for (trace::FunctionId f = 0; f < tr.function_count(); ++f) {
    const std::uint32_t count = tr.count(f, t);
    if (count == 0) continue;
    const trace::FunctionId gf = kernel_.global_id(f);

    const models::ModelFamily& family = dep.family_of(f);
    const int alive = schedule.variant_at(f, t);
    std::size_t serving;
    bool first_is_cold;
    fault::ColdStartOutcome cs;
    if (alive != kNoVariant) {
      serving = static_cast<std::size_t>(alive);
      first_is_cold = false;
    } else {
      serving = kernel_.cold_start_variant(f, t);
      first_is_cold = true;
      // The cold-started container exists for the rest of this minute and
      // counts toward keep-alive memory at t — unless every start attempt
      // fails, which fails the whole minute's invocations.
      schedule.set(f, t, static_cast<int>(serving));
      cs = kernel_.start_cold(gf, t, serving, count);
      if (!cs.succeeded) schedule.clear(f, t);
    }

    if (cs.succeeded) {
      if (sink != nullptr) {
        sink->record({first_is_cold ? obs::EventType::kColdStart
                                    : obs::EventType::kWarmStart,
                      t, gf, static_cast<std::int32_t>(serving),
                      static_cast<double>(count), ""});
      }
      const models::ModelVariant& variant = family.variant(serving);
      const MinuteKernel::ServiceDraw draw = kernel_.service_draw(f, serving, variant);
      for (std::uint32_t i = 0; i < count; ++i) {
        const bool cold = first_is_cold && i == 0;
        double service_s = draw(cold);
        double accuracy_credit = variant.accuracy_pct;
        if (!accuracy_rng_.empty()) {
          accuracy_credit =
              accuracy_rng_[f].bernoulli(variant.accuracy_fraction()) ? 100.0 : 0.0;
        }
        if (cold) service_s += cs.retry_penalty_s;
        kernel_.clip_to_slo(gf, t, serving, variant, cold, service_s, accuracy_credit);
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

    // The policy observes the arrival even when the platform failed to
    // serve it — predictors track demand, not fulfillment.
    kernel_.on_invocation(f, t);
  }
}

void SteppedRun::close_minute(trace::Minute t, double memory_t, std::size_t alive_n) {
  kernel_.close_minute(memory_t);
  const double cost_t = keepalive_cost_usd(memory_t, 1.0);
  result_.total_keepalive_cost_usd += cost_t;
  if (alive_hist_ != nullptr) alive_hist_->add(alive_n);
  obs::EventLane* const sink = kernel_.lane();
  if (sink != nullptr && config_.emit_minute_samples) {
    // End-of-minute aggregate: the replayer's cost-curve anchor. value
    // carries the exact memory double (%.17g survives the JSONL round
    // trip), variant the alive container count.
    sink->record({obs::EventType::kMinuteSample, t, obs::TraceEvent::kNoFunction,
                  static_cast<std::int32_t>(alive_n), memory_t, ""});
  }
  if (config_.record_series) {
    result_.keepalive_memory_mb.push_back(memory_t);
    result_.keepalive_cost_usd.push_back(cost_t);
  }
}

std::uint64_t SteppedRun::lose_warm_pool(trace::Minute t) {
  const std::uint64_t lost = kernel_.schedule().alive_count_at(t);
  // Everything scheduled from t onward dies with the shard: the alive
  // containers (charged as crash evictions) and any planned keep-alive.
  for (trace::FunctionId f = 0; f < trace_->function_count(); ++f) {
    kernel_.schedule().clear_from(f, t);
  }
  result_.crash_evictions += lost;
  return lost;
}

std::uint64_t SteppedRun::run_outage(trace::Minute end) {
  const trace::Trace& tr = *trace_;
  const trace::Minute stop = std::min(end, tr.duration());
  const std::uint64_t failed_before = result_.failed_invocations;

  // The serving rule of a dead shard: every arrival fails. No crash sweep
  // or capacity eviction runs, since nothing is alive to act on.
  while (next_minute_ < stop) {
    const trace::Minute t = next_minute_;
    for (trace::FunctionId f = 0; f < tr.function_count(); ++f) {
      const std::uint32_t count = tr.count(f, t);
      if (count == 0) continue;
      kernel_.fail(kernel_.global_id(f), t, -1, count, "shard_outage");
    }
    kernel_.degrade();

    // The control plane outlives the worker: minute-indexed policy state
    // (the peak detector's demand stream, forecast periods) stays aligned
    // with the clock, and windows it schedules past the outage become
    // recovery pre-warms.
    // Arrivals were lost, so on_invocation is never called.
    kernel_.end_of_minute(t);

    // A dead shard holds nothing warm: zero memory, zero keep-alive cost.
    close_minute(t, 0.0, 0);
    ++next_minute_;
  }
  return result_.failed_invocations - failed_before;
}

RunResult SteppedRun::finish() { return finish_at(trace_->duration()); }

RunResult SteppedRun::finish_at(trace::Minute end) {
  if (finished_) {
    throw std::logic_error("SteppedRun::finish: already finished");
  }
  run_until(end);
  finished_ = true;
  if (config_.record_series) {
    // The ideal reference keeps the highest-quality model alive exactly
    // during invocation minutes (Figure 6b's ideal line). It depends only
    // on the trace and the deployment, and is fault-free by definition:
    // failed and outage minutes accrue it too.
    result_.ideal_cost_usd.assign(static_cast<std::size_t>(next_minute_), 0.0);
    for (trace::Minute t = 0; t < next_minute_; ++t) {
      for (trace::FunctionId f = 0; f < trace_->function_count(); ++f) {
        if (trace_->count(f, t) == 0) continue;
        result_.ideal_cost_usd[static_cast<std::size_t>(t)] +=
            keepalive_cost_usd(deployment_->family_of(f).highest().memory_mb, 1.0);
      }
    }
  }

  kernel_.finish("engine");
  RunResult& result = result_;
  result.policy_overhead_s = kernel_.policy_overhead_s();
  if (obs::MetricsRegistry* const m = config_.observer.metrics) {
    m->gauge("engine.keepalive_cost_usd").add(result.total_keepalive_cost_usd);
    double peak = 0.0;
    for (const double v : kernel_.record()) peak = std::max(peak, v);
    // kMax: ensemble merges take the max across slots instead of summing
    // per-slot peaks.
    m->gauge("engine.peak_keepalive_memory_mb", obs::GaugeMerge::kMax).max_with(peak);
    fold_top_k(*m);
    result.metrics = m->snapshot();
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
