#include "platform/platform.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <utility>

#include "obs/collector.hpp"
#include "sim/cost_model.hpp"
#include "sim/minute_kernel.hpp"
#include "util/rng.hpp"

namespace pulse::platform {

namespace {

struct Container {
  std::size_t variant = 0;
  double born_s = 0.0;      // creation time, seconds
  double busy_until_s = 0;  // <= now means idle
};

}  // namespace

PlatformSimulator::PlatformSimulator(const sim::Deployment& deployment,
                                     const trace::Trace& trace, PlatformConfig config)
    : deployment_(&deployment),
      trace_(&trace),
      config_(std::move(config)),
      latency_(deployment, config_.latency) {
  if (deployment.function_count() != trace.function_count()) {
    throw std::invalid_argument("PlatformSimulator: deployment/trace function count mismatch");
  }
}

PlatformResult PlatformSimulator::run(sim::KeepAlivePolicy& policy) {
  const trace::Trace& tr = *trace_;
  const sim::Deployment& dep = *deployment_;
  const trace::Minute duration = tr.duration();

  // Observability: all three handles are optional; `sink` is the only one
  // consulted on the per-second hot path, as a single null-check branch.
  // A sink that is not already a lane goes behind this run's own one-lane
  // collector, finished before the run returns.
  std::unique_ptr<obs::EventCollector> collector;
  obs::Observer obs = config_.observer;
  obs::EventLane* const sink = obs::own_lane(obs.sink, collector);
  obs.sink = sink;
  const obs::PhaseTimer run_timer(obs.profiler, obs::Phase::kSimulate);
  policy.attach_observer(obs.any() ? &obs : nullptr);
  sim::PolicyCallTimer policy_calls(policy, obs.profiler);

  PlatformResult result;
  sim::KeepAliveSchedule schedule(dep, duration);
  // The minute engine's kernel, seed and all: with matching schedules the
  // two layers crash, retry, clip and evict identically, and draw the same
  // per-function jitter streams.
  sim::MinuteKernel kernel(schedule, result.faults, obs, config_.faults,
                           config_.seed);

  std::vector<std::vector<Container>> pool(tr.function_count());
  std::size_t live_containers = 0;

  obs::HistogramHandle live_hist;  // resolved once; per-minute updates are pointer adds
  if (obs.metrics != nullptr) live_hist.bind(*obs.metrics, "platform.live_containers", 512);

  auto memory_of = [&](const Container& c, trace::FunctionId f) {
    return dep.family_of(f).variant(c.variant).memory_mb;
  };

  auto retire = [&](trace::FunctionId f, std::size_t index, double at_s) {
    const Container& c = pool[f][index];
    const double minutes = std::max(0.0, at_s - c.born_s) / 60.0;
    result.total_cost_usd += sim::keepalive_cost_usd(memory_of(c, f), minutes);
    pool[f][index] = pool[f].back();
    pool[f].pop_back();
    --live_containers;
  };

  auto spawn = [&](trace::FunctionId f, std::size_t variant, double at_s,
                   double busy_until_s) {
    pool[f].push_back(Container{variant, at_s, busy_until_s});
    ++result.containers_created;
    ++live_containers;
    result.peak_containers = std::max(result.peak_containers, live_containers);
  };

  auto total_memory = [&] {
    double mem = 0.0;
    for (trace::FunctionId f = 0; f < pool.size(); ++f) {
      for (const Container& c : pool[f]) mem += memory_of(c, f);
    }
    return mem;
  };

  policy.initialize(dep, tr, schedule);

  for (trace::Minute m = 0; m < duration; ++m) {
    const double minute_start_s = static_cast<double>(m) * kSecondsPerMinute;
    const double minute_end_s = minute_start_s + kSecondsPerMinute;

    // The serving rule: reconcile the warm pool with the schedule (after
    // the kernel's crash sweep, so a crashed container is reaped here and
    // this minute's invocations go cold), then serve every invocation from
    // the per-container pool at second granularity.
    const auto serve = [&] {
      for (trace::FunctionId f = 0; f < tr.function_count(); ++f) {
        const int scheduled = schedule.variant_at(f, m);
        // Reap idle containers that are unscheduled or of the wrong variant;
        // keep at most one matching idle container.
        bool kept_one = false;
        for (std::size_t i = pool[f].size(); i-- > 0;) {
          Container& c = pool[f][i];
          if (c.busy_until_s > minute_start_s) continue;  // executing: cannot kill
          const bool matches = scheduled != sim::kNoVariant &&
                               c.variant == static_cast<std::size_t>(scheduled);
          if (matches && !kept_one) {
            kept_one = true;
            continue;
          }
          retire(f, i, minute_start_s);
        }
        // Pre-warm the scheduled variant when no live container provides it.
        // The fresh container pays its cold-start provisioning time: it only
        // turns warm (idle) once the variant's cold start completes, so an
        // arrival inside the provisioning window still scales out.
        if (scheduled != sim::kNoVariant) {
          const auto v = static_cast<std::size_t>(scheduled);
          const bool present = std::any_of(pool[f].begin(), pool[f].end(),
                                           [&](const Container& c) { return c.variant == v; });
          if (!present) {
            const double provision_s = dep.family_of(f).variant(v).cold_start_time_s;
            spawn(f, v, minute_start_s, minute_start_s + provision_s);
            ++result.prewarm_starts;
            if (sink != nullptr) {
              sink->record({obs::EventType::kPrewarm, m, f, scheduled, provision_s, ""});
            }
          }
        }
      }

      for (trace::FunctionId f = 0; f < tr.function_count(); ++f) {
        const std::uint32_t count = tr.count(f, m);
        if (count == 0) continue;
        const models::ModelFamily& family = dep.family_of(f);
        util::Pcg32& rng = kernel.jitter_stream(f);

        for (std::uint32_t i = 0; i < count; ++i) {
          double arrival_s = minute_start_s;
          if (config_.spread_arrivals) {
            arrival_s += static_cast<double>(i) * kSecondsPerMinute /
                         static_cast<double>(count);
          }

          // Prefer an idle container (any variant the pool holds).
          Container* idle = nullptr;
          const bool any_live = !pool[f].empty();
          for (Container& c : pool[f]) {
            if (c.busy_until_s <= arrival_s) {
              idle = &c;
              break;
            }
          }

          double service_s;
          std::size_t served_variant;
          const bool cold = idle == nullptr;
          if (!cold) {
            served_variant = idle->variant;
            const auto& variant = family.variant(served_variant);
            service_s = config_.deterministic_latency
                            ? models::LatencyModel::expected_service_time(variant, false)
                            : models::LatencyModel::sample(latency_.at(f, served_variant),
                                                           false, rng);
          } else {
            // Scale-out or fresh cold start: serve the variant the schedule
            // currently prescribes, not whatever container happens to sit at
            // the front of the pool (reap order made that a stale variant
            // after downgrades). With nothing scheduled, fall back to the
            // policy's cold-start choice — the minute engine's exact rule.
            const int scheduled_now = schedule.variant_at(f, m);
            served_variant = scheduled_now != sim::kNoVariant
                                 ? static_cast<std::size_t>(scheduled_now)
                                 : policy.cold_start_variant(f, m, dep);
            const auto& variant = family.variant(served_variant);

            // Every spawn attempt of this minute shares the minute engine's
            // (f, m) cold-start draw, so a failed minute fails all of its
            // cold invocations on both layers.
            const fault::ColdStartOutcome cs = kernel.start_cold(f, m, served_variant, 1);
            if (!cs.succeeded) continue;  // no container starts; the invocation is lost

            service_s = config_.deterministic_latency
                            ? models::LatencyModel::expected_service_time(variant, true)
                            : models::LatencyModel::sample(latency_.at(f, served_variant),
                                                           true, rng);
            service_s += cs.retry_penalty_s;
            if (scheduled_now == sim::kNoVariant) {
              // As in the minute engine, the cold-started container exists
              // for the rest of this minute and counts toward keep-alive
              // memory at m.
              schedule.set(f, m, static_cast<int>(served_variant));
            }
          }

          // A clipped invocation frees its container at the deadline too.
          const auto& variant = family.variant(served_variant);
          double accuracy_credit = variant.accuracy_pct;
          kernel.clip_to_slo(f, m, served_variant, variant, cold, service_s, accuracy_credit);

          if (idle != nullptr) {
            idle->busy_until_s = arrival_s + service_s;
            ++result.warm_starts;
          } else {
            spawn(f, served_variant, arrival_s, arrival_s + service_s);
            ++result.cold_starts;
            if (any_live) ++result.scale_out_cold_starts;
          }
          if (sink != nullptr) {
            sink->record({cold ? obs::EventType::kColdStart : obs::EventType::kWarmStart, m,
                          f, static_cast<std::int32_t>(served_variant), 1.0, ""});
          }

          result.total_service_time_s += service_s;
          result.accuracy_pct_sum += accuracy_credit;
          ++result.invocations;
        }

        // The policy observes the arrival even when the platform failed to
        // serve it — predictors track demand, not fulfillment.
        policy_calls.on_invocation(f, m, schedule);
      }

      policy_calls.end_of_minute(m, schedule, kernel);
    };

    // A capacity victim's idle containers die with its schedule entry,
    // charged as if minute m never happened — exactly what evicting minute
    // m from the schedule does to the engine's cost.
    kernel.step(m, config_.memory_capacity_mb, serve,
                [&](trace::FunctionId f, sim::Eviction cause) {
                  if (cause != sim::Eviction::kCapacity) return;
                  for (std::size_t i = pool[f].size(); i-- > 0;) {
                    if (pool[f][i].busy_until_s <= minute_end_s) retire(f, i, minute_start_s);
                  }
                });

    const double mem = total_memory();
    kernel.close_minute(mem);
    if (config_.record_series) result.memory_mb.push_back(mem);
    live_hist.record(live_containers);
  }

  // Flush the remaining containers' cost at the horizon.
  const double end_s = static_cast<double>(duration) * kSecondsPerMinute;
  for (trace::FunctionId f = 0; f < pool.size(); ++f) {
    for (std::size_t i = pool[f].size(); i-- > 0;) retire(f, i, end_s);
  }

  result.downgrades = policy.downgrade_count();
  result.faults.guard_incidents = policy.incident_count();
  if (collector) collector->finish();

  // Fold the run's aggregates into the registry (one batch of adds at the
  // end; zero hot-path cost) and snapshot it into the result.
  if (obs.metrics != nullptr) {
    obs::MetricsRegistry& reg = *obs.metrics;
    reg.counter("platform.runs").add(1);
    reg.counter("platform.invocations").add(result.invocations);
    reg.counter("platform.warm_starts").add(result.warm_starts);
    reg.counter("platform.cold_starts").add(result.cold_starts);
    reg.counter("platform.scale_out_cold_starts").add(result.scale_out_cold_starts);
    reg.counter("platform.containers_created").add(result.containers_created);
    reg.counter("platform.prewarm_starts").add(result.prewarm_starts);
    reg.counter("platform.downgrades").add(result.downgrades);
    reg.counter("platform.capacity_evictions").add(result.faults.capacity_evictions);
    reg.counter("platform.crash_evictions").add(result.faults.crash_evictions);
    reg.counter("platform.failed_invocations").add(result.faults.failed_invocations);
    reg.counter("platform.retries").add(result.faults.retries);
    reg.counter("platform.timeouts").add(result.faults.timeouts);
    reg.counter("platform.degraded_minutes").add(result.faults.degraded_minutes);
    reg.counter("platform.guard_incidents").add(result.faults.guard_incidents);
    reg.gauge("platform.service_time_s").add(result.total_service_time_s);
    reg.gauge("platform.cost_usd").add(result.total_cost_usd);
    // Peak gauge: kMax so merging per-slot registries takes the maximum
    // instead of summing every slot's peak.
    reg.gauge("platform.peak_containers", obs::GaugeMerge::kMax)
        .max_with(static_cast<double>(result.peak_containers));
    result.metrics = reg.snapshot();
  }
  return result;
}

}  // namespace pulse::platform
