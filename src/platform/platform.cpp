#include "platform/platform.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "sim/cost_model.hpp"

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
    : deployment_(&deployment), trace_(&trace), config_(std::move(config)) {
  if (deployment.function_count() != trace.function_count()) {
    throw std::invalid_argument("PlatformSimulator: deployment/trace function count mismatch");
  }
}

PlatformResult PlatformSimulator::run(sim::KeepAlivePolicy& policy) {
  const trace::Trace& tr = *trace_;
  const sim::Deployment& dep = *deployment_;
  const trace::Minute duration = tr.duration();

  const obs::PhaseTimer run_timer(config_.observer.profiler, obs::Phase::kSimulate);
  PlatformResult result;
  // The minute engine's kernel, seed and all: with matching schedules the
  // two layers crash, retry, clip and evict identically, and draw the same
  // per-function jitter streams.
  sim::MinuteKernel kernel(dep, tr, policy, result, config_);
  sim::KeepAliveSchedule& schedule = kernel.schedule();
  obs::EventLane* const sink = kernel.lane();

  std::vector<std::vector<Container>> pool(tr.function_count());
  std::size_t live_containers = 0;

  obs::MetricsRegistry* const metrics = config_.observer.metrics;
  obs::HistogramHandle live_hist;  // resolved once; per-minute updates are pointer adds
  if (metrics != nullptr) live_hist.bind(*metrics, "platform.live_containers", 512);

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

          std::size_t served_variant;
          const bool cold = idle == nullptr;
          fault::ColdStartOutcome cs;
          if (!cold) {
            served_variant = idle->variant;
          } else {
            // Scale-out or fresh cold start: serve the variant the schedule
            // currently prescribes, not whatever container happens to sit at
            // the front of the pool (reap order made that a stale variant
            // after downgrades). With nothing scheduled, fall back to the
            // policy's cold-start choice — the minute engine's exact rule.
            const int scheduled_now = schedule.variant_at(f, m);
            served_variant = scheduled_now != sim::kNoVariant
                                 ? static_cast<std::size_t>(scheduled_now)
                                 : kernel.cold_start_variant(f, m);

            // Every spawn attempt of this minute shares the minute engine's
            // (f, m) cold-start draw, so a failed minute fails all of its
            // cold invocations on both layers.
            cs = kernel.start_cold(f, m, served_variant, 1);
            if (!cs.succeeded) continue;  // no container starts; the invocation is lost

            if (scheduled_now == sim::kNoVariant) {
              // As in the minute engine, the cold-started container exists
              // for the rest of this minute and counts toward keep-alive
              // memory at m.
              schedule.set(f, m, static_cast<int>(served_variant));
            }
          }

          // A clipped invocation frees its container at the deadline too.
          const auto& variant = family.variant(served_variant);
          double service_s = kernel.service_draw(f, served_variant, variant)(cold);
          if (cold) service_s += cs.retry_penalty_s;
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
        kernel.on_invocation(f, m);
      }
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

  kernel.finish("platform");
  if (metrics != nullptr) {
    metrics->counter("platform.scale_out_cold_starts").add(result.scale_out_cold_starts);
    metrics->counter("platform.containers_created").add(result.containers_created);
    metrics->counter("platform.prewarm_starts").add(result.prewarm_starts);
    metrics->gauge("platform.cost_usd").add(result.total_cost_usd);
    // Peak gauge: kMax so merging per-slot registries takes the maximum
    // instead of summing every slot's peak.
    metrics->gauge("platform.peak_containers", obs::GaugeMerge::kMax)
        .max_with(static_cast<double>(result.peak_containers));
    result.metrics = metrics->snapshot();
  }
  return result;
}

}  // namespace pulse::platform
