#include "sim/ensemble.hpp"

#include "obs/collector.hpp"

namespace pulse::sim {

double EnsembleResult::mean_service_time_s() const {
  return stats_of([](const RunResult& r) { return r.total_service_time_s; }).mean();
}

double EnsembleResult::mean_keepalive_cost_usd() const {
  return stats_of([](const RunResult& r) { return r.total_keepalive_cost_usd; }).mean();
}

double EnsembleResult::mean_accuracy_pct() const {
  return stats_of([](const RunResult& r) { return r.average_accuracy_pct(); }).mean();
}

double EnsembleResult::mean_warm_fraction() const {
  return stats_of([](const RunResult& r) { return r.warm_start_fraction(); }).mean();
}

EnsembleResult run_ensemble(const models::ModelZoo& zoo, const trace::Trace& trace,
                            const PolicyFactory& factory, const EnsembleConfig& config) {
  EnsembleResult result;
  result.runs.resize(config.runs);

  util::ThreadPool pool(config.threads);
  // One EngineConfig copy per worker task, not per run: only the seed
  // differs between runs, so each task slot mutates its own copy in place.
  std::vector<EngineConfig> task_config(pool.task_slot_count(), config.engine);

  // Observability across workers rides the same per-slot machinery: each
  // slot writes its own registry/profiler (no synchronization, TSan-clean)
  // and the user's instances receive the merged totals after the pool has
  // joined.
  const obs::Observer user_obs = config.engine.observer;
  std::vector<obs::MetricsRegistry> slot_metrics(
      user_obs.metrics != nullptr ? pool.task_slot_count() : 0);
  std::vector<obs::PhaseProfiler> slot_profilers(
      user_obs.profiler != nullptr ? pool.task_slot_count() : 0);

  // Event transport: one producer-owned lane per worker slot in front of
  // the user's sink; each slot's engine emits into its lane as is. Event
  // totals are thread-count invariant (see obs/collector.hpp for the full
  // determinism contract).
  std::unique_ptr<obs::EventCollector> collector;
  if (user_obs.sink != nullptr) {
    collector = std::make_unique<obs::EventCollector>(*user_obs.sink, pool.task_slot_count());
  }

  for (std::size_t slot = 0; slot < pool.task_slot_count(); ++slot) {
    if (user_obs.metrics != nullptr) task_config[slot].observer.metrics = &slot_metrics[slot];
    if (user_obs.profiler != nullptr) {
      task_config[slot].observer.profiler = &slot_profilers[slot];
    }
    if (collector) task_config[slot].observer.sink = &collector->lane(slot);
  }

  pool.parallel_for_slotted(config.runs, [&](std::size_t slot, std::size_t i) {
    // Per-run RNG stream: the deployment depends only on (seed, i).
    util::Pcg32 assign_rng(config.seed + i, /*stream=*/i * 2 + 1);
    const Deployment deployment =
        Deployment::random(zoo, trace.function_count(), assign_rng);

    EngineConfig& engine_config = task_config[slot];
    engine_config.seed = config.seed * 1000003 + i;

    SimulationEngine engine(deployment, trace, engine_config);
    auto policy = factory();
    result.runs[i] = engine.run(*policy);
  });

  // The pool has joined (producers quiesced): feed every lane's buffered
  // events (for canonical sinks, the retained tails) downstream before
  // anything reads the sink.
  if (collector) collector->finish();

  for (const auto& m : slot_metrics) user_obs.metrics->merge(m);
  for (const auto& p : slot_profilers) user_obs.profiler->merge(p);
  if (user_obs.metrics != nullptr) result.metrics = user_obs.metrics->snapshot();

  return result;
}

}  // namespace pulse::sim
