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

  // One Observer per worker slot (obs::ObserverFanOut): its own registry,
  // profiler and event lane, merged into the user's after the pool joins.
  obs::ObserverFanOut fan_out(config.engine.observer, pool.task_slot_count());
  for (std::size_t slot = 0; slot < pool.task_slot_count(); ++slot) {
    task_config[slot].observer = fan_out.producer(slot);
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

  fan_out.finish();  // the pool has joined: every producer has quiesced
  if (auto* const m = config.engine.observer.metrics) result.metrics = m->snapshot();
  return result;
}

}  // namespace pulse::sim
