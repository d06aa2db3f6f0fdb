#include "cluster/cluster_engine.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <thread>

#include "obs/collector.hpp"
#include "util/thread_pool.hpp"

namespace pulse::cluster {

namespace {

/// Pre-resolved cluster.* handle bundle (metrics_registry.hpp): names are
/// looked up once per run; the coordinator then adds straight into the
/// user registry.
struct ClusterMetricHandles {
  obs::CounterHandle crashes;
  obs::CounterHandle warm_lost;
  obs::CounterHandle recoveries;
  obs::CounterHandle stalled_epochs;
  obs::CounterHandle transfers;
  obs::GaugeHandle reclaimed_mb;
  obs::GaugeHandle quota_moved_mb;
  obs::HistogramHandle recovery_latency;

  void bind(obs::MetricsRegistry& m) {
    crashes.bind(m, "cluster.failures.crashes");
    warm_lost.bind(m, "cluster.failures.warm_lost");
    recoveries.bind(m, "cluster.failures.recoveries");
    stalled_epochs.bind(m, "cluster.failures.stalled_epochs");
    transfers.bind(m, "cluster.transfers");
    reclaimed_mb.bind(m, "cluster.failures.reclaimed_mb");
    quota_moved_mb.bind(m, "cluster.quota_moved_mb");
    recovery_latency.bind(m, "cluster.failures.recovery_latency_minutes", 256);
  }
};

}  // namespace

sim::RunTotals ClusterResult::totals() const noexcept {
  sim::RunTotals total;
  for (const auto& r : shards) total += r;
  return total;
}

double ClusterResult::total_keepalive_cost_usd() const noexcept {
  double total = 0.0;
  for (const auto& r : shards) total += r.total_keepalive_cost_usd;
  return total;
}

ClusterEngine::ClusterEngine(const sim::Deployment& deployment, const trace::Trace& trace,
                             ClusterConfig config)
    : config_(std::move(config)), duration_(trace.duration()) {
  if (config_.shards == 0) {
    throw std::invalid_argument("ClusterEngine: shards must be > 0");
  }
  if (deployment.function_count() != trace.function_count()) {
    throw std::invalid_argument("ClusterEngine: deployment/trace function count mismatch");
  }
  if (!config_.market.valid()) {
    throw std::invalid_argument("ClusterEngine: invalid MarketConfig");
  }
  if (!config_.shard_faults.valid()) {
    throw std::invalid_argument("ClusterEngine: invalid ShardFaultConfig");
  }
  partition_ = Partition::make(trace.function_count(), config_.shards);
  shard_traces_.reserve(config_.shards);
  shard_deployments_.reserve(config_.shards);
  for (std::size_t s = 0; s < config_.shards; ++s) {
    shard_traces_.push_back(trace.project(partition_.members[s]));
    shard_deployments_.push_back(shard_deployment(deployment, partition_.members[s]));
  }
}

ClusterResult ClusterEngine::run(const sim::PolicyFactory& factory) {
  const std::size_t n = config_.shards;
  const std::size_t hardware = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  const std::size_t threads = config_.threads != 0 ? config_.threads : std::min(n, hardware);
  const obs::Observer user_obs = config_.engine.observer;

  // One shard and no capacity: nothing for the market to split; the shard
  // sees exactly the user's engine config (this is the bitwise-identity
  // path the golden test pins).
  const bool market_on = config_.engine.memory_capacity_mb > 0.0 && n > 1;

  // Initial quotas proportional to shard populations; the last non-empty
  // shard absorbs the rounding remainder so the split sums to the total.
  std::vector<double> initial_quota;
  if (market_on) {
    initial_quota.assign(n, 0.0);
    const double total = config_.engine.memory_capacity_mb;
    const double functions = static_cast<double>(partition_.function_count());
    double assigned = 0.0;
    std::size_t last = 0;
    for (std::size_t s = 0; s < n; ++s) {
      initial_quota[s] =
          functions > 0.0
              ? total * static_cast<double>(partition_.members[s].size()) / functions
              : total / static_cast<double>(n);
      assigned += initial_quota[s];
      if (initial_quota[s] > 0.0) last = s;
    }
    initial_quota[last] += total - assigned;
  }
  CapacityMarket market(config_.market,
                        market_on ? initial_quota : std::vector<double>{0.0});

  // One Observer per shard (obs::ObserverFanOut), plus lane n for the
  // coordinator's own events (crash/rebalance); the fixed shard→lane
  // mapping keeps the canonical feed (and with it any RingBufferSink
  // retained window) thread-count deterministic.
  obs::ObserverFanOut fan_out(user_obs, n, 1);
  obs::EventLane* const coord_lane = fan_out.lane(n);

  std::vector<std::unique_ptr<sim::KeepAlivePolicy>> policies;
  std::vector<std::unique_ptr<sim::SteppedRun>> runs;
  policies.reserve(n);
  runs.reserve(n);
  std::vector<sim::EngineConfig> configs(n, config_.engine);
  for (std::size_t s = 0; s < n; ++s) {
    configs[s].global_ids = &partition_.members[s];
    configs[s].memory_capacity_mb = market_on ? market.quota_mb(s)
                                              : config_.engine.memory_capacity_mb;
    configs[s].observer = fan_out.producer(s);
    policies.push_back(factory());
    if (policies.back() == nullptr) {
      throw std::invalid_argument("ClusterEngine::run: factory returned null policy");
    }
    runs.push_back(std::make_unique<sim::SteppedRun>(shard_deployments_[s], shard_traces_[s],
                                                     configs[s], *policies.back()));
  }

  util::ThreadPool pool(threads);
  ClusterResult result;
  result.shards.resize(n);

  std::vector<std::uint64_t> prev_evictions(n, 0);
  std::vector<std::uint64_t> prev_cold(n, 0);

  ClusterMetricHandles cm;
  if (user_obs.metrics != nullptr) cm.bind(*user_obs.metrics);

  // Shard-fault machinery. With all rates zero nothing below runs: no
  // crash minute is drawn, detection never scans, and — unless the market
  // is on — the whole trace is one epoch, so the loop is bitwise-identical
  // to the pre-fault engine (the golden 1-shard identity path).
  const fault::ShardFaultInjector injector(config_.shard_faults);
  const bool crash_on = config_.shard_faults.crash_rate > 0.0;
  const bool stall_on = config_.shard_faults.stall_rate > 0.0;
  const bool barriers_on = market_on || config_.shard_faults.enabled();
  const trace::Minute interval =
      barriers_on ? config_.market.rebalance_interval : duration_;

  // Minute each live shard crashes at within the current epoch (-1: none).
  std::vector<trace::Minute> crash_at(n, -1);
  std::vector<std::uint8_t> down(n, 0);
  std::vector<std::size_t> down_epochs_left(n, 0);
  // Ledger entry of each shard's ongoing outage (index into result.failures).
  std::vector<std::size_t> open_failure(n, 0);
  std::uint64_t epoch_index = 0;

  for (trace::Minute t0 = 0; t0 < duration_;) {
    const trace::Minute e0 = t0;
    const trace::Minute t1 = std::min<trace::Minute>(t0 + std::max<trace::Minute>(interval, 1),
                                                     duration_);

    // A crash minute is a pure hash, so it is known before the epoch runs:
    // a live shard that crashes inside [e0, t1) simulates only up to its
    // crash minute and stops there (a down shard's state stays frozen at
    // that minute). The barrier reuses crash_at.
    if (crash_on) {
      for (std::size_t s = 0; s < n; ++s) {
        crash_at[s] = down[s] == 0 ? injector.first_crash_in(s, e0, t1) : -1;
      }
    }
    std::vector<std::uint8_t> stalled(n, 0);
    if (stall_on) {
      for (std::size_t s = 0; s < n; ++s) {
        if (down[s] == 0 && injector.shard_stalls(s, epoch_index)) stalled[s] = 1;
      }
    }

    pool.parallel_for(n, [&](std::size_t s) {
      if (down[s] == 0) runs[s]->run_until(crash_at[s] >= 0 ? crash_at[s] : t1);
    });
    t0 = t1;
    ++epoch_index;
    const bool last_barrier = t1 >= duration_;

    // Everything past the barrier is single-threaded coordinator work in
    // shard order — the thread-count-determinism discipline.
    std::vector<std::uint8_t> fresh(n, 0);  // crashed or recovered this barrier

    if (crash_on) {
      // Crash detection. The shard stopped at its crash minute, so every
      // minute it simulated really happened; it loses its warm pool there.
      for (std::size_t s = 0; s < n; ++s) {
        const trace::Minute tc = crash_at[s];
        if (tc < 0) continue;
        const std::uint64_t warm_lost = runs[s]->lose_warm_pool(tc);
        down[s] = 1;
        fresh[s] = 1;
        down_epochs_left[s] = config_.shard_faults.recovery_epochs;
        const double reclaimed = market_on ? market.set_offline(s) : 0.0;
        open_failure[s] = result.failures.size();
        ShardFailure fail;
        fail.shard = s;
        fail.crash_minute = tc;
        fail.detected_minute = t1;
        fail.warm_lost = warm_lost;
        fail.replayed_minutes = tc - e0;
        fail.reclaimed_quota_mb = reclaimed;
        result.failures.push_back(fail);
        ++result.shard_crashes;
        if (coord_lane != nullptr) {
          coord_lane->record({obs::EventType::kShardCrash, tc, s, -1,
                              static_cast<double>(warm_lost), "shard_crash"});
        }
        cm.crashes.add();
        cm.warm_lost.add(warm_lost);
        cm.reclaimed_mb.add(reclaimed);
      }
      // Recovery. A shard sits out `recovery_epochs` full epochs after the
      // barrier that detected its crash, then the outage span is accounted
      // (failed arrivals, degraded minutes) and it rejoins, clawing its
      // quota back. Outages crossing the end of the trace settle after the
      // loop with recovery_minute = -1.
      for (std::size_t s = 0; s < n; ++s) {
        if (down[s] == 0 || fresh[s] != 0) continue;
        if (down_epochs_left[s] > 0) --down_epochs_left[s];
        if (down_epochs_left[s] != 0 || last_barrier) continue;
        const std::uint64_t failed = runs[s]->run_outage(t1);
        down[s] = 0;
        fresh[s] = 1;
        ShardFailure& fail = result.failures[open_failure[s]];
        fail.recovery_minute = t1;
        fail.failed_invocations = failed;
        ++result.shard_recoveries;
        if (market_on) {
          const std::vector<QuotaTransfer> clawbacks = market.set_online(s);
          for (const QuotaTransfer& cb : clawbacks) {
            const bool from_reserve = cb.donor == CapacityMarket::kReserveShard;
            if (!from_reserve) {
              runs[cb.donor]->set_memory_capacity_mb(market.quota_mb(cb.donor));
            }
            if (coord_lane != nullptr) {
              coord_lane->record({obs::EventType::kRebalance, t1, cb.recipient,
                                  from_reserve ? -2 : static_cast<std::int32_t>(cb.donor),
                                  cb.mb, "quota_clawback"});
            }
            cm.transfers.add();
            cm.quota_moved_mb.add(cb.mb);
          }
          runs[s]->set_memory_capacity_mb(market.quota_mb(s));
        }
        const trace::Minute latency = t1 - fail.crash_minute;
        if (coord_lane != nullptr) {
          coord_lane->record({obs::EventType::kShardRecover, t1, s, -1,
                              static_cast<double>(latency), "shard_recover"});
        }
        cm.recoveries.add();
        cm.recovery_latency.record(static_cast<std::size_t>(std::max<trace::Minute>(latency, 0)));
      }
    }
    if (stall_on) {
      for (std::size_t s = 0; s < n; ++s) {
        if (stalled[s] == 0) continue;
        ++result.stalled_epochs;
        cm.stalled_epochs.add();
      }
    }

    if (!market_on || last_barrier) continue;

    // Between barriers, single-threaded: gather signals, trade, re-quota.
    // Down shards report nothing (the market holds them offline); shards
    // that stalled or just crashed/recovered report stale signals and are
    // skipped for the epoch.
    std::vector<ShardSignal> signals(n);
    for (std::size_t s = 0; s < n; ++s) {
      const sim::RunResult& p = runs[s]->partial();
      signals[s].capacity_evictions = p.capacity_evictions - prev_evictions[s];
      signals[s].cold_starts = p.cold_starts - prev_cold[s];
      prev_evictions[s] = p.capacity_evictions;
      prev_cold[s] = p.cold_starts;
      signals[s].stalled = stalled[s] != 0 || fresh[s] != 0;
      if (down[s] == 0 && fresh[s] == 0) {
        signals[s].used_mb = runs[s]->keepalive_memory_mb(t1 - 1);
      }
    }
    const std::vector<QuotaTransfer> trades = market.rebalance(signals);
    for (const QuotaTransfer& trade : trades) {
      const bool from_reserve = trade.donor == CapacityMarket::kReserveShard;
      if (!from_reserve) {
        runs[trade.donor]->set_memory_capacity_mb(market.quota_mb(trade.donor));
      }
      runs[trade.recipient]->set_memory_capacity_mb(market.quota_mb(trade.recipient));
      if (coord_lane != nullptr) {
        coord_lane->record({obs::EventType::kRebalance, t1, trade.recipient,
                            from_reserve ? -2 : static_cast<std::int32_t>(trade.donor),
                            trade.mb, from_reserve ? "reserve_grant" : "quota_transfer"});
      }
      cm.transfers.add();
      cm.quota_moved_mb.add(trade.mb);
    }
  }

  // Outages that the trace ended inside: account the failed span so shard
  // results stay complete, but the ledger keeps recovery_minute = -1.
  for (std::size_t s = 0; s < n; ++s) {
    if (down[s] == 0) continue;
    const std::uint64_t failed = runs[s]->run_outage(duration_);
    result.failures[open_failure[s]].failed_invocations = failed;
  }

  pool.parallel_for(n, [&](std::size_t s) { result.shards[s] = runs[s]->finish(); });

  fan_out.finish();  // shard runs and coordinator have quiesced
  if (user_obs.metrics != nullptr) {
    user_obs.metrics->gauge("cluster.shards").set(static_cast<double>(n));
    user_obs.metrics->counter("cluster.rebalance_epochs").add(market.epochs());
  }

  if (market_on) {
    result.final_quota_mb.resize(n);
    for (std::size_t s = 0; s < n; ++s) result.final_quota_mb[s] = market.quota_mb(s);
    result.total_quota_mb = market.total_quota_mb();
  }
  result.rebalance_epochs = market.epochs();
  result.transfers = market.transfers();
  result.quota_moved_mb = market.quota_moved_mb();
  if (user_obs.metrics != nullptr) result.metrics = user_obs.metrics->snapshot();
  return result;
}

}  // namespace pulse::cluster
