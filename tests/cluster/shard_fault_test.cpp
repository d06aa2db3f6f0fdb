// Shard-level fault tolerance in ClusterEngine: ledger consistency,
// crash-epoch accounting, thread-count invariance with faults on, the
// degraded-mode market's exact conservation, a threaded crash/recover run
// for the sanitizer jobs (TSan in particular), a pinned crash-recovery run
// whose fingerprint guards the crash protocol bit for bit, and the event
// stream reconciling with the counters of that run.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string_view>
#include <vector>

#include "cluster/cluster_engine.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/trace_sink.hpp"
#include "policies/factory.hpp"
#include "support/fingerprint.hpp"
#include "trace/workload.hpp"

namespace pulse::cluster {
namespace {

using testutil::Fingerprint;
using testutil::fingerprint;

struct Fixture {
  trace::Workload workload;
  models::ModelZoo zoo;
  sim::Deployment deployment;
};

Fixture make_fixture(std::size_t functions, trace::Minute duration, std::uint64_t seed) {
  trace::WorkloadConfig wc;
  wc.function_count = functions;
  wc.duration = duration;
  wc.seed = seed;
  Fixture fx{trace::build_azure_like_workload(wc), models::ModelZoo::builtin(), {}};
  fx.deployment = sim::Deployment::round_robin(fx.zoo, functions);
  return fx;
}

// Container-level faults stay OFF so every crash eviction, failed
// invocation and degraded minute in the results is attributable to the
// shard-fault stream alone.
ClusterConfig faulty_config(const Fixture& fx, std::size_t shards, std::size_t threads) {
  ClusterConfig cc;
  cc.shards = shards;
  cc.threads = threads;
  cc.engine.seed = 99;
  cc.engine.memory_capacity_mb = fx.deployment.peak_highest_memory_mb() * 0.35;
  cc.market.rebalance_interval = 30;
  cc.shard_faults.crash_rate = 0.004;
  cc.shard_faults.recovery_epochs = 2;
  cc.shard_faults.stall_rate = 0.05;
  return cc;
}

ClusterResult run_cluster(const Fixture& fx, const ClusterConfig& cc, const char* policy) {
  ClusterEngine cluster(fx.deployment, fx.workload.trace, cc);
  return cluster.run([&] { return policies::make_policy(policy); });
}

TEST(ShardFaultCluster, FailureLedgerIsConsistent) {
  const Fixture fx = make_fixture(48, 720, 13);
  const ClusterConfig cc = faulty_config(fx, 4, 0);
  const ClusterResult r = run_cluster(fx, cc, "pulse");

  ASSERT_GT(r.shard_crashes, 0u) << "fixture should produce at least one crash";
  EXPECT_EQ(r.failures.size(), r.shard_crashes);
  EXPECT_LE(r.shard_recoveries, r.shard_crashes);

  std::uint64_t warm_lost = 0, failed = 0, outage_minutes = 0;
  for (const ShardFailure& f : r.failures) {
    EXPECT_LT(f.shard, 4u);
    EXPECT_GE(f.crash_minute, 0);
    EXPECT_LT(f.crash_minute, 720);
    EXPECT_GT(f.detected_minute, f.crash_minute);
    EXPECT_GE(f.replayed_minutes, 0);
    EXPECT_LT(f.replayed_minutes, cc.market.rebalance_interval);
    EXPECT_GT(f.reclaimed_quota_mb, 0.0) << "market on: a crash reclaims quota";
    const trace::Minute end = f.recovery_minute >= 0 ? f.recovery_minute : 720;
    EXPECT_GE(end, f.detected_minute);
    warm_lost += f.warm_lost;
    failed += f.failed_invocations;
    outage_minutes += static_cast<std::uint64_t>(end - f.crash_minute);
  }

  // With container faults off, shard crashes are the only source of these
  // counters — the ledger must reconcile exactly with the shard results.
  const sim::FaultCounters counters = r.totals().fault_counters();
  EXPECT_EQ(counters.crash_evictions, warm_lost);
  EXPECT_EQ(counters.failed_invocations, failed);
  EXPECT_EQ(counters.degraded_minutes, outage_minutes);
  EXPECT_GT(failed, 0u) << "an outage over live traffic should fail arrivals";
}

TEST(ShardFaultCluster, IdenticalAcrossThreadCountsWithFaultsOn) {
  const Fixture fx = make_fixture(48, 720, 13);
  const ClusterResult one = run_cluster(fx, faulty_config(fx, 4, 1), "pulse");
  const ClusterResult two = run_cluster(fx, faulty_config(fx, 4, 2), "pulse");
  const ClusterResult many = run_cluster(fx, faulty_config(fx, 4, 0), "pulse");

  ASSERT_GT(one.shard_crashes, 0u);
  for (std::size_t s = 0; s < 4; ++s) {
    EXPECT_EQ(fingerprint(two.shards[s]), fingerprint(one.shards[s])) << "shard " << s;
    EXPECT_EQ(fingerprint(many.shards[s]), fingerprint(one.shards[s])) << "shard " << s;
  }
  for (const ClusterResult* r : {&two, &many}) {
    EXPECT_EQ(r->shard_crashes, one.shard_crashes);
    EXPECT_EQ(r->shard_recoveries, one.shard_recoveries);
    EXPECT_EQ(r->stalled_epochs, one.stalled_epochs);
    EXPECT_EQ(r->transfers, one.transfers);
    EXPECT_EQ(r->quota_moved_mb, one.quota_moved_mb);
    ASSERT_EQ(r->failures.size(), one.failures.size());
    for (std::size_t i = 0; i < one.failures.size(); ++i) {
      EXPECT_EQ(r->failures[i].shard, one.failures[i].shard);
      EXPECT_EQ(r->failures[i].crash_minute, one.failures[i].crash_minute);
      EXPECT_EQ(r->failures[i].recovery_minute, one.failures[i].recovery_minute);
      EXPECT_EQ(r->failures[i].warm_lost, one.failures[i].warm_lost);
      EXPECT_EQ(r->failures[i].failed_invocations, one.failures[i].failed_invocations);
      EXPECT_EQ(r->failures[i].reclaimed_quota_mb, one.failures[i].reclaimed_quota_mb);
    }
  }
}

TEST(ShardFaultCluster, FaultCountersSumOverShardsWithFaultsOn) {
  const Fixture fx = make_fixture(48, 720, 13);
  const ClusterResult r = run_cluster(fx, faulty_config(fx, 4, 0), "pulse");

  sim::FaultCounters manual;
  for (const sim::RunResult& shard : r.shards) {
    const sim::FaultCounters c = shard.fault_counters();
    manual.failed_invocations += c.failed_invocations;
    manual.retries += c.retries;
    manual.timeouts += c.timeouts;
    manual.crash_evictions += c.crash_evictions;
    manual.capacity_evictions += c.capacity_evictions;
    manual.degraded_minutes += c.degraded_minutes;
    manual.guard_incidents += c.guard_incidents;
  }
  EXPECT_EQ(r.totals().fault_counters(), manual);
}

TEST(ShardFaultCluster, DegradedMarketConservesClusterCapacity) {
  const Fixture fx = make_fixture(48, 1440, 21);
  ClusterConfig cc = faulty_config(fx, 4, 0);
  cc.shard_faults.crash_rate = 0.01;  // many crash/recover cycles
  const ClusterResult r = run_cluster(fx, cc, "openwhisk");

  ASSERT_GT(r.shard_crashes, 1u);
  ASSERT_GT(r.shard_recoveries, 0u);
  // The conserved total (assigned quota + degraded-mode reserve) survives
  // every crash, reserve grant and claw-back to the exact unit.
  const double capacity = fx.deployment.peak_highest_memory_mb() * 0.35;
  EXPECT_NEAR(r.total_quota_mb, capacity, 4.0 / 1024.0);
}

// Every run over one partition and capacity starts from the same quota
// split, so the conserved total must compare bit-equal across policies and
// crash rates: a crash, reserve grant or claw-back that minted or leaked
// even one fixed-point unit would show here.
TEST(ShardFaultCluster, QuotaTotalIsBitEqualAcrossCrashSweep) {
  const Fixture fx = make_fixture(48, 1440, 21);
  std::vector<double> totals;
  std::uint64_t crashes = 0;
  std::uint64_t recoveries = 0;
  for (const char* policy : {"openwhisk", "pulse"}) {
    for (const double rate : {0.0, 0.01}) {
      ClusterConfig cc = faulty_config(fx, 4, 0);
      cc.shard_faults.crash_rate = rate;
      const ClusterResult r = run_cluster(fx, cc, policy);
      if (rate == 0.0) {
        EXPECT_EQ(r.shard_crashes, 0u) << policy;
      }
      crashes += r.shard_crashes;
      recoveries += r.shard_recoveries;
      totals.push_back(r.total_quota_mb);
    }
  }
  EXPECT_GT(crashes, 0u);
  EXPECT_GT(recoveries, 0u);
  for (std::size_t i = 1; i < totals.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(totals[i]), std::bit_cast<std::uint64_t>(totals[0]))
        << "run " << i << ": " << totals[i] << " MB vs " << totals[0] << " MB";
  }
}

TEST(ShardFaultCluster, ZeroRatesMatchFaultFreeClusterBitwise) {
  const Fixture fx = make_fixture(24, 360, 7);
  ClusterConfig plain;
  plain.shards = 3;
  plain.engine.seed = 5;
  plain.engine.memory_capacity_mb = fx.deployment.peak_highest_memory_mb() * 0.35;

  ClusterConfig zeroed = plain;
  zeroed.shard_faults.seed = 0x1234;  // config present, rates zero

  const ClusterResult a = run_cluster(fx, plain, "pulse");
  const ClusterResult b = run_cluster(fx, zeroed, "pulse");
  for (std::size_t s = 0; s < 3; ++s) {
    EXPECT_EQ(fingerprint(b.shards[s]), fingerprint(a.shards[s])) << "shard " << s;
  }
  EXPECT_EQ(b.transfers, a.transfers);
  EXPECT_EQ(a.shard_crashes, 0u);
  EXPECT_EQ(b.shard_crashes, 0u);
  EXPECT_TRUE(b.failures.empty());
}

// The sanitizer target: shards step concurrently on a real thread pool
// (a crashing shard stops at its crash minute), and crashed shards lose
// their warm pool and recover on the coordinator after each join. Asserts only coarse invariants — the value of the test is
// TSan/ASan coverage of the barrier handoffs.
TEST(ShardFaultCluster, ThreadedCrashRecoverRunIsClean) {
  const Fixture fx = make_fixture(64, 720, 31);
  ClusterConfig cc = faulty_config(fx, 8, 4);
  cc.shard_faults.crash_rate = 0.006;
  const ClusterResult r = run_cluster(fx, cc, "pulse");

  EXPECT_EQ(r.shards.size(), 8u);
  EXPECT_GT(r.totals().invocations, 0u);
  EXPECT_GT(r.shard_crashes, 0u);
  EXPECT_EQ(r.failures.size(), r.shard_crashes);
}

// ---------------------------------------------------------------------------
// Pinned crash-recovery run: 8 shards, market on, capacity at 10% of the
// peak, a crash rate that yields several crashes. The observable outcome is
// hashed in two halves and pinned: the state half (shard results, failure
// ledger, quotas, market totals) guards what the run computes; the obs half
// (every event, the metrics snapshot) guards what it reports.

constexpr std::size_t kPinnedShards = 8;
constexpr trace::Minute kPinnedDuration = 720;
constexpr trace::Minute kPinnedInterval = 30;

/// What the shard-fault stream alone says will happen: the cluster's
/// down/recover protocol replayed over ShardFaultInjector without
/// simulating anything.
struct CrashPattern {
  std::size_t crashes = 0;
  std::size_t recoveries = 0;
  bool crash_on_epoch_start = false;
  bool crash_in_final_epoch = false;
};

CrashPattern predict_crashes(const fault::ShardFaultConfig& faults) {
  const fault::ShardFaultInjector injector(faults);
  CrashPattern p;
  std::vector<std::size_t> down_left(kPinnedShards, 0);
  std::vector<std::uint8_t> down(kPinnedShards, 0);
  for (trace::Minute e0 = 0; e0 < kPinnedDuration; e0 += kPinnedInterval) {
    const trace::Minute t1 = std::min(e0 + kPinnedInterval, kPinnedDuration);
    const bool last = t1 >= kPinnedDuration;
    std::vector<std::uint8_t> fresh(kPinnedShards, 0);
    for (std::size_t s = 0; s < kPinnedShards; ++s) {
      if (down[s] != 0) continue;
      const trace::Minute tc = injector.first_crash_in(s, e0, t1);
      if (tc < 0) continue;
      ++p.crashes;
      p.crash_on_epoch_start |= tc == e0;
      p.crash_in_final_epoch |= last;
      down[s] = 1;
      fresh[s] = 1;
      down_left[s] = faults.recovery_epochs;
    }
    for (std::size_t s = 0; s < kPinnedShards; ++s) {
      if (down[s] == 0 || fresh[s] != 0) continue;
      if (down_left[s] > 0) --down_left[s];
      if (down_left[s] != 0 || last) continue;
      down[s] = 0;
      ++p.recoveries;
    }
  }
  return p;
}

fault::ShardFaultConfig pinned_shard_faults() {
  fault::ShardFaultConfig faults;
  faults.crash_rate = 0.004;
  faults.recovery_epochs = 1;
  faults.stall_rate = 0.05;
  // First seed whose crash stream covers every crash edge case: a crash on
  // an epoch's first minute (the shard simulates none of that epoch), one
  // detected at the final barrier, and a shard that comes back.
  for (faults.seed = 1;; ++faults.seed) {
    const CrashPattern p = predict_crashes(faults);
    if (p.crashes >= 3 && p.recoveries > 0 && p.crash_on_epoch_start &&
        p.crash_in_final_epoch) {
      return faults;
    }
  }
}

struct PinnedRun {
  // Holds every event of the run, so the pinned hash covers the whole
  // stream.
  obs::RingBufferSink sink{(1 << 15) - 512};
  obs::MetricsRegistry registry;
  ClusterResult result;
};

void run_pinned(PinnedRun& run, std::size_t threads) {
  const Fixture fx = make_fixture(32, kPinnedDuration, 17);
  ClusterConfig cc;
  cc.shards = kPinnedShards;
  cc.threads = threads;
  cc.engine.seed = 99;
  cc.engine.record_series = true;
  cc.engine.memory_capacity_mb = fx.deployment.peak_highest_memory_mb() * 0.10;
  cc.engine.observer.sink = &run.sink;
  cc.engine.observer.metrics = &run.registry;
  cc.market.rebalance_interval = kPinnedInterval;
  cc.shard_faults = pinned_shard_faults();
  ClusterEngine cluster(fx.deployment, fx.workload.trace, cc);
  run.result = cluster.run([] { return policies::make_policy("pulse"); });
}

void add_text(Fingerprint& fp, std::string_view text) {
  fp.add_u64(text.size());
  for (const char c : text) fp.add_u64(static_cast<unsigned char>(c));
}

std::uint64_t state_fingerprint(const PinnedRun& run) {
  const ClusterResult& r = run.result;
  Fingerprint fp;
  for (const sim::RunResult& shard : r.shards) fp.add_u64(fingerprint(shard));
  fp.add_u64(r.shard_crashes);
  fp.add_u64(r.shard_recoveries);
  fp.add_u64(r.stalled_epochs);
  for (const ShardFailure& f : r.failures) {
    fp.add_u64(f.shard);
    fp.add_u64(static_cast<std::uint64_t>(f.crash_minute));
    fp.add_u64(static_cast<std::uint64_t>(f.detected_minute));
    fp.add_u64(static_cast<std::uint64_t>(f.recovery_minute));
    fp.add_u64(f.warm_lost);
    fp.add_u64(f.failed_invocations);
    fp.add_u64(static_cast<std::uint64_t>(f.replayed_minutes));
    fp.add_double(f.reclaimed_quota_mb);
  }
  for (const double q : r.final_quota_mb) fp.add_double(q);
  fp.add_double(r.total_quota_mb);
  fp.add_u64(r.rebalance_epochs);
  fp.add_u64(r.transfers);
  fp.add_double(r.quota_moved_mb);
  return fp.value();
}

std::uint64_t obs_fingerprint(const PinnedRun& run) {
  const ClusterResult& r = run.result;
  Fingerprint fp;
  for (const obs::TraceEvent& e : run.sink.events()) {
    fp.add_u64(static_cast<std::uint64_t>(e.type));
    fp.add_u64(static_cast<std::uint64_t>(e.minute));
    fp.add_u64(e.function);
    fp.add_u64(static_cast<std::uint64_t>(e.variant));
    fp.add_double(e.value);
    add_text(fp, e.detail);
  }
  for (const auto& [name, value] : r.metrics.counters) {
    add_text(fp, name);
    fp.add_u64(value);
  }
  for (const auto& [name, value] : r.metrics.gauges) {
    add_text(fp, name);
    fp.add_double(value);
  }
  for (const auto& [name, h] : r.metrics.histograms) {
    add_text(fp, name);
    fp.add_u64(h.total);
    fp.add_u64(h.overflow);
    fp.add_double(h.mean);
    fp.add_u64(h.p50);
    fp.add_u64(h.p99);
  }
  return fp.value();
}

TEST(ShardFaultCluster, PinnedCrashRecoveryRun) {
  constexpr std::uint64_t kPinnedState = 16210650350184474981ULL;
  constexpr std::uint64_t kPinnedObs = 2946540619776725319ULL;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    PinnedRun run;
    run_pinned(run, threads);
    const ClusterResult& r = run.result;

    // The seed scan's promises hold in the real run.
    const CrashPattern p = predict_crashes(pinned_shard_faults());
    ASSERT_EQ(r.shard_crashes, p.crashes) << threads << " threads";
    ASSERT_EQ(r.shard_recoveries, p.recoveries) << threads << " threads";
    bool epoch_start = false, final_epoch = false;
    for (const ShardFailure& f : r.failures) {
      epoch_start |= f.replayed_minutes == 0;
      final_epoch |= f.detected_minute == kPinnedDuration;
    }
    EXPECT_TRUE(epoch_start);
    EXPECT_TRUE(final_epoch);
    ASSERT_EQ(run.sink.dropped(), 0u) << "the sink must retain every event";
    ASSERT_EQ(run.sink.events().size(), run.sink.recorded());

    EXPECT_EQ(state_fingerprint(run), kPinnedState) << threads << " threads";
    EXPECT_EQ(obs_fingerprint(run), kPinnedObs) << threads << " threads";
  }
}

// Every event describes a minute that happened: on the pinned crash run the
// event stream reconciles exactly with the counters the shards report.
TEST(ShardFaultCluster, EventStreamReconcilesWithResult) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    PinnedRun run;
    run_pinned(run, threads);
    const ClusterResult& r = run.result;
    ASSERT_GT(r.shard_crashes, 0u);
    ASSERT_EQ(run.sink.dropped(), 0u) << "the sink must retain every event";

    std::uint64_t evictions = 0, cold_starts = 0, crash_evictions = 0;
    double crash_lost = 0.0;
    for (const obs::TraceEvent& e : run.sink.events()) {
      switch (e.type) {
        case obs::EventType::kEviction: ++evictions; break;
        case obs::EventType::kColdStart: ++cold_starts; break;
        case obs::EventType::kCrashEviction: ++crash_evictions; break;
        case obs::EventType::kShardCrash: crash_lost += e.value; break;
        default: break;
      }
    }
    const sim::RunTotals totals = r.totals();
    EXPECT_EQ(evictions, totals.capacity_evictions) << threads << " threads";
    EXPECT_EQ(cold_starts, totals.cold_starts) << threads << " threads";
    EXPECT_EQ(crash_evictions + static_cast<std::uint64_t>(crash_lost),
              totals.crash_evictions)
        << threads << " threads";
  }
}

TEST(ShardFaultCluster, RejectsInvalidShardFaultConfig) {
  const Fixture fx = make_fixture(8, 60, 1);
  ClusterConfig cc;
  cc.shard_faults.crash_rate = 2.0;
  EXPECT_THROW(ClusterEngine(fx.deployment, fx.workload.trace, cc), std::invalid_argument);
}

}  // namespace
}  // namespace pulse::cluster
