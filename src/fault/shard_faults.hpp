#pragma once
// Seeded, deterministic shard-level fault injection for the cluster engine.
//
// The container-level FaultInjector disrupts individual kept containers;
// this injector disrupts whole worker shards: a crash loses the shard's
// entire warm pool (the shard stops simulating at its crash minute and
// rejoins after an outage, see ClusterEngine), and a stall marks the shard a
// straggler for one rebalance epoch (it still computes, but its pressure
// signals are stale, so the capacity market leaves it untouched).
//
// Decisions follow the FaultInjector discipline: pure functions of
// (seed, stream, coordinates) via util::hash_uniform, so
//   - the same seed always produces the same shard-fault pattern, bitwise
//     reproducible for any thread count or barrier cadence,
//   - zero rates are observationally identical to no injector at all, and
//   - the crash and stall streams are independent of each other and of
//     every container-level fault stream.

#include <cstdint>

#include "trace/trace.hpp"
#include "util/rng.hpp"

namespace pulse::fault {

struct ShardFaultConfig {
  std::uint64_t seed = 0x5a4dfa17;

  /// Probability that a live shard crashes in any given minute. A crash
  /// destroys the shard's warm pool: the cluster engine simulates the shard
  /// only up to the crash minute, and at the next rebalance barrier drops
  /// every container alive or scheduled from that minute on.
  double crash_rate = 0.0;

  /// Rebalance epochs a crashed shard stays down after the barrier that
  /// detected the crash (>= 1). The shard rejoins at the barrier ending the
  /// last down epoch; every arrival routed to it meanwhile fails.
  std::size_t recovery_epochs = 1;

  /// Probability that a live shard spends a whole rebalance epoch stalled
  /// (a straggler: it keeps simulating, but the capacity market skips it
  /// for the epoch because its signals are stale).
  double stall_rate = 0.0;

  [[nodiscard]] bool enabled() const noexcept {
    return crash_rate > 0.0 || stall_rate > 0.0;
  }

  [[nodiscard]] bool valid() const noexcept {
    return crash_rate >= 0.0 && crash_rate <= 1.0 && stall_rate >= 0.0 &&
           stall_rate <= 1.0 && recovery_epochs >= 1;
  }
};

class ShardFaultInjector {
 public:
  ShardFaultInjector() = default;
  explicit ShardFaultInjector(ShardFaultConfig config) noexcept : config_(config) {}

  [[nodiscard]] const ShardFaultConfig& config() const noexcept { return config_; }

  /// Does shard `shard` crash during minute t?
  [[nodiscard]] bool shard_crashes(std::size_t shard, trace::Minute t) const noexcept {
    if (config_.crash_rate <= 0.0) return false;
    return util::hash_uniform(config_.seed, kCrashStream,
                              static_cast<std::uint64_t>(shard),
                              static_cast<std::uint64_t>(t)) < config_.crash_rate;
  }

  /// First minute in [begin, end) at which `shard` crashes; -1 when it
  /// survives the whole span. The cluster engine evaluates it once per live
  /// shard at each epoch start, runs a shard it names only up to that
  /// minute, and reuses the value for detection at the barrier.
  [[nodiscard]] trace::Minute first_crash_in(std::size_t shard, trace::Minute begin,
                                             trace::Minute end) const noexcept {
    if (config_.crash_rate <= 0.0) return -1;
    for (trace::Minute t = begin; t < end; ++t) {
      if (shard_crashes(shard, t)) return t;
    }
    return -1;
  }

  /// Is shard `shard` stalled for the whole rebalance epoch `epoch`
  /// (0-based epoch ordinal)?
  [[nodiscard]] bool shard_stalls(std::size_t shard, std::uint64_t epoch) const noexcept {
    if (config_.stall_rate <= 0.0) return false;
    return util::hash_uniform(config_.seed, kStallStream,
                              static_cast<std::uint64_t>(shard), epoch) <
           config_.stall_rate;
  }

 private:
  // Disjoint from every container-level FaultInjector stream tag and from
  // the engine's hashed-RNG stream tags.
  static constexpr std::uint64_t kCrashStream = 0x5a4d'c4a5;
  static constexpr std::uint64_t kStallStream = 0x5a4d'57a1;

  ShardFaultConfig config_{};
};

}  // namespace pulse::fault
