#pragma once
// One hash per simulation result, for the bitwise determinism tests: the
// golden fixtures pin these values, and the observability, cluster and
// shard-fault tests compare them across runs that must not differ. The
// field order is part of every pinned value; never reorder it.

#include <bit>
#include <cstdint>

#include "platform/platform.hpp"
#include "sim/metrics.hpp"

namespace pulse::testutil {

/// FNV-1a 64-bit, fed field by field so every bit of the result counts.
class Fingerprint {
 public:
  void add_u64(std::uint64_t v) noexcept {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xffu;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void add_double(double v) noexcept { add_u64(std::bit_cast<std::uint64_t>(v)); }
  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// The whole RunResult, including every recorded series, as one hash. The
/// `metrics` snapshot and policy_overhead_s are left out: they are
/// diagnostics, not simulation output.
inline std::uint64_t fingerprint(const sim::RunResult& r) {
  Fingerprint fp;
  fp.add_double(r.total_service_time_s);
  fp.add_double(r.total_keepalive_cost_usd);
  fp.add_double(r.accuracy_pct_sum);
  fp.add_u64(r.invocations);
  fp.add_u64(r.warm_starts);
  fp.add_u64(r.cold_starts);
  fp.add_u64(r.downgrades);
  fp.add_u64(r.capacity_evictions);
  fp.add_u64(r.failed_invocations);
  fp.add_u64(r.retries);
  fp.add_u64(r.timeouts);
  fp.add_u64(r.crash_evictions);
  fp.add_u64(r.degraded_minutes);
  fp.add_u64(r.guard_incidents);
  for (double v : r.keepalive_memory_mb) fp.add_double(v);
  for (double v : r.keepalive_cost_usd) fp.add_double(v);
  for (double v : r.ideal_cost_usd) fp.add_double(v);
  for (double v : r.service_time_samples) fp.add_double(v);
  for (const sim::FunctionMetrics& m : r.per_function) {
    fp.add_u64(m.invocations);
    fp.add_u64(m.warm_starts);
    fp.add_u64(m.cold_starts);
    fp.add_double(m.service_time_s);
    fp.add_double(m.accuracy_pct_sum);
  }
  return fp.value();
}

/// The container simulator's PlatformResult (every counter, both totals,
/// the memory series) as one hash.
inline std::uint64_t fingerprint(const platform::PlatformResult& r) {
  Fingerprint fp;
  fp.add_double(r.total_service_time_s);
  fp.add_double(r.total_cost_usd);
  fp.add_double(r.accuracy_pct_sum);
  fp.add_u64(r.invocations);
  fp.add_u64(r.warm_starts);
  fp.add_u64(r.cold_starts);
  fp.add_u64(r.scale_out_cold_starts);
  fp.add_u64(r.containers_created);
  fp.add_u64(r.prewarm_starts);
  fp.add_u64(r.peak_containers);
  fp.add_u64(r.downgrades);
  fp.add_u64(r.failed_invocations);
  fp.add_u64(r.retries);
  fp.add_u64(r.timeouts);
  fp.add_u64(r.crash_evictions);
  fp.add_u64(r.capacity_evictions);
  fp.add_u64(r.degraded_minutes);
  fp.add_u64(r.guard_incidents);
  for (double v : r.memory_mb) fp.add_double(v);
  return fp.value();
}

}  // namespace pulse::testutil
