// Differential test of SteppedRun against a trivially-correct reference
// engine: one flat minute loop with no incremental state. It rebuilds the
// capacity-eviction kept list on every eviction, computes the ideal cost
// directly, draws each invocation's jitter and its Bernoulli accuracy from
// its function's own two Pcg32 streams (derived here, not through the
// production helper) and picks victims by (seed, minute, ordinal) hashing,
// so the two must agree bit for bit on every RunResult field over seeded
// random small configs — faults, capacity, sampled latency (at several
// jitter CVs, zero included) and Bernoulli accuracy on and off. Wide cases
// (up to 300 functions, capacity on) pick victims deep in long kept lists.
// A run sliced at two random minutes must also reproduce the uninterrupted
// run (the cluster engine stops crashing shards mid-epoch).

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "policies/factory.hpp"
#include "sim/cost_model.hpp"
#include "sim/engine.hpp"

namespace pulse::sim {
namespace {

using trace::FunctionId;
using trace::Minute;

// Stream tags: the victim draw, then a function's jitter and accuracy.
constexpr std::uint64_t kHashEvict = 0xeb1c'7005;
constexpr std::uint64_t kJitter = 0x9a7f02;
constexpr std::uint64_t kAccuracy = 0x0acc'0117;

// Catalog function gf's generator for one purpose: Pcg32 on a
// SplitMix64-finalized stream id, written out so the reference does not
// share the engine's helper.
util::Pcg32 function_rng(std::uint64_t seed, std::uint64_t gf, std::uint64_t purpose) {
  std::uint64_t z = (gf + 0x9e3779b97f4a7c15ULL) ^ purpose;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return util::Pcg32(seed, z ^ (z >> 31));
}

class ReferenceHistory final : public MemoryHistory {
 public:
  std::vector<double> record;
  [[nodiscard]] double memory_at(Minute t) const override {
    return t >= 0 && static_cast<std::size_t>(t) < record.size()
               ? record[static_cast<std::size_t>(t)]
               : 0.0;
  }
  [[nodiscard]] Minute now() const override { return static_cast<Minute>(record.size()); }
};

RunResult reference_run(const Deployment& dep, const trace::Trace& tr, const EngineConfig& c,
                        KeepAlivePolicy& policy) {
  RunResult r;
  KeepAliveSchedule schedule(dep, tr.duration());
  ReferenceHistory history;
  const fault::FaultInjector injector(c.faults);
  const bool faults = c.faults.enabled();
  const auto gid = [&](FunctionId f) { return c.global_ids ? (*c.global_ids)[f] : f; };
  std::vector<util::Pcg32> jitter_rng;
  std::vector<util::Pcg32> accuracy_rng;
  for (FunctionId f = 0; f < tr.function_count(); ++f) {
    jitter_rng.push_back(function_rng(c.seed, gid(f), kJitter));
    accuracy_rng.push_back(function_rng(c.seed, gid(f), kAccuracy));
  }
  if (c.record_per_function) r.per_function.assign(tr.function_count(), FunctionMetrics{});
  policy.initialize(dep, tr, schedule);

  for (Minute t = 0; t < tr.duration(); ++t) {
    bool degraded = false;
    for (FunctionId f = 0; faults && f < tr.function_count(); ++f) {
      if (schedule.variant_at(f, t) != kNoVariant && injector.container_crashes(gid(f), t)) {
        schedule.evict_from(f, t);
        ++r.crash_evictions;
        degraded = true;
      }
    }

    double ideal_t = 0.0;
    for (FunctionId f = 0; f < tr.function_count(); ++f) {
      const std::uint32_t count = tr.count(f, t);
      if (count == 0) continue;
      const models::ModelFamily& family = dep.family_of(f);
      const int alive = schedule.variant_at(f, t);
      const bool cold = alive == kNoVariant;
      const std::size_t v =
          cold ? policy.cold_start_variant(f, t, dep) : static_cast<std::size_t>(alive);
      if (cold) schedule.set(f, t, static_cast<int>(v));
      fault::ColdStartOutcome cs;
      if (cold && faults) cs = injector.cold_start(gid(f), t);
      r.retries += cs.retries;
      if (cs.retries > 0 || !cs.succeeded) degraded = true;
      if (!cs.succeeded) {
        schedule.clear(f, t);
        r.failed_invocations += count;
      }
      const models::ModelVariant& variant = family.variant(v);
      for (std::uint32_t i = 0; cs.succeeded && i < count; ++i) {
        const bool first = cold && i == 0;
        double s = c.deterministic_latency
                       ? models::LatencyModel::expected_service_time(variant, first)
                       : models::LatencyModel::sample(c.latency.prepare(variant), first,
                                                      jitter_rng[f]);
        double acc = variant.accuracy_pct;
        if (c.bernoulli_accuracy) {
          acc = accuracy_rng[f].bernoulli(variant.accuracy_fraction()) ? 100.0 : 0.0;
        }
        if (first) s += cs.retry_penalty_s;
        const double slo = c.faults.slo_multiplier *
                           models::LatencyModel::expected_service_time(variant, first);
        if (faults && c.faults.slo_multiplier > 0.0 && s > slo) {
          s = slo;
          acc = 0.0;
          ++r.timeouts;
          degraded = true;
        }
        r.total_service_time_s += s;
        r.accuracy_pct_sum += acc;
        ++r.invocations;
        first ? ++r.cold_starts : ++r.warm_starts;
        if (c.record_service_samples) r.service_time_samples.push_back(s);
        if (c.record_per_function) {
          FunctionMetrics& fm = r.per_function[f];
          ++fm.invocations;
          first ? ++fm.cold_starts : ++fm.warm_starts;
          fm.service_time_s += s;
          fm.accuracy_pct_sum += acc;
        }
      }
      ideal_t += keepalive_cost_usd(family.highest().memory_mb, 1.0);
      policy.on_invocation(f, t, schedule);
    }
    policy.end_of_minute(t, schedule, history);

    double cap = c.memory_capacity_mb;
    if (faults && injector.under_memory_pressure(t)) {
      degraded = true;
      const double spike = c.faults.memory_pressure_capacity_mb;
      cap = cap > 0.0 ? std::min(cap, spike) : spike;
    }
    for (std::uint32_t ordinal = 0; cap > 0.0 && schedule.memory_at(t) > cap; ++ordinal) {
      const auto kept = schedule.kept_alive_at(t);
      if (kept.empty()) break;
      const auto n = static_cast<std::uint32_t>(kept.size());
      util::Pcg32 draw(util::hash_u64(c.seed, kHashEvict, static_cast<std::uint64_t>(t),
                                      ordinal),
                       kHashEvict);
      const std::uint32_t idx = draw.bounded(n);
      schedule.evict_from(kept[idx].first, t);
      ++r.capacity_evictions;
    }
    if (degraded) ++r.degraded_minutes;

    const double mem = schedule.memory_at(t);
    const double cost = keepalive_cost_usd(mem, 1.0);
    r.total_keepalive_cost_usd += cost;
    history.record.push_back(mem);
    if (c.record_series) {
      r.keepalive_memory_mb.push_back(mem);
      r.keepalive_cost_usd.push_back(cost);
      r.ideal_cost_usd.push_back(ideal_t);
    }
  }
  r.downgrades = policy.downgrade_count();
  r.guard_incidents = policy.incident_count();
  return r;
}

// ---------------------------------------------------------------------------

void expect_bits(double a, double b, const char* field) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a), std::bit_cast<std::uint64_t>(b))
      << field << ": " << a << " vs " << b;
}

void expect_bits(const std::vector<double>& a, const std::vector<double>& b,
                 const char* field) {
  ASSERT_EQ(a.size(), b.size()) << field;
  for (std::size_t i = 0; i < a.size(); ++i) expect_bits(a[i], b[i], field);
}

void expect_same(const RunResult& a, const RunResult& b) {
  expect_bits(a.total_service_time_s, b.total_service_time_s, "total_service_time_s");
  expect_bits(a.total_keepalive_cost_usd, b.total_keepalive_cost_usd,
              "total_keepalive_cost_usd");
  expect_bits(a.accuracy_pct_sum, b.accuracy_pct_sum, "accuracy_pct_sum");
  expect_bits(a.policy_overhead_s, b.policy_overhead_s, "policy_overhead_s");
  EXPECT_EQ(a.invocations, b.invocations);
  EXPECT_EQ(a.warm_starts, b.warm_starts);
  EXPECT_EQ(a.cold_starts, b.cold_starts);
  EXPECT_EQ(a.downgrades, b.downgrades);
  EXPECT_EQ(a.failed_invocations, b.failed_invocations);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.timeouts, b.timeouts);
  EXPECT_EQ(a.crash_evictions, b.crash_evictions);
  EXPECT_EQ(a.capacity_evictions, b.capacity_evictions);
  EXPECT_EQ(a.degraded_minutes, b.degraded_minutes);
  EXPECT_EQ(a.guard_incidents, b.guard_incidents);
  expect_bits(a.keepalive_memory_mb, b.keepalive_memory_mb, "keepalive_memory_mb");
  expect_bits(a.keepalive_cost_usd, b.keepalive_cost_usd, "keepalive_cost_usd");
  expect_bits(a.ideal_cost_usd, b.ideal_cost_usd, "ideal_cost_usd");
  expect_bits(a.service_time_samples, b.service_time_samples, "service_time_samples");
  ASSERT_EQ(a.per_function.size(), b.per_function.size());
  for (std::size_t f = 0; f < a.per_function.size(); ++f) {
    const FunctionMetrics& x = a.per_function[f];
    const FunctionMetrics& y = b.per_function[f];
    EXPECT_EQ(x.invocations, y.invocations) << "function " << f;
    EXPECT_EQ(x.warm_starts, y.warm_starts) << "function " << f;
    EXPECT_EQ(x.cold_starts, y.cold_starts) << "function " << f;
    expect_bits(x.service_time_s, y.service_time_s, "per_function.service_time_s");
    expect_bits(x.accuracy_pct_sum, y.accuracy_pct_sum, "per_function.accuracy_pct_sum");
  }
}

struct RandomCase {
  trace::Trace trace{1, 1};
  std::vector<FunctionId> global_ids;
  EngineConfig config;
  std::string policy;
  std::string label;
};

RandomCase make_case(std::uint64_t seed, const Deployment& deployment, std::size_t functions) {
  util::Pcg32 rng(seed, 0x7e57);
  const auto coin = [&] { return rng.bounded(2) == 1; };
  const auto u64 = [&] { return (std::uint64_t{rng.next_u32()} << 32) | rng.next_u32(); };
  RandomCase rc;
  const Minute duration = 20 + static_cast<Minute>(rng.bounded(70));
  rc.trace = trace::Trace(functions, duration);
  const std::uint32_t density = 2 + rng.bounded(5);  // 1-in-density minutes invoked
  for (FunctionId f = 0; f < functions; ++f) {
    for (Minute t = 0; t < duration; ++t) {
      if (rng.bounded(density) == 0) rc.trace.set_count(f, t, 1 + rng.bounded(4));
    }
  }

  EngineConfig& c = rc.config;
  c.seed = u64();
  c.record_series = true;
  c.record_per_function = true;
  c.record_service_samples = true;
  c.deterministic_latency = coin();
  c.bernoulli_accuracy = coin();
  const bool faults = coin();
  const bool capacity = coin();
  const double peak = deployment.peak_highest_memory_mb();
  if (capacity) c.memory_capacity_mb = peak * (0.15 + 0.5 * rng.uniform());
  if (faults) {
    c.faults.seed = u64();
    c.faults.crash_rate = 0.08 * rng.uniform();
    c.faults.cold_start_failure_rate = 0.4 * rng.uniform();
    c.faults.max_cold_start_retries = rng.bounded(4);
    c.faults.slo_multiplier = coin() ? 1.0 + rng.uniform() : 0.0;
    c.faults.memory_pressure_rate = 0.2 * rng.uniform();
    c.faults.memory_pressure_capacity_mb = peak * (0.1 + 0.4 * rng.uniform());
  }
  if (coin()) {
    for (FunctionId f = 0; f < functions; ++f) rc.global_ids.push_back(7 * f + 3);
  }

  static const char* const kPolicies[] = {"openwhisk", "pulse", "random-mix", "wild+pulse"};
  rc.policy = kPolicies[rng.bounded(4)];
  // The engine draws from a table prepared at construction: check it at a
  // zero CV (no generator state consumed) and at CVs other than the default.
  switch (rng.bounded(4)) {
    case 0: c.latency = models::LatencyModel{}; break;
    case 1: c.latency = models::LatencyModel{0.0, 0.15}; break;
    case 2: c.latency = models::LatencyModel{0.08, 0.0}; break;
    default: {
      const double warm_cv = 0.5 * (1.0 - rng.uniform());  // (0, 0.5]
      c.latency = models::LatencyModel{warm_cv, 0.5 * (1.0 - rng.uniform())};
    }
  }
  rc.label = "seed=" + std::to_string(seed) + " policy=" + rc.policy +
             " fns=" + std::to_string(functions) + " T=" + std::to_string(duration) +
             " faults=" + std::to_string(faults) + " capacity=" + std::to_string(capacity) +
             " deterministic=" + std::to_string(c.deterministic_latency) +
             " bernoulli=" + std::to_string(c.bernoulli_accuracy) +
             " gids=" + std::to_string(!rc.global_ids.empty()) +
             " warm_cv=" + std::to_string(c.latency.warm_cv()) +
             " cold_cv=" + std::to_string(c.latency.cold_cv());
  return rc;
}

TEST(ReferenceEngine, SteppedRunMatchesNaiveMinuteLoopBitwise) {
  const models::ModelZoo zoo = models::ModelZoo::builtin();
  // Narrow cases (1-6 functions) cover every path; wide ones (64-300
  // functions, capacity on) make the engine pick victims deep in a long
  // kept list, as a large cluster shard does.
  constexpr std::uint64_t kCases = 240;
  constexpr std::uint64_t kWideCases = 12;
  FaultCounters fired;  // summed over every case: each path must be exercised
  std::uint64_t downgrades = 0;
  std::uint64_t wide_evictions = 0;
  for (std::uint64_t seed = 1; seed <= kCases + kWideCases; ++seed) {
    const bool wide = seed > kCases;
    const std::size_t functions =
        wide ? 64 + (seed * 2654435761u) % 237 : 1 + (seed * 2654435761u) % 6;
    const Deployment deployment = Deployment::round_robin(zoo, functions);
    RandomCase rc = make_case(seed, deployment, functions);
    if (wide) {
      util::Pcg32 rng(seed, 0x31de);
      rc.config.memory_capacity_mb =
          deployment.peak_highest_memory_mb() * (0.1 + 0.3 * rng.uniform());
      rc.label += " wide";
    }
    if (!rc.global_ids.empty()) rc.config.global_ids = &rc.global_ids;
    SCOPED_TRACE(rc.label);

    auto ref_policy = policies::make_policy(rc.policy);
    const RunResult expected = reference_run(deployment, rc.trace, rc.config, *ref_policy);

    auto policy = policies::make_policy(rc.policy);
    SteppedRun straight(deployment, rc.trace, rc.config, *policy);
    const RunResult actual = straight.finish();
    expect_same(actual, expected);
    fired.failed_invocations += expected.failed_invocations;
    fired.retries += expected.retries;
    fired.timeouts += expected.timeouts;
    fired.crash_evictions += expected.crash_evictions;
    fired.capacity_evictions += expected.capacity_evictions;
    fired.degraded_minutes += expected.degraded_minutes;
    downgrades += expected.downgrades;
    if (wide) wide_evictions += expected.capacity_evictions;

    // Stop at a random minute, again at a later one, and finish: slicing
    // is exact, so this is identical to the uninterrupted run.
    util::Pcg32 pick(seed, 0xc4ec);
    const Minute duration = rc.trace.duration();
    const Minute at = static_cast<Minute>(pick.bounded(static_cast<std::uint32_t>(duration)));
    const Minute ahead =
        at + 1 + static_cast<Minute>(pick.bounded(static_cast<std::uint32_t>(duration - at)));
    auto sliced_policy = policies::make_policy(rc.policy);
    SteppedRun sliced(deployment, rc.trace, rc.config, *sliced_policy);
    sliced.run_until(at);
    sliced.run_until(ahead);
    expect_same(sliced.finish(), expected);

    if (HasFailure()) return;  // one diagnosed case is enough
  }
  EXPECT_GT(fired.failed_invocations, 0u);
  EXPECT_GT(fired.retries, 0u);
  EXPECT_GT(fired.timeouts, 0u);
  EXPECT_GT(fired.crash_evictions, 0u);
  EXPECT_GT(fired.capacity_evictions, 0u);
  EXPECT_GT(fired.degraded_minutes, 0u);
  EXPECT_GT(downgrades, 0u);
  // Hundreds of victims, drawn from lists of 64+ entries.
  EXPECT_GT(wide_evictions, 200u);
}

}  // namespace
}  // namespace pulse::sim
