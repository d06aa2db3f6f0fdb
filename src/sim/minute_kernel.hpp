#pragma once
// The run frame and minute-boundary rules of both simulators, written once.
//
// sim::SteppedRun (one shared container per function-minute) and
// platform::PlatformSimulator (a per-container seconds pool) differ only in
// how they serve a minute's invocations and in their own result fields. The
// kernel owns the rest: the schedule, the latency table and the one
// service-time draw, the run's event lane and the Observer copy the policy
// sees, the policy's initialization and its one PolicyCallTimer, the
// injected crash sweep, cold-start retry and backoff, per-variant SLO
// clipping, memory pressure and capacity eviction, the degraded-minute
// tally, the per-minute memory record (handed to end_of_minute as its
// MemoryHistory, which no policy in src/ reads; the run's peak-memory
// gauge does), and the end-of-run fold of the sim::RunTotals both results
// derive from (their `<prefix>.*` counters included). Crash, retry, SLO
// and capacity parity between the layers thus holds by construction
// (request scheduling kept apart from the resource model, as in CloudSimSC).
// Its inputs are declared once too: sim::RunConfig, the base of
// EngineConfig and platform::PlatformConfig, which the kernel takes whole
// and checks once. The serving rule is a lambda passed to step(), so the
// engine's hot path makes no virtual call per function-minute.

#include <cstdint>
#include <memory>
#include <string_view>
#include <utility>
#include <vector>

#include "fault/injector.hpp"
#include "models/latency.hpp"
#include "obs/collector.hpp"
#include "obs/observer.hpp"
#include "sim/deployment.hpp"
#include "sim/metrics.hpp"
#include "sim/policy.hpp"
#include "sim/schedule.hpp"
#include "trace/trace.hpp"
#include "util/rng.hpp"

namespace pulse::sim {

/// What both run frames read: the base of EngineConfig and
/// platform::PlatformConfig, as sim::RunTotals is of their results.
struct RunConfig {
  models::LatencyModel latency{};

  /// Use expected service times instead of sampled ones. Unit tests and the
  /// ideal-cost analysis use this for exact arithmetic.
  bool deterministic_latency = false;

  /// Seed of every function's jitter (and the engine's accuracy) stream,
  /// util::function_stream of its global id, and of the capacity victim
  /// draws; independent of trace generation and faults.
  std::uint64_t seed = 1;

  /// Absolute keep-alive memory capacity, MB (0 = unlimited; the kernel
  /// throws std::invalid_argument unless it is finite and >= 0). When the
  /// schedule exceeds it at the end of a minute, kept containers are evicted
  /// in a seeded random order until it fits: the provider behaviour of the
  /// paper's §III-A ("random functions/models are downgraded" under memory
  /// stress), which policies that flatten peaks (PULSE) rarely trigger.
  double memory_capacity_mb = 0.0;

  /// Fault injection (crashes, cold-start failures, SLO timeouts, memory
  /// pressure). All rates default to zero, in which case the run is
  /// bitwise-identical to one without any injector: fault decisions are
  /// hash-derived from FaultConfig::seed and consume no simulator RNG state.
  fault::FaultConfig faults{};

  /// Observability context: optional event sink, metrics registry, and
  /// phase profiler (all non-owning; default fully disabled). Attaching
  /// any of them leaves the result bitwise identical: the layer observes,
  /// it never steers (tests/obs/obs_determinism_test.cpp is the gate).
  /// A sink that is not an obs::EventLane is fed through a one-lane
  /// obs::EventCollector the run owns; it holds every event once the run
  /// has finished.
  obs::Observer observer{};

  /// Keep the per-minute series in the result (Figures 4/6b/7). Off by
  /// default: the 1000-run ensembles only need the totals.
  bool record_series = false;
};

/// Why the kernel evicted a kept container.
enum class Eviction { kCrash, kCapacity };

class MinuteKernel final : public MemoryHistory {
 public:
  /// One run of `policy` over `trace` under `config`, reporting into
  /// `totals` (the caller's result); both, `deployment` and `totals` must
  /// outlive the kernel. Throws std::invalid_argument on a capacity that is
  /// not finite and >= 0. Attaches the policy to a copy of the config's
  /// observer whose sink is the run's lane (obs::own_lane), then
  /// initializes it. `global_ids` means what EngineConfig::global_ids means.
  MinuteKernel(const Deployment& deployment, const trace::Trace& trace,
               KeepAlivePolicy& policy, RunTotals& totals, const RunConfig& config,
               const std::vector<trace::FunctionId>* global_ids = nullptr);

  // The policy holds a pointer to observer_.
  MinuteKernel(const MinuteKernel&) = delete;
  MinuteKernel& operator=(const MinuteKernel&) = delete;

  /// Minute t: the crash sweep, `serve()` (the caller's serving rule, which
  /// calls on_invocation()), the policy's end_of_minute(), then eviction
  /// until the schedule fits `capacity_mb` (0 = unlimited; pressure spikes
  /// tighten it), calling `on_evict(f, cause)` per victim. close_minute()
  /// then ends the minute.
  template <typename Serve, typename OnEvict>
  void step(trace::Minute t, double capacity_mb, Serve&& serve, OnEvict&& on_evict);

  /// Tallies the minute as degraded if a fault fired; records its memory.
  void close_minute(double memory_mb);

  /// The policy calls of a minute, timed by the run's PolicyCallTimer.
  void on_invocation(trace::FunctionId f, trace::Minute t) {
    policy_calls_.on_invocation(f, t, schedule_);
  }
  void end_of_minute(trace::Minute t) { policy_calls_.end_of_minute(t, schedule_, *this); }

  /// The policy's variant for a cold start of f at t.
  [[nodiscard]] std::size_t cold_start_variant(trace::FunctionId f, trace::Minute t) const {
    return policy_->cold_start_variant(f, t, schedule_.deployment());
  }

  /// f's service time on one variant, bound per function-minute and called
  /// per invocation: the expected time under deterministic latency, else a
  /// draw from f's jitter stream (util::function_stream of its global id).
  struct ServiceDraw {
    const models::ModelVariant* variant;
    const models::LatencyModel::Prepared* prepared;
    util::Pcg32* rng;
    bool deterministic;

    [[nodiscard]] double operator()(bool cold) const {
      return deterministic ? models::LatencyModel::expected_service_time(*variant, cold)
                           : models::LatencyModel::sample(*prepared, cold, *rng);
    }
  };
  /// `variant` is f's family's variant `variant_index`.
  [[nodiscard]] ServiceDraw service_draw(trace::FunctionId f, std::size_t variant_index,
                                         const models::ModelVariant& variant) noexcept {
    return {&variant, &latency_.at(f, variant_index), &streams_[f], deterministic_latency_};
  }

  /// Ends the run: feeds the run's own collector (if any) to the sink,
  /// sets the totals' downgrades and guard incidents from the policy, and
  /// adds `<prefix>.runs`, every counter of the totals and the
  /// `<prefix>.service_time_s` gauge to an attached registry.
  void finish(std::string_view prefix);

  [[nodiscard]] KeepAliveSchedule& schedule() noexcept { return schedule_; }

  /// The run's event lane (null with no sink attached): the serving rules
  /// record into it directly.
  [[nodiscard]] obs::EventLane* lane() const noexcept { return lane_; }

  /// Policy time of the run so far, seconds; 0 with no profiler.
  [[nodiscard]] double policy_overhead_s() const noexcept { return policy_calls_.overhead_s(); }

  /// Cold start of catalog function `gf` at t on `variant`, through the
  /// injected failure/retry loop. Tallies retries and emits their kFault
  /// event; when every attempt fails, `count` invocations fail with it.
  [[nodiscard]] fault::ColdStartOutcome start_cold(trace::FunctionId gf, trace::Minute t,
                                                   std::size_t variant, std::uint32_t count);

  /// Per-variant SLO: an invocation running past the deadline is abandoned
  /// there — service time clipped, no accuracy delivered.
  void clip_to_slo(trace::FunctionId gf, trace::Minute t, std::size_t variant_index,
                   const models::ModelVariant& variant, bool cold, double& service_s,
                   double& accuracy_credit) {
    if (!faults_on_) return;
    const double slo = injector_.timeout_slo_s(
        models::LatencyModel::expected_service_time(variant, cold));
    if (slo > 0.0 && service_s > slo) {
      service_s = slo;
      accuracy_credit = 0.0;
      ++totals_->timeouts;
      degraded_ = true;
      emit(obs::EventType::kFault, t, gf, static_cast<std::int32_t>(variant_index), slo,
           "slo_timeout");
    }
  }

  /// `count` invocations of `gf` at t fail for `cause` (a kFault event).
  void fail(trace::FunctionId gf, trace::Minute t, std::int32_t variant, std::uint32_t count,
            const char* cause);

  /// Marks the current minute degraded regardless of injected faults.
  void degrade() noexcept { degraded_ = true; }

  [[nodiscard]] trace::FunctionId global_id(trace::FunctionId f) const noexcept {
    return global_ids_ != nullptr ? (*global_ids_)[f] : f;
  }

  // MemoryHistory: the recorded keep-alive memory of closed minutes.
  [[nodiscard]] double memory_at(trace::Minute t) const override {
    if (t < 0 || static_cast<std::size_t>(t) >= record_.size()) return 0.0;
    return record_[static_cast<std::size_t>(t)];
  }
  [[nodiscard]] trace::Minute now() const override {
    return static_cast<trace::Minute>(record_.size());
  }

  [[nodiscard]] const std::vector<double>& record() const noexcept { return record_; }

 private:
  static constexpr std::uint64_t kHashEvictStream = 0xeb1c'7005;

  /// Index in [0, live) of the minute's `ordinal`-th victim among the
  /// `live` entries of kept_ not yet evicted this minute.
  [[nodiscard]] std::uint32_t pick_victim(trace::Minute t, std::uint32_t ordinal,
                                          std::uint32_t live) const noexcept;

  /// Marks every entry of kept_ live (O(K)).
  void reset_live();

  /// Position in kept_ of the idx-th (0-based) live entry, which is marked
  /// evicted: a binary descent, then one decrement path. O(log K).
  [[nodiscard]] std::size_t take_live(std::uint32_t idx);

  void emit(obs::EventType type, trace::Minute t, trace::FunctionId f, std::int32_t variant,
            double value, const char* detail) const {
    if (lane_ != nullptr) lane_->record({type, t, f, variant, value, detail});
  }

  KeepAliveSchedule schedule_;
  LatencyTable latency_;
  bool deterministic_latency_;
  RunTotals* totals_;
  std::unique_ptr<obs::EventCollector> collector_;  // see obs::own_lane
  obs::EventLane* lane_ = nullptr;
  obs::Observer observer_;
  KeepAlivePolicy* policy_;
  PolicyCallTimer policy_calls_;
  fault::FaultInjector injector_;
  bool faults_on_;
  std::uint64_t seed_;
  const std::vector<trace::FunctionId>* global_ids_;
  std::vector<util::Pcg32> streams_;  // jitter, by local function id
  std::vector<std::pair<trace::FunctionId, std::size_t>> kept_;
  /// Fenwick tree over kept_'s positions (1-based): live_tree_[i] counts
  /// the live entries in (i - lowbit(i), i]. kept_ never moves during a
  /// minute; a victim draw indexes only its live entries, in list order.
  std::vector<std::uint32_t> live_tree_;
  std::vector<double> record_;
  bool degraded_ = false;
};

template <typename Serve, typename OnEvict>
void MinuteKernel::step(trace::Minute t, double capacity_mb, Serve&& serve,
                        OnEvict&& on_evict) {
  KeepAliveSchedule& schedule = schedule_;

  // Injected crashes fire at the minute boundary: the crashed container's
  // remaining keep-alive stretch is evicted, so this minute's invocations
  // (if any) go cold.
  if (faults_on_ && injector_.config().crash_rate > 0.0) {
    schedule.for_each_alive(t, [&](trace::FunctionId f, std::size_t variant) {
      const trace::FunctionId gf = global_id(f);
      if (!injector_.container_crashes(gf, t)) return;
      schedule.evict_from(f, t);
      ++totals_->crash_evictions;
      on_evict(f, Eviction::kCrash);
      degraded_ = true;
      emit(obs::EventType::kCrashEviction, t, gf, static_cast<std::int32_t>(variant), 1.0, "");
    });
  }

  serve();
  end_of_minute(t);

  // Capacity pressure: evict random kept containers until keep-alive memory
  // fits (the provider behaviour under memory stress; PULSE-style policies
  // flatten before this fires). memory_at is O(1) and evicting a victim
  // only changes its own row, so the kept list is built once. Each draw
  // indexes the entries not yet evicted, in list order; a Fenwick tree
  // finds and retires that entry in O(log K), so E evictions of stretches
  // up to W minutes cost O(F + E·(log K + W)).
  if (faults_on_) {  // injected memory-pressure spikes tighten the capacity
    if (injector_.under_memory_pressure(t)) degraded_ = true;
    capacity_mb = injector_.effective_capacity_mb(capacity_mb, t);
  }
  if (capacity_mb <= 0.0 || schedule.memory_at(t) <= capacity_mb) return;
  emit(obs::EventType::kCapacityPressure, t, obs::TraceEvent::kNoFunction, -1,
       schedule.memory_at(t) - capacity_mb, "");
  schedule.kept_alive_at(t, kept_);
  reset_live();
  auto live = static_cast<std::uint32_t>(kept_.size());
  for (std::uint32_t ordinal = 0; live > 0; ++ordinal, --live) {
    const auto victim = kept_[take_live(pick_victim(t, ordinal, live))];
    schedule.evict_from(victim.first, t);
    ++totals_->capacity_evictions;
    on_evict(victim.first, Eviction::kCapacity);
    emit(obs::EventType::kEviction, t, global_id(victim.first),
         static_cast<std::int32_t>(victim.second), 1.0, "capacity");
    if (schedule.memory_at(t) <= capacity_mb) break;
  }
}

}  // namespace pulse::sim
