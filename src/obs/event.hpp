#pragma once
// Typed simulation events for the observability layer.
//
// Events are small PODs: one enum tag, the minute/function coordinates, the
// variant involved (when meaningful), one numeric payload, and a *static*
// detail string. They carry everything the engine and the policies know at
// the moment the event fires, so a sink can reconstruct *why* a run made a
// decision without re-running it. Emission is strictly opt-in: with no sink
// attached, no event is ever constructed (see obs/observer.hpp).

#include <cstddef>
#include <cstdint>

#include "trace/trace.hpp"

namespace pulse::obs {

enum class EventType : std::uint8_t {
  /// First invocation of a cold minute: a container was started.
  /// `variant` is the serving variant, `value` the invocation count.
  kColdStart,
  /// Invocations served by an already-alive container. `variant` is the
  /// serving variant, `value` the invocation count of the minute.
  kWarmStart,
  /// A kept container was evicted by platform capacity pressure.
  /// `variant` is the evicted variant.
  kEviction,
  /// A kept container was evicted by an injected crash.
  kCrashEviction,
  /// A cross-function optimizer lowered (or dropped) a kept model.
  /// `variant` is the variant *before* the downgrade; `value` the variant
  /// after it (-1 = dropped entirely).
  kDowngrade,
  /// An injected or absorbed fault: cold-start failure, SLO timeout, or a
  /// guard incident. `detail` names the kind.
  kFault,
  /// Keep-alive memory exceeded the capacity at the end of a minute.
  /// `value` is the overshoot in MB; `function` is meaningless.
  kCapacityPressure,
  /// A policy-level decision worth tracing (window chosen, MILP solved,
  /// forecast refreshed). `detail` names the decision.
  kPolicyDecision,
  /// The platform simulator spawned a container at reconcile time to
  /// satisfy the schedule (no invocation drove it). `value` is the
  /// cold-start provisioning time in seconds the container pays before
  /// turning warm.
  kPrewarm,
  /// The cluster capacity market moved keep-alive quota between two worker
  /// shards at a rebalance epoch. Shard coordinates ride the function /
  /// variant fields: `function` is the recipient shard, `variant` the donor
  /// shard (-2 = the degraded-mode reserve), `value` the MB moved. `minute`
  /// is the epoch boundary; `detail` is "quota_transfer", "reserve_grant"
  /// or "quota_clawback".
  kRebalance,
  /// A worker shard crashed: its warm pool and in-memory engine state are
  /// lost, and arrivals routed to it fail until recovery. `function` is the
  /// shard id, `minute` the crash minute, `value` the warm containers lost.
  kShardCrash,
  /// A crashed shard rejoined the cluster after its outage. `function` is
  /// the shard id, `minute` the recovery barrier, `value` the outage length
  /// in minutes.
  kShardRecover,
  /// End-of-minute aggregate sample (opt-in via
  /// EngineConfig::emit_minute_samples): `value` is the keep-alive memory in
  /// MB at the end of minute `minute`, `variant` the alive container count.
  /// One per simulated minute — the anchor the JSONL replayer uses to
  /// reconstruct the cost curve without re-running the simulation.
  kMinuteSample,
};

/// Number of EventType values (sizes per-type count arrays).
inline constexpr std::size_t kEventTypeCount =
    static_cast<std::size_t>(EventType::kMinuteSample) + 1;

/// Stable lower-snake-case name of the event type (the JSONL `type` field).
[[nodiscard]] const char* to_string(EventType type) noexcept;

struct TraceEvent {
  EventType type = EventType::kColdStart;
  trace::Minute minute = 0;
  /// Function the event concerns; kNoFunction for aggregate events.
  trace::FunctionId function = kNoFunction;
  /// Model variant involved; -1 when not applicable.
  std::int32_t variant = -1;
  /// Type-specific numeric payload (counts, MB, seconds — see EventType).
  double value = 0.0;
  /// Static string literal with extra context. Sinks keep only the pointer,
  /// so it MUST have static storage duration (never e.what()).
  const char* detail = "";

  static constexpr trace::FunctionId kNoFunction = static_cast<trace::FunctionId>(-1);
};

}  // namespace pulse::obs
