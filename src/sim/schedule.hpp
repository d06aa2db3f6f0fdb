#pragma once
// The keep-alive schedule: for every function and minute, which model
// variant (if any) is kept alive. Policies write it; the engine reads it to
// resolve warm/cold starts and to account keep-alive memory and cost.
//
// Storage is minute-major (one contiguous row of variant slots per minute),
// so the engine's per-minute scans are cache-linear, and every mutation
// keeps per-minute aggregates incrementally up to date:
//   - alive_count_at(t) is O(1),
//   - memory_at(t) is O(1): the exact fixed-point total of the minute's
//     kept-variant memories, converted to double once. That is the
//     correctly rounded sum, so it does not depend on summation order.
// See docs/PERFORMANCE.md for the full complexity contract.
//
// The schedule is not thread-safe: each simulation run owns its own
// instance.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "sim/deployment.hpp"
#include "trace/trace.hpp"

namespace pulse::sim {

/// Sentinel for "no container kept alive".
constexpr int kNoVariant = -1;

#if !defined(__SIZEOF_INT128__)
#error "KeepAliveSchedule needs unsigned __int128 (gcc or clang on a 64-bit target)"
#endif

/// static_cast<double>(x), correctly rounded to nearest-even, inline rather
/// than through libgcc's out-of-line __floatuntidf. Above 2^64 it keeps the
/// top 63 significant bits and ORs in a sticky bit for any 1 shifted out: 10
/// bits sit below the 53 that survive, so the sticky bit only decides ties.
/// The signed conversion rounds that once, and the power-of-two rescale is
/// exact.
[[nodiscard]] inline double u128_to_double(unsigned __int128 x) noexcept {
  const auto hi = static_cast<std::uint64_t>(x >> 64);
  if (hi == 0) return static_cast<double>(static_cast<std::uint64_t>(x));
  const int shift = 65 - std::countl_zero(hi);  // 2..65
  const auto top = static_cast<std::uint64_t>(x >> shift);
  const bool sticky = (x & ((static_cast<unsigned __int128>(1) << shift) - 1)) != 0;
  const double scale = std::bit_cast<double>(static_cast<std::uint64_t>(1023 + shift) << 52);
  return static_cast<double>(static_cast<std::int64_t>(top | sticky)) * scale;
}

class KeepAliveSchedule {
 public:
  /// The deployment must outlive the schedule. Throws std::invalid_argument
  /// on a negative duration, 2^24 or more functions, or a variant memory
  /// outside [0, 2^30) MB.
  KeepAliveSchedule(const Deployment& deployment, trace::Minute duration);

  [[nodiscard]] trace::Minute duration() const noexcept { return duration_; }
  [[nodiscard]] std::size_t function_count() const noexcept { return functions_; }
  [[nodiscard]] const Deployment& deployment() const noexcept { return *deployment_; }

  /// Variant kept alive for f at minute t; kNoVariant when none (or t is
  /// outside the horizon).
  [[nodiscard]] int variant_at(trace::FunctionId f, trace::Minute t) const {
    if (t < 0 || t >= duration_) return kNoVariant;
    check_function(f);
    return grid_[static_cast<std::size_t>(t) * functions_ + f];
  }

  /// true when any container of f is alive at t.
  [[nodiscard]] bool is_alive(trace::FunctionId f, trace::Minute t) const {
    return variant_at(f, t) != kNoVariant;
  }

  /// Number of variants in f's model family (cached; O(1), no pointer
  /// chase through the deployment).
  [[nodiscard]] std::size_t variant_count_of(trace::FunctionId f) const {
    check_function(f);
    return variant_count_[f];
  }

  /// Sets the kept-alive variant for one minute. Out-of-horizon minutes are
  /// ignored (policies schedule t+1..t+10 near the trace end) — checked
  /// before anything else, so an out-of-horizon write never throws. Throws
  /// on a function or variant index outside the deployment.
  void set(trace::FunctionId f, trace::Minute t, int variant) {
    if (t < 0 || t >= duration_) return;  // out-of-horizon writes are ignored
    check_function(f);
    if (variant != kNoVariant) {
      if (variant < 0 || static_cast<std::uint32_t>(variant) >= variant_count_[f]) {
        throw_bad_variant();
      }
      horizon_[f] = std::max(horizon_[f], t + 1);
    }
    write_slot(f, static_cast<std::size_t>(t), static_cast<std::int16_t>(variant));
  }

  void clear(trace::FunctionId f, trace::Minute t) { set(f, t, kNoVariant); }

  /// Fills [from, to) with `variant` (clipped to the horizon).
  void fill(trace::FunctionId f, trace::Minute from, trace::Minute to, int variant);

  /// Clears every scheduled minute of f at or after `from`. Bounded by f's
  /// scheduled horizon, not the trace duration: clearing an idle tail is
  /// O(1).
  void clear_from(trace::FunctionId f, trace::Minute from);

  /// Downgrades f by one variant for the contiguous scheduled stretch
  /// starting at t (the function's current keep-alive window): variant v
  /// becomes v-1; the lowest variant becomes "not kept alive". Minutes after
  /// the first gap — i.e. keep-alive windows scheduled by later invocations —
  /// are untouched. Returns the variant index that was scheduled at minute t
  /// before downgrading, or nullopt (and does nothing) when nothing is
  /// scheduled at t.
  std::optional<int> downgrade_from(trace::FunctionId f, trace::Minute t);

  /// Evicts f's container entirely for the contiguous scheduled stretch
  /// starting at t (capacity-pressure eviction: the platform kills the
  /// container regardless of variant). No-op when nothing is scheduled at t.
  void evict_from(trace::FunctionId f, trace::Minute t);

  /// Total keep-alive memory (MB) across functions at minute t: the
  /// correctly rounded sum of the kept variants' memories. O(1).
  [[nodiscard]] double memory_at(trace::Minute t) const {
    if (t < 0 || t >= duration_) return 0.0;
    return u128_to_double(exact_[static_cast<std::size_t>(t)]) * kUnitMb;
  }

  /// Containers alive at minute t. O(1) (incrementally maintained).
  [[nodiscard]] std::size_t alive_count_at(trace::Minute t) const noexcept {
    if (t < 0 || t >= duration_) return 0;
    return static_cast<std::size_t>(count_[static_cast<std::size_t>(t)]);
  }

  /// One past the last minute at which f might be scheduled (an upper
  /// bound, maintained incrementally). Slots at or beyond it are all
  /// kNoVariant; callers walking a function's tail can stop here.
  [[nodiscard]] trace::Minute scheduled_end(trace::FunctionId f) const {
    check_function(f);
    return horizon_[f];
  }

  /// Visits (function, variant) for every container alive at minute t, in
  /// ascending function order, without allocating. The visitor may evict or
  /// downgrade the function currently being visited (the engine's crash
  /// loop does), but must not otherwise mutate minute t mid-iteration.
  template <typename Visitor>
  void for_each_alive(trace::Minute t, Visitor&& visit) const {
    if (t < 0 || t >= duration_) return;
    const auto ti = static_cast<std::size_t>(t);
    if (count_[ti] == 0) return;
    const std::int16_t* row = grid_.data() + ti * functions_;
    for (std::size_t f = 0; f < functions_; ++f) {
      if (row[f] != kNoVariant) {
        visit(static_cast<trace::FunctionId>(f), static_cast<std::size_t>(row[f]));
      }
    }
  }

  /// (function, variant) pairs kept alive at minute t.
  [[nodiscard]] std::vector<std::pair<trace::FunctionId, std::size_t>> kept_alive_at(
      trace::Minute t) const;

  /// Allocation-free variant: fills `out` (cleared first) with the pairs
  /// kept alive at t. Reuse one buffer across minutes in hot loops.
  void kept_alive_at(trace::Minute t,
                     std::vector<std::pair<trace::FunctionId, std::size_t>>& out) const;

 private:
  using ExactUnits = unsigned __int128;

  /// Fixed-point scale of the exact per-minute totals: one unit is
  /// 2^-kUnitShift MB. Every variant memory >= 2^-8 MB is a whole number of
  /// units; smaller ones round to the nearest unit. The construction limits
  /// (fewer than 2^24 functions, each variant below 2^30 MB) keep a full
  /// minute's total below 2^114 units.
  static constexpr int kUnitShift = 60;
  /// One unit in MB, 2^-kUnitShift: multiplying by it scales exactly.
  static constexpr double kUnitMb = 1.0 / static_cast<double>(std::uint64_t{1} << kUnitShift);

  void check_function(trace::FunctionId f) const {
    if (f >= functions_) throw_bad_function();
  }
  [[noreturn]] static void throw_bad_function();
  [[noreturn]] static void throw_bad_variant();
  void build_variant_tables();

  /// The single mutation point: keeps the count and exact aggregates
  /// coherent with the grid.
  void write_slot(std::size_t f, std::size_t t, std::int16_t next) {
    std::int16_t& slot = grid_[t * functions_ + f];
    const std::int16_t prev = slot;
    if (prev == next) return;
    if (prev != kNoVariant) {
      --count_[t];
      exact_[t] -= var_units_[f * max_variants_ + static_cast<std::size_t>(prev)];
    }
    if (next != kNoVariant) {
      ++count_[t];
      exact_[t] += var_units_[f * max_variants_ + static_cast<std::size_t>(next)];
    }
    slot = next;
  }

  const Deployment* deployment_ = nullptr;
  trace::Minute duration_ = 0;
  std::size_t functions_ = 0;
  std::size_t max_variants_ = 0;

  /// Minute-major slots: grid_[t * functions_ + f].
  std::vector<std::int16_t> grid_;

  /// Per-(function, variant) memory in units, flattened for linear access.
  std::vector<ExactUnits> var_units_;
  std::vector<std::uint32_t> variant_count_;

  /// Per-minute aggregates, updated by write_slot.
  std::vector<std::int32_t> count_;
  std::vector<ExactUnits> exact_;

  /// Per-function scheduling horizon (upper bound; see scheduled_end).
  std::vector<trace::Minute> horizon_;
};

}  // namespace pulse::sim
