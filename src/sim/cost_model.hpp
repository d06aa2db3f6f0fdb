#pragma once
// Keep-alive cost accounting.
//
// The paper prices keep-alive by memory-time using AWS-style pricing (its
// "$16.67 per KB-second" figure is garbled; the Table I cents/hour column
// implies ~0.0119 cents per MB-hour, which we adopt as the one rate — see
// DESIGN.md). Only relative costs matter for every reported result.

#include "models/model.hpp"

namespace pulse::sim {

/// Keep-alive price; reproduces Table I's keep-alive cost column from the
/// variant memory footprints.
inline constexpr double kCentsPerMbHour = 0.0119;

/// USD charged for keeping `memory_mb` resident for `minutes`.
[[nodiscard]] constexpr double keepalive_cost_usd(double memory_mb, double minutes) noexcept {
  return memory_mb * minutes * kCentsPerMbHour / 60.0 / 100.0;
}

/// Table I's "Keep Alive Cost (cents/hour)" column for one variant.
[[nodiscard]] constexpr double cents_per_hour(const models::ModelVariant& v) noexcept {
  return v.memory_mb * kCentsPerMbHour;
}

}  // namespace pulse::sim
