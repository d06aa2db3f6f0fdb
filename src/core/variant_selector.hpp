#pragma once
// Greedy probability-threshold variant selection (§III-A, Figure 10).
//
// For a family with N variants, the invocation-probability space [0, 1] is
// partitioned into areas; the lowest-accuracy variant is assigned to the
// lowest-probability area and so on. Two partitioning techniques are
// evaluated by the paper:
//
//   T1: N areas with N-1 thresholds at 1/N, 2/N, ..., (N-1)/N.
//   T2: probability 0 reserves the lowest-accuracy variant; (0, 1] is
//       divided into N-1 areas (N-2 thresholds) for the remaining variants.
//
// Both always keep *some* variant alive, which is what guarantees PULSE at
// least a low-quality warm start within the window after an invocation.

#include <algorithm>
#include <cstddef>

namespace pulse::core {

enum class ThresholdTechnique {
  kT1,  // N areas over [0, 1]
  kT2,  // lowest variant at p == 0; N-1 areas over (0, 1]
};

/// Number of thresholds each technique uses (paper: N-1 for T1, N-2 for T2).
[[nodiscard]] std::size_t threshold_count(std::size_t variant_count,
                                          ThresholdTechnique technique) noexcept;

namespace detail {
[[noreturn]] void throw_no_variants();
}  // namespace detail

/// Selects the variant index (0 = lowest accuracy) to keep alive for an
/// invocation probability `probability` in [0, 1] and a family of
/// `variant_count` (>= 1) variants. Out-of-range probabilities are clamped.
/// Throws std::invalid_argument when variant_count is 0. Inline: PULSE
/// calls it once per minute of every keep-alive window.
[[nodiscard]] inline std::size_t select_variant(double probability, std::size_t variant_count,
                                                ThresholdTechnique technique) {
  if (variant_count == 0) detail::throw_no_variants();
  const double p = std::clamp(probability, 0.0, 1.0);
  const auto n = static_cast<double>(variant_count);

  switch (technique) {
    case ThresholdTechnique::kT1: {
      // Area k (0-based) covers [k/N, (k+1)/N); p == 1 falls in the top area.
      // p * n >= 0, where truncation is floor.
      const auto area = static_cast<std::size_t>(p * n);
      return std::min(area, variant_count - 1);
    }
    case ThresholdTechnique::kT2: {
      if (p == 0.0 || variant_count == 1) return 0;
      // (0, 1] divided into N-1 areas for variants 1..N-1.
      const auto areas = static_cast<double>(variant_count - 1);
      const auto area = static_cast<std::size_t>(p * areas);
      return 1 + std::min(area, variant_count - 2);
    }
  }
  return 0;
}

}  // namespace pulse::core
