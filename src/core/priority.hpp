#pragma once
// The Priority structure of §III-B: a per-model count of past downgrades,
// normalized with Equation 1 when a peak occurs. Models that have borne
// more downgrades get a higher priority value, which raises their utility
// and protects them from being downgraded yet again — the "unbiased
// downgrades" mechanism.
//
// The structure keeps the running minimum and maximum count (and how many
// models sit at the minimum), so one model's normalized priority is O(1):
// a flatten round reads only the models it scores instead of normalizing
// all of them.

#include <cstdint>
#include <vector>

#include "trace/trace.hpp"

namespace pulse::core {

class PriorityStructure {
 public:
  /// Initialized with zeros for all models "immediately after the system
  /// has started" (Algorithm 2, line 1).
  explicit PriorityStructure(std::size_t model_count);

  /// Records one downgrade of model f (Algorithm 2, line 10). Amortized
  /// O(1): the counts are rescanned only when the last model at the
  /// minimum moves off it, at most once per rise of the minimum.
  void record_downgrade(trace::FunctionId f);

  [[nodiscard]] std::uint64_t downgrade_count(trace::FunctionId f) const;
  [[nodiscard]] std::uint64_t total_downgrades() const noexcept { return total_; }
  [[nodiscard]] std::size_t model_count() const noexcept { return counts_.size(); }

  /// Equation 1 for model f (f < model_count()), in
  /// util::minmax_normalize_inplace's arithmetic: (x - lo) / (hi - lo), or
  /// x - lo when every count is equal. The most-downgraded model maps to 1,
  /// the least to 0. O(1).
  [[nodiscard]] double normalized_of(trace::FunctionId f) const noexcept {
    const auto x = static_cast<double>(counts_[f]);
    const auto lo = static_cast<double>(lo_);
    const auto hi = static_cast<double>(hi_);
    if (hi != lo) return (x - lo) / (hi - lo);
    return x - lo;  // degenerate branch: all zeros
  }

  /// normalized_of() for every model.
  [[nodiscard]] std::vector<double> normalized() const;

  /// normalized_of() with a range check (throws std::out_of_range).
  [[nodiscard]] double normalized_priority(trace::FunctionId f) const;

 private:
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
  std::uint64_t lo_ = 0;   // smallest count
  std::uint64_t hi_ = 0;   // largest count
  std::size_t at_lo_ = 0;  // models whose count is lo_
};

}  // namespace pulse::core
