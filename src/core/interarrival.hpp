#pragma once
// Per-function inter-arrival probability estimation (§III-A).
//
// PULSE estimates, for each offset d in the 10-minute keep-alive window,
// the probability that the function's next invocation arrives exactly d
// minutes after the previous one. Two estimates are combined: one over a
// sliding local window of recent history (patterns drift — Figure 2) and
// one over the full history since system start; the two probabilities are
// averaged.
//
// The local-window estimate is maintained incrementally: a per-gap count
// table covers the gaps currently inside [now - local_window, now], and is
// advanced lazily as `now` moves forward. probability() is O(1) amortized,
// and probability_within() and probabilities() are O(range) after one
// window advance — previously every query rescanned the recent-gap deque
// per candidate gap. Queries are bit-identical to the rescanning
// implementation: the per-d arithmetic (0.5 * (p_full + match/total)) is
// written once, in mixed_probability(); only how match/total are obtained
// differs.

#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "trace/trace.hpp"
#include "util/ring_buffer.hpp"
#include "util/stats.hpp"

namespace pulse::core {

class InterArrivalTracker {
 public:
  struct Config {
    /// Length of the sliding local window, minutes (the paper sweeps
    /// 10/60/120 in Figure 12; 60 is the default).
    trace::Minute local_window = 60;
    /// Largest representable inter-arrival value in the full-history
    /// histogram; larger gaps count toward the total but not to any bucket.
    std::size_t histogram_capacity = 240;
  };

  InterArrivalTracker();  // default Config
  explicit InterArrivalTracker(Config config);

  /// Records an invocation at minute t. Invocations must be recorded in
  /// non-decreasing time order; repeated minutes are ignored (the paper's
  /// inter-arrival resolution is one minute).
  void record(trace::Minute t);

  /// P(inter-arrival == d), averaged over the local-window estimate and the
  /// full-history estimate, evaluated at minute `now`. When the local
  /// window holds no gaps the full-history estimate is used alone.
  ///
  /// Memoizes the window position across calls (O(1) amortized when `now`
  /// is non-decreasing; a backward jump triggers an O(window) rebuild), so
  /// concurrent queries on one tracker are not safe — each simulation run
  /// owns its trackers exclusively.
  [[nodiscard]] double probability(std::size_t d, trace::Minute now) const;

  /// probability(d, now) for every d in [1, to_d], written to out[d - 1]:
  /// one window advance, then the same expression per d. The keep-alive
  /// window's variant pass reads its whole window from one call. `out`
  /// must hold at least to_d values.
  void probabilities(std::size_t to_d, trace::Minute now, std::span<double> out) const;

  /// Sum of probability() over d in [from_d, to_d], clamped to [0, 1] —
  /// "probability of invocation" during the remainder of a window (the Ip
  /// component of Equation 2).
  [[nodiscard]] double probability_within(std::size_t from_d, std::size_t to_d,
                                          trace::Minute now) const;

  [[nodiscard]] std::optional<trace::Minute> last_invocation() const noexcept {
    return last_invocation_;
  }

  /// Smallest gap g such that a fraction `p` of observed inter-arrival
  /// times are <= g (full history; overflow gaps excluded). nullopt until
  /// gaps exist. Drives the adaptive keep-alive window extension.
  [[nodiscard]] std::optional<std::size_t> gap_percentile(double p) const noexcept {
    return full_histogram_.percentile_value(p);
  }

  [[nodiscard]] std::uint64_t total_gaps() const noexcept { return full_histogram_.total(); }
  [[nodiscard]] const util::IntHistogram& full_histogram() const noexcept {
    return full_histogram_;
  }
  [[nodiscard]] const Config& config() const noexcept { return config_; }

 private:
  struct GapEvent {
    trace::Minute end_minute;  // minute of the invocation closing the gap
    std::size_t gap;
  };

  /// Moves the memoized window to cover end_minutes >= cutoff. Forward
  /// moves pop events off the window's leading edge; a backward move (rare:
  /// only a query older than the previous one) rebuilds from the ring.
  void advance_window(trace::Minute cutoff) const;

  /// Adds/removes one event from the memoized window tallies.
  void window_add(const GapEvent& e) const;
  void window_remove(const GapEvent& e) const;

  /// probability(d, now)'s expression once the window sits at now's
  /// cutoff: the full-history share, averaged with the window share when
  /// the window holds gaps. Every query evaluates exactly this; the totals
  /// come in as arguments so a caller looping over d reads them once.
  [[nodiscard]] static double mixed_probability(std::uint64_t full_matches,
                                                std::uint64_t full_total,
                                                std::uint64_t window_matches,
                                                std::uint64_t window_total) noexcept {
    const double p_full = full_total == 0 ? 0.0
                                          : static_cast<double>(full_matches) /
                                                static_cast<double>(full_total);
    if (window_total == 0) return p_full;
    return 0.5 * (p_full +
                  static_cast<double>(window_matches) / static_cast<double>(window_total));
  }

  /// Matches inside the current window for gap d. O(1) for d within the
  /// count table; gaps larger than histogram_capacity are rare and counted
  /// by scanning the (bounded) window suffix of the ring.
  [[nodiscard]] std::uint64_t window_matches(std::size_t d) const;

  Config config_;
  util::IntHistogram full_histogram_;
  util::RingBuffer<GapEvent> recent_;
  std::uint64_t ring_begin_seq_ = 0;  // absolute sequence of recent_[0]
  std::optional<trace::Minute> last_invocation_;

  // Memoized local-window state (see probability()). The window is the
  // suffix of `recent_` with absolute sequence >= win_begin_seq_;
  // window_counts_[g] tallies its gaps of size g <= histogram_capacity.
  mutable std::vector<std::uint32_t> window_counts_;
  mutable std::uint64_t window_total_ = 0;
  mutable std::uint64_t win_begin_seq_ = 0;
  mutable trace::Minute cached_cutoff_ = std::numeric_limits<trace::Minute>::min();
};

}  // namespace pulse::core
