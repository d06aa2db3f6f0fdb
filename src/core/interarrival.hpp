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
// advanced lazily as `now` moves forward. The tracker is forward-only:
// queries come in non-decreasing `now`, and records never fall behind the
// last query's window. probability() is O(1) amortized, and
// probability_within() and probabilities() are O(range) after one window
// advance — previously every query rescanned the recent-gap deque per
// candidate gap. Queries are bit-identical to the rescanning
// implementation: the per-d arithmetic (0.5 * (p_full + match/total)) is
// written once, in mixed_probability(); only how match/total are obtained
// differs.
//
// Storage is one small block per tracker, allocated once at construction:
//
//   * histogram_capacity + 1 interleaved {full, window} u32 count pairs, so
//     both counts of one gap share a cache line. Gaps past
//     histogram_capacity count only toward the totals (p_full reads 0 for
//     them), so the capacity is sized to the largest offset the owner
//     queries (PulseLayer: the keep-alive window, at most 240);
//   * a power-of-two ring of the retained gaps' end minutes, as 32-bit
//     offsets from a base minute that moves forward when an offset would
//     not fit. A gap is the difference from its predecessor's end minute
//     (the oldest one's from the minute it started).
//
// At the default 60-minute window and a 10-minute capacity that is 1,112
// bytes.

#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "trace/trace.hpp"

namespace pulse::core {

class InterArrivalTracker {
 public:
  /// The default and largest histogram_capacity any policy asks for.
  static constexpr std::size_t kMaxHistogramCapacity = 240;

  struct Config {
    /// Length of the sliding local window, minutes (the paper sweeps
    /// 10/60/120 in Figure 12; 60 is the default).
    trace::Minute local_window = 60;
    /// Largest inter-arrival value with its own bin; larger gaps count
    /// toward the totals but not to any bin.
    std::size_t histogram_capacity = kMaxHistogramCapacity;
  };

  InterArrivalTracker();  // default Config
  /// Throws std::invalid_argument when the retention span, 4 × local_window,
  /// does not fit the ring's 32-bit offsets.
  explicit InterArrivalTracker(Config config);

  /// Records an invocation at minute t. Invocations must be recorded in
  /// non-decreasing time order; repeated minutes are ignored (the paper's
  /// inter-arrival resolution is one minute). Allocation-free. Throws
  /// std::logic_error when t is behind the last query's window cutoff
  /// (its `now` - local_window).
  void record(trace::Minute t);

  /// P(inter-arrival == d), averaged over the local-window estimate and the
  /// full-history estimate, evaluated at minute `now`. When the local
  /// window holds no gaps the full-history estimate is used alone.
  ///
  /// Memoizes the window position across calls (O(1) amortized), so
  /// concurrent queries on one tracker are not safe — each simulation run
  /// owns its trackers exclusively. Throws std::logic_error when `now` is
  /// older than the previous query's; the same holds for the two queries
  /// below.
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
  /// times are <= g (full history; overflow gaps excluded), with
  /// util::IntHistogram::percentile_value's integer rank rule. nullopt
  /// until in-range gaps exist. Drives the adaptive keep-alive window
  /// extension.
  [[nodiscard]] std::optional<std::size_t> gap_percentile(double p) const noexcept;

  [[nodiscard]] std::uint64_t total_gaps() const noexcept { return full_total_; }
  [[nodiscard]] const Config& config() const noexcept { return config_; }

 private:
  // The block: word 2g counts gap g over the full history, word 2g + 1
  // inside the memoized window; the ring starts at word 2 * bin_count().
  // A bin counts at most one gap per recorded minute, so a u32 bin wraps
  // only after 2^32 distinct invocation minutes.
  [[nodiscard]] std::size_t bin_count() const noexcept { return config_.histogram_capacity + 1; }
  [[nodiscard]] std::uint64_t full_count(std::size_t g) const noexcept {
    return g < bin_count() ? block_[2 * g] : 0;
  }
  [[nodiscard]] std::uint32_t& window_count(std::size_t g) const noexcept {
    return block_[2 * g + 1];
  }
  [[nodiscard]] std::uint32_t& slot(std::uint64_t seq) const noexcept {
    return block_[2 * bin_count() + static_cast<std::size_t>(seq & ring_mask_)];
  }
  /// End minute and gap of the retained event with absolute sequence seq.
  [[nodiscard]] trace::Minute end_at(std::uint64_t seq) const noexcept {
    return base_ + static_cast<trace::Minute>(slot(seq));
  }
  [[nodiscard]] std::size_t gap_at(std::uint64_t seq) const noexcept {
    const trace::Minute start = seq == ring_begin_seq_ ? front_start_ : end_at(seq - 1);
    return static_cast<std::size_t>(end_at(seq) - start);
  }

  /// Moves base_ so minute t's offset fits 32 bits; rewrites the retained
  /// offsets (all within the retention span of t). Rare: once per 2^32
  /// minutes, or after a gap that long.
  void rebase(trace::Minute t);

  /// Moves the memoized window forward to cover end_minutes >= cutoff,
  /// popping events off its trailing edge.
  void advance_window(trace::Minute cutoff) const;

  /// Adds/removes the event with absolute sequence seq from the memoized
  /// window tallies.
  void window_add(std::uint64_t seq) const;
  void window_remove(std::uint64_t seq) const;

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
  /// Events whose end minute is older than t - retention_ are unreachable
  /// by any query at or after t.
  trace::Minute retention_;
  std::uint64_t ring_mask_;  // ring slots - 1
  mutable std::vector<std::uint32_t> block_;
  std::uint64_t full_total_ = 0;
  std::uint64_t full_overflow_ = 0;  // gaps past histogram_capacity

  // The ring holds the events with absolute sequence in
  // [ring_begin_seq_, ring_end_seq_).
  std::uint64_t ring_begin_seq_ = 0;
  std::uint64_t ring_end_seq_ = 0;
  trace::Minute base_ = 0;         // ring offsets count minutes from here
  trace::Minute front_start_ = 0;  // start minute of the oldest retained gap
  std::optional<trace::Minute> last_invocation_;

  // Memoized local-window state (see probability()). The window is the
  // ring suffix with absolute sequence >= win_begin_seq_; the window words
  // of the block tally its gaps of size g <= histogram_capacity.
  mutable std::uint64_t window_total_ = 0;
  mutable std::uint64_t win_begin_seq_ = 0;
  mutable trace::Minute cached_cutoff_ = std::numeric_limits<trace::Minute>::min();
};

}  // namespace pulse::core
