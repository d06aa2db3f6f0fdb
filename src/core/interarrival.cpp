#include "core/interarrival.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>
#include <string>

namespace pulse::core {

namespace {

constexpr trace::Minute kMaxOffset = std::numeric_limits<std::uint32_t>::max();

}  // namespace

InterArrivalTracker::InterArrivalTracker() : InterArrivalTracker(Config{}) {}

InterArrivalTracker::InterArrivalTracker(Config config) : config_(config) {
  const trace::Minute window = std::max<trace::Minute>(config_.local_window, 1);
  if (window > kMaxOffset / 4) {
    throw std::invalid_argument("InterArrivalTracker: local_window too long for the gap ring");
  }
  retention_ = window * 4;
  // Retained end minutes are distinct and lie in [t - retention_, t], so the
  // live ring never exceeds retention_ + 1 events; sizing it here keeps
  // record() allocation-free.
  const std::size_t ring_slots = std::bit_ceil(static_cast<std::size_t>(retention_) + 1);
  ring_mask_ = ring_slots - 1;
  block_.assign(2 * bin_count() + ring_slots, 0U);
}

void InterArrivalTracker::window_add(std::uint64_t seq) const {
  ++window_total_;
  const std::size_t gap = gap_at(seq);
  if (gap < bin_count()) ++window_count(gap);
}

void InterArrivalTracker::window_remove(std::uint64_t seq) const {
  --window_total_;
  const std::size_t gap = gap_at(seq);
  if (gap < bin_count()) --window_count(gap);
}

void InterArrivalTracker::rebase(trace::Minute t) {
  const trace::Minute base = ring_begin_seq_ < ring_end_seq_ ? end_at(ring_begin_seq_) : t;
  const auto shift = static_cast<std::uint32_t>(base - base_);
  for (std::uint64_t s = ring_begin_seq_; s < ring_end_seq_; ++s) slot(s) -= shift;
  base_ = base;
}

void InterArrivalTracker::record(trace::Minute t) {
  // Same minute (or out of order): one sample per minute.
  if (last_invocation_ && t <= *last_invocation_) return;
  if (t < cached_cutoff_) {
    throw std::logic_error("InterArrivalTracker::record: minute " + std::to_string(t) +
                           " is behind the last query's window");
  }
  if (!last_invocation_) {
    base_ = t;
    front_start_ = t;
    last_invocation_ = t;
    return;
  }
  const auto gap = static_cast<std::size_t>(t - *last_invocation_);
  if (gap < bin_count()) {
    ++block_[2 * gap];
  } else {
    ++full_overflow_;
  }
  ++full_total_;

  // Bound the ring: events older than the largest supported window are
  // unreachable by any probability() query.
  const trace::Minute horizon = t - retention_;
  while (ring_begin_seq_ < ring_end_seq_ && end_at(ring_begin_seq_) < horizon) {
    if (ring_begin_seq_ >= win_begin_seq_) window_remove(ring_begin_seq_);
    front_start_ = end_at(ring_begin_seq_);
    ++ring_begin_seq_;
    win_begin_seq_ = std::max(win_begin_seq_, ring_begin_seq_);
  }
  if (t - base_ > kMaxOffset) rebase(t);
  slot(ring_end_seq_) = static_cast<std::uint32_t>(t - base_);
  ++ring_end_seq_;
  window_add(ring_end_seq_ - 1);
  last_invocation_ = t;
}

void InterArrivalTracker::advance_window(trace::Minute cutoff) const {
  if (cutoff == cached_cutoff_) return;  // leaves the ring untouched
  if (cutoff < cached_cutoff_) {
    throw std::logic_error("InterArrivalTracker: query at minute " +
                           std::to_string(cutoff + config_.local_window) +
                           " is older than the previous one");
  }
  // Shed events that fell off the window's trailing edge.
  while (win_begin_seq_ < ring_end_seq_ && end_at(win_begin_seq_) < cutoff) {
    window_remove(win_begin_seq_);
    ++win_begin_seq_;
  }
  cached_cutoff_ = cutoff;
}

std::uint64_t InterArrivalTracker::window_matches(std::size_t d) const {
  if (d < bin_count()) return window_count(d);
  // Gaps beyond the count table are tallied by walking the window suffix;
  // its length is bounded by the window span (one gap per minute).
  std::uint64_t matches = 0;
  for (std::uint64_t s = win_begin_seq_; s < ring_end_seq_; ++s) {
    if (gap_at(s) == d) ++matches;
  }
  return matches;
}

std::optional<std::size_t> InterArrivalTracker::gap_percentile(double p) const noexcept {
  const std::uint64_t in_range = full_total_ - full_overflow_;
  if (in_range == 0) return std::nullopt;
  p = std::clamp(p, 0.0, 1.0);
  auto target = static_cast<std::uint64_t>(std::ceil(p * static_cast<double>(in_range)));
  target = std::clamp<std::uint64_t>(target, 1, in_range);
  std::uint64_t cum = 0;
  for (std::size_t g = 0; g < bin_count(); ++g) {
    cum += full_count(g);
    if (cum >= target) return g;
  }
  return bin_count() - 1;
}

double InterArrivalTracker::probability(std::size_t d, trace::Minute now) const {
  // Local-window estimate: gaps whose closing invocation lies within
  // [now - local_window, now].
  advance_window(now - config_.local_window);
  return mixed_probability(full_count(d), full_total_, window_matches(d), window_total_);
}

void InterArrivalTracker::probabilities(std::size_t to_d, trace::Minute now,
                                        std::span<double> out) const {
  advance_window(now - config_.local_window);
  const std::uint64_t full_total = full_total_;
  const std::uint64_t window_total = window_total_;
  for (std::size_t d = 1; d <= to_d; ++d) {
    out[d - 1] = mixed_probability(full_count(d), full_total, window_matches(d), window_total);
  }
}

double InterArrivalTracker::probability_within(std::size_t from_d, std::size_t to_d,
                                               trace::Minute now) const {
  // One window advance up front; the per-d lookups below are then O(1),
  // making the whole sum O(range) instead of O(range x window). The per-d
  // arithmetic and summation order match probability() exactly.
  advance_window(now - config_.local_window);
  const std::uint64_t full_total = full_total_;
  const std::uint64_t window_total = window_total_;
  double total = 0.0;
  for (std::size_t d = from_d; d <= to_d; ++d) {
    total += mixed_probability(full_count(d), full_total, window_matches(d), window_total);
  }
  return std::clamp(total, 0.0, 1.0);
}

}  // namespace pulse::core
