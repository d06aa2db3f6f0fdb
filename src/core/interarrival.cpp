#include "core/interarrival.hpp"

#include <algorithm>

namespace pulse::core {

InterArrivalTracker::InterArrivalTracker() : InterArrivalTracker(Config{}) {}

InterArrivalTracker::InterArrivalTracker(Config config)
    : config_(config),
      full_histogram_(config.histogram_capacity),
      window_counts_(config.histogram_capacity + 1, 0) {
  // One gap lands per minute at most, so the live ring never exceeds the
  // retention horizon; pre-sizing keeps record() allocation-free.
  recent_.reserve(static_cast<std::size_t>(std::max<trace::Minute>(config_.local_window, 1)) * 4 +
                  2);
}

void InterArrivalTracker::window_add(const GapEvent& e) const {
  ++window_total_;
  if (e.gap < window_counts_.size()) ++window_counts_[e.gap];
}

void InterArrivalTracker::window_remove(const GapEvent& e) const {
  --window_total_;
  if (e.gap < window_counts_.size()) --window_counts_[e.gap];
}

void InterArrivalTracker::record(trace::Minute t) {
  if (last_invocation_) {
    if (t <= *last_invocation_) return;  // same minute (or out of order): one sample per minute
    const auto gap = static_cast<std::size_t>(t - *last_invocation_);
    full_histogram_.add(gap);
    recent_.push_back(GapEvent{t, gap});
    if (t >= cached_cutoff_) {
      window_add(recent_.back());
    } else {
      // The new event predates the memoized cutoff (a query ran with a
      // `now` past this record time); keep it out of the window.
      win_begin_seq_ = ring_begin_seq_ + recent_.size();
    }
    // Bound the ring: events older than the largest supported window are
    // unreachable by any probability() query.
    const trace::Minute horizon = t - std::max<trace::Minute>(config_.local_window, 1) * 4;
    while (!recent_.empty() && recent_.front().end_minute < horizon) {
      if (ring_begin_seq_ >= win_begin_seq_) window_remove(recent_.front());
      recent_.pop_front();
      ++ring_begin_seq_;
      win_begin_seq_ = std::max(win_begin_seq_, ring_begin_seq_);
    }
  }
  last_invocation_ = t;
}

void InterArrivalTracker::advance_window(trace::Minute cutoff) const {
  if (cutoff == cached_cutoff_) return;
  const std::uint64_t seq_end = ring_begin_seq_ + recent_.size();
  if (cutoff > cached_cutoff_) {
    // Forward move: shed events that fell off the window's trailing edge.
    while (win_begin_seq_ < seq_end &&
           recent_[static_cast<std::size_t>(win_begin_seq_ - ring_begin_seq_)].end_minute <
               cutoff) {
      window_remove(recent_[static_cast<std::size_t>(win_begin_seq_ - ring_begin_seq_)]);
      ++win_begin_seq_;
    }
  } else {
    // Backward move (query older than the previous one): rebuild the window
    // from the ring. Rare; bounded by the ring's retention horizon.
    std::fill(window_counts_.begin(), window_counts_.end(), 0U);
    window_total_ = 0;
    win_begin_seq_ = seq_end;
    while (win_begin_seq_ > ring_begin_seq_ &&
           recent_[static_cast<std::size_t>(win_begin_seq_ - 1 - ring_begin_seq_)].end_minute >=
               cutoff) {
      --win_begin_seq_;
      window_add(recent_[static_cast<std::size_t>(win_begin_seq_ - ring_begin_seq_)]);
    }
  }
  cached_cutoff_ = cutoff;
}

std::uint64_t InterArrivalTracker::window_matches(std::size_t d) const {
  if (d < window_counts_.size()) return window_counts_[d];
  // Gaps beyond the count table are tallied by walking the window suffix;
  // its length is bounded by the window span (one gap per minute).
  std::uint64_t matches = 0;
  for (std::uint64_t s = win_begin_seq_; s < ring_begin_seq_ + recent_.size(); ++s) {
    if (recent_[static_cast<std::size_t>(s - ring_begin_seq_)].gap == d) ++matches;
  }
  return matches;
}

double InterArrivalTracker::probability(std::size_t d, trace::Minute now) const {
  // Local-window estimate: gaps whose closing invocation lies within
  // [now - local_window, now].
  advance_window(now - config_.local_window);
  return mixed_probability(full_histogram_.count(d), full_histogram_.total(), window_matches(d),
                           window_total_);
}

void InterArrivalTracker::probabilities(std::size_t to_d, trace::Minute now,
                                        std::span<double> out) const {
  advance_window(now - config_.local_window);
  const std::uint64_t full_total = full_histogram_.total();
  const std::uint64_t window_total = window_total_;
  for (std::size_t d = 1; d <= to_d; ++d) {
    out[d - 1] = mixed_probability(full_histogram_.count(d), full_total, window_matches(d),
                                   window_total);
  }
}

double InterArrivalTracker::probability_within(std::size_t from_d, std::size_t to_d,
                                               trace::Minute now) const {
  // One window advance up front; the per-d lookups below are then O(1),
  // making the whole sum O(range) instead of O(range x window). The per-d
  // arithmetic and summation order match probability() exactly.
  advance_window(now - config_.local_window);
  const std::uint64_t full_total = full_histogram_.total();
  const std::uint64_t window_total = window_total_;
  double total = 0.0;
  for (std::size_t d = from_d; d <= to_d; ++d) {
    total += mixed_probability(full_histogram_.count(d), full_total, window_matches(d),
                               window_total);
  }
  return std::clamp(total, 0.0, 1.0);
}

}  // namespace pulse::core
