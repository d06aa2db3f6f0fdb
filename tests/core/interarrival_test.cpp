#include "core/interarrival.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <deque>
#include <limits>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "util/rng.hpp"
#include "util/stats.hpp"

namespace pulse::core {
namespace {

/// Reference estimator: the pre-incremental implementation, recomputing the
/// local window by rescanning the recent-gap deque on every query. The
/// incremental tracker must match it bit-for-bit.
class NaiveTracker {
 public:
  explicit NaiveTracker(InterArrivalTracker::Config config)
      : config_(config), hist_(config.histogram_capacity) {}

  void record(trace::Minute t) {
    if (last_) {
      if (t <= *last_) return;
      const auto gap = static_cast<std::size_t>(t - *last_);
      hist_.add(gap);
      events_.push_back({t, gap});
      const trace::Minute horizon = t - std::max<trace::Minute>(config_.local_window, 1) * 4;
      while (!events_.empty() && events_.front().first < horizon) events_.pop_front();
    }
    last_ = t;
  }

  [[nodiscard]] double probability(std::size_t d, trace::Minute now) const {
    const double p_full = hist_.probability(d);
    std::uint64_t total = 0;
    std::uint64_t matches = 0;
    for (const auto& [end_minute, gap] : events_) {
      if (end_minute >= now - config_.local_window) {
        ++total;
        if (gap == d) ++matches;
      }
    }
    if (total == 0) return p_full;
    return 0.5 * (p_full + static_cast<double>(matches) / static_cast<double>(total));
  }

  [[nodiscard]] double probability_within(std::size_t from_d, std::size_t to_d,
                                          trace::Minute now) const {
    double total = 0.0;
    for (std::size_t d = from_d; d <= to_d; ++d) total += probability(d, now);
    return std::clamp(total, 0.0, 1.0);
  }

 private:
  InterArrivalTracker::Config config_;
  util::IntHistogram hist_;
  std::deque<std::pair<trace::Minute, std::size_t>> events_;
  std::optional<trace::Minute> last_;
};

TEST(InterArrival, NoDataZeroProbability) {
  InterArrivalTracker t;
  EXPECT_DOUBLE_EQ(t.probability(2, 100), 0.0);
  EXPECT_FALSE(t.last_invocation().has_value());
}

TEST(InterArrival, SingleInvocationNoGaps) {
  InterArrivalTracker t;
  t.record(10);
  EXPECT_EQ(t.total_gaps(), 0u);
  EXPECT_DOUBLE_EQ(t.probability(1, 10), 0.0);
  EXPECT_EQ(t.last_invocation().value(), 10);
}

TEST(InterArrival, PaperProbabilityExample) {
  // "when the inter-arrival time of 2 appears 10 times, we compute the
  // probability of 2 as 10 divided by the total number of inter-arrival
  // times" — with full history equal to the local window, the average of
  // the two estimates equals the single estimate.
  InterArrivalTracker::Config config;
  config.local_window = 1000;
  InterArrivalTracker t(config);
  trace::Minute now = 0;
  for (int i = 0; i < 10; ++i) {
    t.record(now);
    now += 2;
  }
  t.record(now);
  now += 5;
  t.record(now);  // one gap of 5 -> totals: 10 gaps of 2, 1 gap of 5
  EXPECT_NEAR(t.probability(2, now), 10.0 / 11.0, 1e-12);
  EXPECT_NEAR(t.probability(5, now), 1.0 / 11.0, 1e-12);
  EXPECT_DOUBLE_EQ(t.probability(3, now), 0.0);
}

TEST(InterArrival, SameMinuteRecordIgnored) {
  InterArrivalTracker t;
  t.record(5);
  t.record(5);
  EXPECT_EQ(t.total_gaps(), 0u);
}

TEST(InterArrival, OutOfOrderRecordIgnored) {
  InterArrivalTracker t;
  t.record(10);
  t.record(3);
  EXPECT_EQ(t.total_gaps(), 0u);
  EXPECT_EQ(t.last_invocation().value(), 10);
}

TEST(InterArrival, LocalWindowDetectsDrift) {
  // Long history of gap 8, recent history of gap 2: the averaged estimate
  // should weigh the recent pattern higher than the full history does.
  InterArrivalTracker::Config config;
  config.local_window = 30;
  InterArrivalTracker t(config);
  trace::Minute now = 0;
  for (int i = 0; i < 100; ++i) {
    now += 8;
    t.record(now);
  }
  for (int i = 0; i < 10; ++i) {
    now += 2;
    t.record(now);
  }
  // Full history alone gives P(2) = 10/110 ~ 0.09; the local window (last
  // 30 minutes, dominated by gap-2 events) lifts the average far above it
  // and pulls P(8) far below its full-history value of ~0.91.
  const double p2 = t.probability(2, now);
  const double p8 = t.probability(8, now);
  EXPECT_GT(p2, 0.35);
  EXPECT_LT(p8, 0.65);
  EXPECT_GT(p2, 10.0 / 110.0 + 0.2);
  EXPECT_LT(p8, 100.0 / 110.0 - 0.2);
}

TEST(InterArrival, EmptyLocalWindowFallsBackToFullHistory) {
  InterArrivalTracker::Config config;
  config.local_window = 10;
  InterArrivalTracker t(config);
  t.record(0);
  t.record(4);
  t.record(8);
  // Query far in the future: no gaps in the local window.
  EXPECT_NEAR(t.probability(4, 10000), 1.0, 1e-12);
}

TEST(InterArrival, ProbabilityWithinSumsAndClamps) {
  InterArrivalTracker::Config config;
  config.local_window = 1000;
  InterArrivalTracker t(config);
  trace::Minute now = 0;
  // Half gaps of 2, half gaps of 3.
  for (int i = 0; i < 20; ++i) {
    now += (i % 2 == 0) ? 2 : 3;
    t.record(now);
  }
  EXPECT_NEAR(t.probability_within(2, 3, now), 1.0, 1e-12);
  EXPECT_NEAR(t.probability_within(1, 10, now), 1.0, 1e-12);
  EXPECT_NEAR(t.probability_within(4, 10, now), 0.0, 1e-12);
}

TEST(InterArrival, ProbabilitiesFormDistribution) {
  InterArrivalTracker t;
  util::Pcg32 rng(5);
  trace::Minute now = 0;
  for (int i = 0; i < 500; ++i) {
    now += 1 + static_cast<trace::Minute>(rng.bounded(12));
    t.record(now);
  }
  double sum = 0.0;
  for (std::size_t d = 1; d <= 240; ++d) sum += t.probability(d, now);
  EXPECT_LE(sum, 1.0 + 1e-9);
  EXPECT_GT(sum, 0.9);  // nearly all mass within histogram capacity
}

TEST(InterArrival, ProbabilityWithinEqualsPerOffsetSum) {
  // probability_within must be bit-identical to summing probability(d)
  // per offset — the incremental window only changed how the local tallies
  // are obtained, not the per-d arithmetic or the summation order.
  InterArrivalTracker t;
  util::Pcg32 rng(11);
  trace::Minute now = 0;
  for (int i = 0; i < 400; ++i) {
    now += 1 + static_cast<trace::Minute>(rng.bounded(9));
    t.record(now);
  }
  // Non-decreasing, as the tracker requires: the first lags the last
  // record, the last two repeat one minute.
  const trace::Minute queries[] = {now - 40, now, now + 3, now + 200, now + 200};
  for (const trace::Minute q : queries) {
    for (const auto& [from, to] : {std::pair<std::size_t, std::size_t>{1, 10},
                                   {2, 5},
                                   {1, 240},
                                   {200, 260}}) {
      double expected = 0.0;
      for (std::size_t d = from; d <= to; ++d) expected += t.probability(d, q);
      expected = std::clamp(expected, 0.0, 1.0);
      EXPECT_DOUBLE_EQ(t.probability_within(from, to, q), expected)
          << "now=" << q << " range=[" << from << "," << to << "]";
    }
  }
}

/// One fuzz run for IncrementalWindowMatchesNaiveRescan: 3000 records from
/// `start`, the gap at each step in `forced_gaps` replacing the random one.
struct WindowFuzz {
  InterArrivalTracker::Config config;
  trace::Minute start = 0;
  std::size_t max_to_d = 60;  // probabilities() windows end in [1, max_to_d]
  std::vector<std::pair<int, trace::Minute>> forced_gaps;  // {step, gap}
};

void fuzz_against_naive(const WindowFuzz& fuzz) {
  InterArrivalTracker t(fuzz.config);
  InterArrivalTracker shadow(fuzz.config);  // queried only through probability()
  NaiveTracker naive(fuzz.config);

  util::Pcg32 rng(77);
  trace::Minute now = fuzz.start;
  // Queries never go back past the previous one, and run at most
  // local_window ahead of the latest record, so no later record falls
  // behind a queried window.
  trace::Minute last_q = std::numeric_limits<trace::Minute>::min();
  const auto query_at = [&](trace::Minute candidate) {
    last_q = std::max(last_q, candidate);
    return last_q;
  };
  const auto ahead =
      static_cast<std::uint32_t>(std::min<trace::Minute>(30, fuzz.config.local_window));
  for (int step = 0; step < 3000; ++step) {
    // Mostly small gaps; occasionally a gap past histogram_capacity.
    trace::Minute gap = 1 + static_cast<trace::Minute>(rng.bounded(rng.bounded(20) == 0 ? 60 : 6));
    for (const auto& [at, forced] : fuzz.forced_gaps) {
      if (at == step) gap = forced;
    }
    now += gap;
    t.record(now);
    shadow.record(now);
    naive.record(now);

    if (step % 7 == 0) {
      trace::Minute candidate = now;
      const auto jitter = rng.bounded(5);
      if (jitter == 0) candidate = now - static_cast<trace::Minute>(rng.bounded(30));  // lagging
      if (jitter == 1) candidate = now + static_cast<trace::Minute>(rng.bounded(ahead));
      const trace::Minute q = query_at(candidate);
      const std::size_t d = 1 + static_cast<std::size_t>(rng.bounded(70));
      ASSERT_DOUBLE_EQ(t.probability(d, q), naive.probability(d, q))
          << "step=" << step << " d=" << d << " now=" << q;
      ASSERT_DOUBLE_EQ(t.probability_within(1, 10, q), naive.probability_within(1, 10, q))
          << "step=" << step << " now=" << q;
    }

    // The one-pass window against per-d probability() on a second tracker
    // fed the same records. Windows run past histogram_capacity, and `now`
    // sometimes lags the latest record; values must agree bit for bit.
    if (step % 5 == 0) {
      trace::Minute candidate = now;
      if (rng.bounded(4) == 0) candidate = now - static_cast<trace::Minute>(rng.bounded(40));
      const trace::Minute q = query_at(candidate);
      const std::size_t to_d =
          1 + static_cast<std::size_t>(rng.bounded(static_cast<std::uint32_t>(fuzz.max_to_d)));
      std::vector<double> window(to_d + 1, -1.0);
      t.probabilities(to_d, q, window);
      for (std::size_t d = 1; d <= to_d; ++d) {
        const double expected = shadow.probability(d, q);
        ASSERT_EQ(std::memcmp(&window[d - 1], &expected, sizeof(double)), 0)
            << "step=" << step << " d=" << d << " now=" << q;
      }
      ASSERT_EQ(window[to_d], -1.0) << "wrote past to_d";
    }
  }
  EXPECT_EQ(t.total_gaps(), 2999u);
}

TEST(InterArrival, IncrementalWindowMatchesNaiveRescan) {
  // Fuzz the incremental window against the rescanning reference across
  // interleaved records and forward queries (some lagging the latest
  // record, some ahead of it) and gaps beyond histogram_capacity (which
  // take the window-suffix scan path). The one-pass probabilities() is
  // checked against per-d probability().
  {
    SCOPED_TRACE("capacity 40, local window 25");
    WindowFuzz fuzz;
    fuzz.config.local_window = 25;
    fuzz.config.histogram_capacity = 40;
    fuzz_against_naive(fuzz);
  }
  {
    // PulseLayer sizes the bins to the keep-alive window: every offset past
    // 10 is overflow for the full history and a ring scan for the window.
    SCOPED_TRACE("window-sized capacity 10, queried to d = 70");
    WindowFuzz fuzz;
    fuzz.config.histogram_capacity = 10;
    fuzz.max_to_d = 70;
    fuzz_against_naive(fuzz);
  }
  {
    // The ring keeps 32-bit end-minute offsets from a base minute: a first
    // record far from minute 0, a gap just under 2^32 that later small
    // gaps carry past the offset range (rebase with events retained), and
    // a gap past 2^32 (rebase after the ring emptied).
    SCOPED_TRACE("first record at 2^40, gaps around 2^32");
    WindowFuzz fuzz;
    fuzz.config.histogram_capacity = 10;
    fuzz.start = (trace::Minute{1} << 40) + 12345;
    fuzz.forced_gaps = {{1, (trace::Minute{1} << 32) - 10}, {1500, (trace::Minute{1} << 32) + 3}};
    fuzz_against_naive(fuzz);
  }
}

TEST(InterArrival, BackwardQueryThrows) {
  // The tracker is forward-only: a query older than the previous one has
  // no window to answer from. The failed query leaves the state intact.
  InterArrivalTracker::Config config;
  config.local_window = 10;
  InterArrivalTracker t(config);
  NaiveTracker naive(config);
  for (const trace::Minute m : {0, 4, 8, 12}) {
    t.record(m);
    naive.record(m);
  }
  ASSERT_DOUBLE_EQ(t.probability(4, 14), naive.probability(4, 14));
  std::vector<double> out(10);
  EXPECT_THROW((void)t.probability(4, 13), std::logic_error);
  EXPECT_THROW((void)t.probability_within(1, 10, 13), std::logic_error);
  EXPECT_THROW(t.probabilities(10, 13, out), std::logic_error);
  EXPECT_DOUBLE_EQ(t.probability(4, 14), naive.probability(4, 14));
  EXPECT_DOUBLE_EQ(t.probability_within(1, 10, 20), naive.probability_within(1, 10, 20));
}

TEST(InterArrival, RecordBehindQueriedWindowThrows) {
  // A record older than the last query's window cutoff (its now -
  // local_window) would have to be both in and out of that window. The
  // tracker refuses it and keeps its state.
  InterArrivalTracker::Config config;
  config.local_window = 10;
  InterArrivalTracker t(config);
  NaiveTracker naive(config);
  for (const trace::Minute m : {0, 4, 8, 12}) {
    t.record(m);
    naive.record(m);
  }
  ASSERT_DOUBLE_EQ(t.probability(4, 30), naive.probability(4, 30));  // cutoff 20
  EXPECT_THROW(t.record(16), std::logic_error);
  EXPECT_EQ(t.last_invocation(), 12);
  EXPECT_EQ(t.total_gaps(), 3u);
  // At the cutoff is inside the window.
  t.record(20);
  naive.record(20);
  EXPECT_DOUBLE_EQ(t.probability(8, 30), naive.probability(8, 30));
  EXPECT_DOUBLE_EQ(t.probability_within(1, 10, 30), naive.probability_within(1, 10, 30));

  // The first record of a tracker is held to the same rule.
  InterArrivalTracker fresh(config);
  (void)fresh.probability(1, 100);
  EXPECT_THROW(fresh.record(89), std::logic_error);
  EXPECT_FALSE(fresh.last_invocation().has_value());
  fresh.record(90);
  EXPECT_EQ(fresh.last_invocation(), 90);
}

TEST(InterArrival, DefaultConfigMatchesPaper) {
  InterArrivalTracker t;
  EXPECT_EQ(t.config().local_window, 60);
}

}  // namespace
}  // namespace pulse::core
