#include "sim/schedule.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>

#include "util/rng.hpp"

namespace pulse::sim {
namespace {

class ScheduleTest : public ::testing::Test {
 protected:
  ScheduleTest()
      : zoo_(models::ModelZoo::builtin()),
        deployment_(Deployment::round_robin(zoo_, 4)),
        schedule_(deployment_, 100) {}

  models::ModelZoo zoo_;
  Deployment deployment_;
  KeepAliveSchedule schedule_;
};

TEST_F(ScheduleTest, StartsEmpty) {
  for (trace::Minute t = 0; t < 100; ++t) {
    EXPECT_EQ(schedule_.memory_at(t), 0.0);
    for (trace::FunctionId f = 0; f < 4; ++f) {
      EXPECT_EQ(schedule_.variant_at(f, t), kNoVariant);
      EXPECT_FALSE(schedule_.is_alive(f, t));
    }
  }
}

TEST_F(ScheduleTest, SetAndReadBack) {
  schedule_.set(0, 10, 1);
  EXPECT_EQ(schedule_.variant_at(0, 10), 1);
  EXPECT_TRUE(schedule_.is_alive(0, 10));
  EXPECT_EQ(schedule_.variant_at(0, 11), kNoVariant);
}

TEST_F(ScheduleTest, OutOfHorizonSetIsIgnored) {
  schedule_.set(0, 100, 1);   // beyond the end: no-op by design
  schedule_.set(0, -1, 1);    // before the start: no-op
  EXPECT_EQ(schedule_.variant_at(0, 100), kNoVariant);
}

// Regression: the horizon check must run before the function-index lookup,
// so an out-of-range function with an out-of-horizon minute is ignored like
// any other out-of-horizon write instead of throwing.
TEST_F(ScheduleTest, OutOfHorizonSetIgnoredEvenForBadFunction) {
  EXPECT_NO_THROW(schedule_.set(999, 100, 1));
  EXPECT_NO_THROW(schedule_.set(999, -3, 0));
  EXPECT_THROW(schedule_.set(999, 5, 0), std::out_of_range);  // in-horizon still throws
}

TEST_F(ScheduleTest, InvalidVariantThrows) {
  const int too_big = static_cast<int>(deployment_.family_of(0).variant_count());
  EXPECT_THROW(schedule_.set(0, 5, too_big), std::out_of_range);
  EXPECT_THROW(schedule_.set(0, 5, -7), std::out_of_range);
}

TEST_F(ScheduleTest, FillCoversRangeAndClips) {
  schedule_.fill(1, 95, 120, 0);
  for (trace::Minute t = 95; t < 100; ++t) EXPECT_EQ(schedule_.variant_at(1, t), 0);
  EXPECT_EQ(schedule_.variant_at(1, 94), kNoVariant);
}

TEST_F(ScheduleTest, ClearFromErasesTail) {
  schedule_.fill(0, 10, 30, 1);
  schedule_.clear_from(0, 20);
  EXPECT_EQ(schedule_.variant_at(0, 19), 1);
  EXPECT_EQ(schedule_.variant_at(0, 20), kNoVariant);
  EXPECT_EQ(schedule_.variant_at(0, 29), kNoVariant);
}

TEST_F(ScheduleTest, MemorySumsKeptVariants) {
  schedule_.set(0, 50, 0);
  schedule_.set(1, 50, 1);
  const double expected = deployment_.family_of(0).variant(0).memory_mb +
                          deployment_.family_of(1).variant(1).memory_mb;
  EXPECT_DOUBLE_EQ(schedule_.memory_at(50), expected);
}

TEST_F(ScheduleTest, KeptAliveAtListsPairs) {
  schedule_.set(2, 7, 1);
  schedule_.set(0, 7, 0);
  const auto kept = schedule_.kept_alive_at(7);
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_EQ(kept[0].first, 0u);
  EXPECT_EQ(kept[0].second, 0u);
  EXPECT_EQ(kept[1].first, 2u);
  EXPECT_EQ(kept[1].second, 1u);
}

TEST_F(ScheduleTest, DowngradeFromLowersWholeTail) {
  schedule_.fill(0, 10, 20, 1);
  const auto prev = schedule_.downgrade_from(0, 12);
  ASSERT_TRUE(prev.has_value());
  EXPECT_EQ(*prev, 1);
  EXPECT_EQ(schedule_.variant_at(0, 11), 1);  // before t untouched
  for (trace::Minute t = 12; t < 20; ++t) EXPECT_EQ(schedule_.variant_at(0, t), 0);
}

TEST_F(ScheduleTest, DowngradeLowestDropsContainer) {
  schedule_.fill(0, 10, 15, 0);
  const auto prev = schedule_.downgrade_from(0, 10);
  ASSERT_TRUE(prev.has_value());
  EXPECT_EQ(*prev, 0);
  for (trace::Minute t = 10; t < 15; ++t) {
    EXPECT_EQ(schedule_.variant_at(0, t), kNoVariant);
  }
}

TEST_F(ScheduleTest, DowngradeNothingScheduledIsNoop) {
  EXPECT_FALSE(schedule_.downgrade_from(0, 10).has_value());
}

TEST_F(ScheduleTest, DowngradeStopsAtWindowGap) {
  schedule_.set(0, 10, 1);
  schedule_.set(0, 30, 1);  // a later, disjoint keep-alive stretch
  ASSERT_TRUE(schedule_.downgrade_from(0, 10).has_value());
  EXPECT_EQ(schedule_.variant_at(0, 10), 0);
  // The disjoint later window belongs to a different keep-alive decision
  // and must be untouched.
  EXPECT_EQ(schedule_.variant_at(0, 30), 1);
  EXPECT_EQ(schedule_.variant_at(0, 20), kNoVariant);
}

TEST_F(ScheduleTest, DowngradeReducesMemory) {
  schedule_.fill(0, 10, 20, 1);
  const double before = schedule_.memory_at(10);
  schedule_.downgrade_from(0, 10);
  EXPECT_LT(schedule_.memory_at(10), before);
}

TEST_F(ScheduleTest, NegativeDurationThrows) {
  EXPECT_THROW(KeepAliveSchedule(deployment_, -1), std::invalid_argument);
}

TEST_F(ScheduleTest, AliveCountTracksMutations) {
  EXPECT_EQ(schedule_.alive_count_at(7), 0u);
  schedule_.set(0, 7, 0);
  schedule_.set(2, 7, 1);
  EXPECT_EQ(schedule_.alive_count_at(7), 2u);
  schedule_.set(0, 7, 1);  // changing the variant keeps the count
  EXPECT_EQ(schedule_.alive_count_at(7), 2u);
  schedule_.clear(0, 7);
  EXPECT_EQ(schedule_.alive_count_at(7), 1u);
  EXPECT_EQ(schedule_.alive_count_at(-1), 0u);
  EXPECT_EQ(schedule_.alive_count_at(100), 0u);
}

TEST_F(ScheduleTest, ForEachAliveVisitsAscendingWithoutAllocation) {
  schedule_.set(3, 9, 0);
  schedule_.set(1, 9, 1);
  std::vector<std::pair<trace::FunctionId, std::size_t>> seen;
  schedule_.for_each_alive(9, [&](trace::FunctionId f, std::size_t v) {
    seen.emplace_back(f, v);
  });
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], (std::pair<trace::FunctionId, std::size_t>{1, 1}));
  EXPECT_EQ(seen[1], (std::pair<trace::FunctionId, std::size_t>{3, 0}));
}

TEST_F(ScheduleTest, KeptAliveBufferVariantMatchesAllocating) {
  schedule_.fill(0, 5, 15, 1);
  schedule_.set(2, 10, 0);
  std::vector<std::pair<trace::FunctionId, std::size_t>> buffer{{99, 99}};  // stale content
  schedule_.kept_alive_at(10, buffer);
  EXPECT_EQ(buffer, schedule_.kept_alive_at(10));
}

// The engine's capacity check is `memory_at(t) > cap` on the exact total; a
// sum of two doubles is already correctly rounded, so it is the plain add.
TEST_F(ScheduleTest, MemoryExceedsMatchesMemoryAt) {
  schedule_.set(0, 20, 1);
  schedule_.set(1, 20, 0);
  EXPECT_EQ(schedule_.memory_at(20), deployment_.family_of(0).variant(1).memory_mb +
                                         deployment_.family_of(1).variant(0).memory_mb);
  // Out-of-horizon minutes hold nothing.
  EXPECT_EQ(schedule_.memory_at(-1), 0.0);
  EXPECT_EQ(schedule_.memory_at(200), 0.0);
}

models::ModelFamily one_variant_family(double memory_mb) {
  return models::ModelFamily("F", "t", "d", {{"v", 1.0, 2.0, 50.0, memory_mb}});
}

TEST(ScheduleLimits, RejectsVariantMemoryOutsideTheExactRange) {
  const models::ModelFamily huge = one_variant_family(std::ldexp(1.0, 30));
  EXPECT_THROW(KeepAliveSchedule(Deployment({&huge}), 10), std::invalid_argument);
  const models::ModelFamily largest = one_variant_family(std::nextafter(std::ldexp(1.0, 30), 0.0));
  const Deployment deployment({&largest, &largest});
  KeepAliveSchedule schedule(deployment, 10);
  schedule.set(0, 3, 0);
  schedule.set(1, 3, 0);
  EXPECT_EQ(schedule.memory_at(3), 2.0 * largest.variant(0).memory_mb);
}

TEST(ScheduleLimits, SubUnitMemoriesRoundToTheNearestUnit) {
  const double unit = std::ldexp(1.0, -60);  // one 2^-60 MB unit
  const models::ModelFamily below_half = one_variant_family(0.25 * unit);
  const models::ModelFamily above_half = one_variant_family(0.75 * unit);
  const models::ModelFamily whole = one_variant_family(std::ldexp(1.0, -8) + unit);
  const Deployment deployment({&below_half, &above_half, &whole});
  KeepAliveSchedule schedule(deployment, 4);
  schedule.set(0, 0, 0);
  EXPECT_EQ(schedule.memory_at(0), 0.0);
  schedule.set(1, 1, 0);
  EXPECT_EQ(schedule.memory_at(1), unit);
  schedule.set(2, 2, 0);  // at and above 2^-8 MB every memory is exact
  EXPECT_EQ(schedule.memory_at(2), whole.variant(0).memory_mb);
}

TEST_F(ScheduleTest, ScheduledEndBoundsTail) {
  EXPECT_EQ(schedule_.scheduled_end(0), 0);
  schedule_.fill(0, 10, 30, 1);
  EXPECT_GE(schedule_.scheduled_end(0), 30);
  for (trace::Minute t = schedule_.scheduled_end(0); t < 100; ++t) {
    EXPECT_EQ(schedule_.variant_at(0, t), kNoVariant);
  }
  schedule_.clear_from(0, 12);
  EXPECT_LE(schedule_.scheduled_end(0), 12);
  EXPECT_EQ(schedule_.variant_at(0, 11), 1);
}

// memory_at's inline conversion against the compiler's (libgcc's
// __floatuntidf), bit for bit.
TEST(U128ToDouble, MatchesStaticCastBitForBit) {
  using U128 = unsigned __int128;
  const auto check = [](U128 x, const std::string& what) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(u128_to_double(x)),
              std::bit_cast<std::uint64_t>(static_cast<double>(x)))
        << what << " hi=" << static_cast<std::uint64_t>(x >> 64)
        << " lo=" << static_cast<std::uint64_t>(x);
  };
  const U128 one = 1;
  check(0, "zero");
  check((one << 53) - 1, "2^53-1");
  check((one << 53) + 1, "2^53+1");
  check(~std::uint64_t{0}, "2^64-1");
  check(one << 64, "2^64");
  check((one << 64) + 1, "2^64+1");
  check((one << 114) - 1, "2^114-1");
  check(~U128{0}, "2^128-1");

  // Round-half-even at every magnitude past 2^64: a 53-bit significand
  // (odd or even) followed by exactly half an ulp, then with one extra bit
  // at the bottom, which the 63-bit shift drops into the sticky bit.
  for (int length = 65; length <= 128; ++length) {
    const int low = length - 53;  // bits below the kept significand
    for (const std::uint64_t significand :
         {std::uint64_t{1} << 52, (std::uint64_t{1} << 52) | 1, (std::uint64_t{1} << 53) - 1}) {
      const U128 base = static_cast<U128>(significand) << low;
      const U128 half = one << (low - 1);
      const std::string at = "length=" + std::to_string(length) + " significand=" +
                             std::to_string(significand);
      check(base, "exact " + at);
      check(base | half, "tie " + at);
      check(base | half | 1, "tie+sticky " + at);
      check(base | 1, "below-half sticky " + at);
      check(base | (half - 1), "just below half " + at);
    }
  }

  util::Pcg32 rng(2024);
  const auto u64 = [&] {
    return (static_cast<std::uint64_t>(rng.next_u32()) << 32) | rng.next_u32();
  };
  for (int i = 0; i < 200000; ++i) {
    const U128 x = (static_cast<U128>(u64()) << 64) | u64();
    check(x >> rng.bounded(128), "random " + std::to_string(i));
  }
}

}  // namespace
}  // namespace pulse::sim
