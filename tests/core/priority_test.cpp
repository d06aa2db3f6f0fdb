#include "core/priority.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include "util/rng.hpp"

namespace pulse::core {
namespace {

TEST(Priority, StartsAllZero) {
  PriorityStructure p(4);
  EXPECT_EQ(p.model_count(), 4u);
  EXPECT_EQ(p.total_downgrades(), 0u);
  for (std::size_t f = 0; f < 4; ++f) EXPECT_EQ(p.downgrade_count(f), 0u);
}

TEST(Priority, AllZeroNormalizesToZero) {
  // Equation 1 degenerate branch at system start.
  PriorityStructure p(3);
  for (double v : p.normalized()) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(Priority, RecordDowngradeCounts) {
  PriorityStructure p(3);
  p.record_downgrade(1);
  p.record_downgrade(1);
  p.record_downgrade(2);
  EXPECT_EQ(p.downgrade_count(0), 0u);
  EXPECT_EQ(p.downgrade_count(1), 2u);
  EXPECT_EQ(p.downgrade_count(2), 1u);
  EXPECT_EQ(p.total_downgrades(), 3u);
}

TEST(Priority, MostDowngradedGetsHighestPriority) {
  PriorityStructure p(3);
  p.record_downgrade(0);
  p.record_downgrade(2);
  p.record_downgrade(2);
  p.record_downgrade(2);
  const auto n = p.normalized();
  EXPECT_DOUBLE_EQ(n[2], 1.0);
  EXPECT_DOUBLE_EQ(n[1], 0.0);
  EXPECT_GT(n[0], 0.0);
  EXPECT_LT(n[0], 1.0);
}

TEST(Priority, NormalizedValuesInUnitInterval) {
  PriorityStructure p(5);
  for (int i = 0; i < 37; ++i) p.record_downgrade(static_cast<std::size_t>(i * i) % 5);
  for (double v : p.normalized()) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
}

TEST(Priority, EqualNonzeroCountsNormalizeToZero) {
  // Xmax == Xmin branch applies even when counts are equal but non-zero.
  PriorityStructure p(2);
  p.record_downgrade(0);
  p.record_downgrade(1);
  for (double v : p.normalized()) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(Priority, SingleModelAlwaysZeroPriority) {
  PriorityStructure p(1);
  p.record_downgrade(0);
  p.record_downgrade(0);
  EXPECT_DOUBLE_EQ(p.normalized()[0], 0.0);
}

TEST(Priority, NormalizedPriorityMatchesVector) {
  PriorityStructure p(3);
  p.record_downgrade(2);
  p.record_downgrade(2);
  p.record_downgrade(0);
  const auto n = p.normalized();
  for (std::size_t f = 0; f < 3; ++f) {
    EXPECT_DOUBLE_EQ(p.normalized_priority(f), n[f]);
  }
}

TEST(Priority, OutOfRangeThrows) {
  PriorityStructure p(2);
  EXPECT_THROW(p.record_downgrade(2), std::out_of_range);
  EXPECT_THROW(static_cast<void>(p.downgrade_count(5)), std::out_of_range);
  EXPECT_THROW(static_cast<void>(p.normalized_priority(9)), std::out_of_range);
}

// normalized_of() keeps its minimum and maximum incrementally. After every
// downgrade of a seeded random sequence, each model's value must equal, bit
// for bit, Equation 1 evaluated from a fresh std::minmax scan of the counts.
// Half the downgrades hit a model at the minimum, so the minimum rises
// (forcing the rescan) several times per sequence.
TEST(PriorityDifferential, NormalizedOfMatchesFreshMinmaxScan) {
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    util::Pcg32 rng(seed, 0x9a1);
    const std::size_t models = 1 + rng.bounded(50);
    PriorityStructure p(models);
    std::vector<std::uint64_t> counts(models, 0);
    std::uint64_t min_rises = 0;
    for (int step = 0; step < 600; ++step) {
      std::size_t f = rng.bounded(static_cast<std::uint32_t>(models));
      if (rng.bounded(2) == 0) {
        const std::uint64_t low = *std::min_element(counts.begin(), counts.end());
        while (counts[f] != low) f = (f + 1) % models;
      }
      const std::uint64_t low_before = *std::min_element(counts.begin(), counts.end());
      p.record_downgrade(f);
      ++counts[f];
      const auto [lo_it, hi_it] = std::minmax_element(counts.begin(), counts.end());
      if (*lo_it > low_before) ++min_rises;

      const auto lo = static_cast<double>(*lo_it);
      const auto hi = static_cast<double>(*hi_it);
      for (std::size_t g = 0; g < models; ++g) {
        const auto x = static_cast<double>(counts[g]);
        const double expected = hi != lo ? (x - lo) / (hi - lo) : x - lo;
        const double actual = p.normalized_of(g);
        ASSERT_EQ(std::memcmp(&actual, &expected, sizeof(double)), 0)
            << "seed=" << seed << " step=" << step << " model=" << g << ": " << actual
            << " vs " << expected;
      }
    }
    EXPECT_GE(min_rises, 3u) << "seed=" << seed << " models=" << models;
    EXPECT_EQ(p.total_downgrades(), 600u);
  }
}

}  // namespace
}  // namespace pulse::core
