#include "core/variant_selector.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <tuple>
#include <vector>

namespace pulse::core {
namespace {

TEST(VariantSelector, ZeroVariantsThrows) {
  EXPECT_THROW(static_cast<void>(select_variant(0.5, 0, ThresholdTechnique::kT1)),
               std::invalid_argument);
}

TEST(VariantSelector, T1ThreeVariantAreas) {
  // N = 3: thresholds at 1/3, 2/3.
  EXPECT_EQ(select_variant(0.0, 3, ThresholdTechnique::kT1), 0u);
  EXPECT_EQ(select_variant(0.2, 3, ThresholdTechnique::kT1), 0u);
  EXPECT_EQ(select_variant(0.34, 3, ThresholdTechnique::kT1), 1u);
  EXPECT_EQ(select_variant(0.6, 3, ThresholdTechnique::kT1), 1u);
  EXPECT_EQ(select_variant(0.7, 3, ThresholdTechnique::kT1), 2u);
  EXPECT_EQ(select_variant(1.0, 3, ThresholdTechnique::kT1), 2u);
}

TEST(VariantSelector, T1TwoVariantSplit) {
  EXPECT_EQ(select_variant(0.49, 2, ThresholdTechnique::kT1), 0u);
  EXPECT_EQ(select_variant(0.51, 2, ThresholdTechnique::kT1), 1u);
}

TEST(VariantSelector, T2ZeroProbabilityGetsLowest) {
  EXPECT_EQ(select_variant(0.0, 3, ThresholdTechnique::kT2), 0u);
}

TEST(VariantSelector, T2PositiveProbabilitySplitsRemainingVariants) {
  // N = 3: (0,1] split into 2 areas for variants 1 and 2.
  EXPECT_EQ(select_variant(0.1, 3, ThresholdTechnique::kT2), 1u);
  EXPECT_EQ(select_variant(0.49, 3, ThresholdTechnique::kT2), 1u);
  EXPECT_EQ(select_variant(0.51, 3, ThresholdTechnique::kT2), 2u);
  EXPECT_EQ(select_variant(1.0, 3, ThresholdTechnique::kT2), 2u);
}

TEST(VariantSelector, SingleVariantAlwaysZero) {
  for (double p : {0.0, 0.3, 1.0}) {
    EXPECT_EQ(select_variant(p, 1, ThresholdTechnique::kT1), 0u);
    EXPECT_EQ(select_variant(p, 1, ThresholdTechnique::kT2), 0u);
  }
}

TEST(VariantSelector, OutOfRangeProbabilityClamped) {
  EXPECT_EQ(select_variant(-0.5, 3, ThresholdTechnique::kT1), 0u);
  EXPECT_EQ(select_variant(1.5, 3, ThresholdTechnique::kT1), 2u);
  EXPECT_EQ(select_variant(-0.5, 3, ThresholdTechnique::kT2), 0u);
  EXPECT_EQ(select_variant(1.5, 3, ThresholdTechnique::kT2), 2u);
}

TEST(VariantSelector, ThresholdCountsMatchPaper) {
  // Paper: T1 has N-1 thresholds, T2 has N-2.
  EXPECT_EQ(threshold_count(3, ThresholdTechnique::kT1), 2u);
  EXPECT_EQ(threshold_count(3, ThresholdTechnique::kT2), 1u);
  EXPECT_EQ(threshold_count(2, ThresholdTechnique::kT1), 1u);
  EXPECT_EQ(threshold_count(2, ThresholdTechnique::kT2), 0u);
  EXPECT_EQ(threshold_count(1, ThresholdTechnique::kT2), 0u);
  EXPECT_EQ(threshold_count(0, ThresholdTechnique::kT1), 0u);
}

// Property sweep: monotonicity (higher probability never selects a lower
// variant) and validity, for both techniques and several family sizes —
// "the general principle of keeping alive the variant with the highest
// accuracy at higher invocation probabilities".
class SelectorProperty
    : public ::testing::TestWithParam<std::tuple<ThresholdTechnique, std::size_t>> {};

TEST_P(SelectorProperty, MonotoneAndInRange) {
  const auto [technique, variants] = GetParam();
  std::size_t prev = 0;
  for (int i = 0; i <= 1000; ++i) {
    const double p = static_cast<double>(i) / 1000.0;
    const std::size_t v = select_variant(p, variants, technique);
    EXPECT_LT(v, variants);
    EXPECT_GE(v, prev);
    prev = v;
  }
  // Highest probability must select the highest variant.
  EXPECT_EQ(select_variant(1.0, variants, technique), variants - 1);
}

// select_variant as it was with std::floor, before the areas became a
// plain truncating cast.
std::size_t floor_select_variant(double probability, std::size_t variant_count,
                                 ThresholdTechnique technique) {
  const double p = std::clamp(probability, 0.0, 1.0);
  const auto n = static_cast<double>(variant_count);
  if (technique == ThresholdTechnique::kT1) {
    return std::min(static_cast<std::size_t>(std::floor(p * n)), variant_count - 1);
  }
  if (p == 0.0 || variant_count == 1) return 0;
  const auto areas = static_cast<double>(variant_count - 1);
  return 1 + std::min(static_cast<std::size_t>(std::floor(p * areas)), variant_count - 2);
}

TEST(VariantSelector, TruncationIsFloorAtEveryAreaEdge) {
  for (std::size_t n = 1; n <= 8; ++n) {
    std::vector<double> points = {0.0,  -0.0, std::numeric_limits<double>::denorm_min(),
                                  1.0,  -1e-300, -0.5, 1.0 + 1e-15, 1.5,
                                  std::numeric_limits<double>::infinity(),
                                  -std::numeric_limits<double>::infinity()};
    const auto add_edge = [&points](double edge) {
      points.push_back(edge);
      points.push_back(std::nextafter(edge, -1.0));
      points.push_back(std::nextafter(edge, 2.0));
    };
    for (std::size_t k = 0; k <= n; ++k) {
      add_edge(static_cast<double>(k) / static_cast<double>(n));
      if (n > 1) add_edge(static_cast<double>(k) / static_cast<double>(n - 1));
    }
    for (const ThresholdTechnique technique : {ThresholdTechnique::kT1, ThresholdTechnique::kT2}) {
      for (const double p : points) {
        EXPECT_EQ(select_variant(p, n, technique), floor_select_variant(p, n, technique))
            << "n=" << n << " T" << (technique == ThresholdTechnique::kT1 ? 1 : 2)
            << " p=" << std::hexfloat << p;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    TechniquesAndSizes, SelectorProperty,
    ::testing::Combine(::testing::Values(ThresholdTechnique::kT1, ThresholdTechnique::kT2),
                       ::testing::Values(std::size_t{1}, std::size_t{2}, std::size_t{3},
                                         std::size_t{4}, std::size_t{7})));

}  // namespace
}  // namespace pulse::core
