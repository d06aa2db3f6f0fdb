#include "core/variant_selector.hpp"

#include <gtest/gtest.h>

#include <tuple>

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

INSTANTIATE_TEST_SUITE_P(
    TechniquesAndSizes, SelectorProperty,
    ::testing::Combine(::testing::Values(ThresholdTechnique::kT1, ThresholdTechnique::kT2),
                       ::testing::Values(std::size_t{1}, std::size_t{2}, std::size_t{3},
                                         std::size_t{4}, std::size_t{7})));

}  // namespace
}  // namespace pulse::core
