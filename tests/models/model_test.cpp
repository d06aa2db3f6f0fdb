#include "models/model.hpp"

#include <gtest/gtest.h>

#include <limits>

namespace pulse::models {
namespace {

std::vector<ModelVariant> three_variants() {
  return {
      {"small", 1.0, 5.0, 70.0, 300.0},
      {"medium", 2.0, 8.0, 80.0, 600.0},
      {"large", 3.0, 12.0, 90.0, 1200.0},
  };
}

TEST(ModelVariant, AccuracyFraction) {
  ModelVariant v{"x", 1.0, 2.0, 87.65, 100.0};
  EXPECT_DOUBLE_EQ(v.accuracy_fraction(), 0.8765);
}

TEST(ModelVariant, ColdServiceTimeAddsPenalty) {
  ModelVariant v{"x", 1.5, 6.5, 80.0, 100.0};
  EXPECT_DOUBLE_EQ(v.cold_service_time_s(), 8.0);
}

TEST(ModelFamily, BasicAccessors) {
  ModelFamily f("Fam", "task", "data", three_variants());
  EXPECT_EQ(f.name(), "Fam");
  EXPECT_EQ(f.task(), "task");
  EXPECT_EQ(f.dataset(), "data");
  EXPECT_EQ(f.variant_count(), 3u);
  EXPECT_EQ(f.lowest().name, "small");
  EXPECT_EQ(f.highest().name, "large");
  EXPECT_EQ(f.highest_index(), 2u);
}

TEST(ModelFamily, VariantOutOfRangeThrows) {
  ModelFamily f("Fam", "t", "d", three_variants());
  EXPECT_THROW((void)f.variant(3), std::out_of_range);
}

TEST(ModelFamily, EmptyVariantsThrows) {
  EXPECT_THROW(ModelFamily("Fam", "t", "d", {}), std::invalid_argument);
}

TEST(ModelFamily, UnsortedVariantsThrow) {
  auto variants = three_variants();
  std::swap(variants[0], variants[2]);
  EXPECT_THROW(ModelFamily("Fam", "t", "d", std::move(variants)), std::invalid_argument);
}

TEST(ModelFamily, OutOfRangeAccuracyThrows) {
  auto variants = three_variants();
  variants[2].accuracy_pct = 101.0;
  EXPECT_THROW(ModelFamily("Fam", "t", "d", std::move(variants)), std::invalid_argument);
}

TEST(ModelFamily, NegativeTimesThrow) {
  auto variants = three_variants();
  variants[0].warm_service_time_s = -0.1;
  EXPECT_THROW(ModelFamily("Fam", "t", "d", std::move(variants)), std::invalid_argument);
}

TEST(ModelFamily, NonFiniteValuesThrow) {
  const double bad[] = {std::numeric_limits<double>::quiet_NaN(),
                        std::numeric_limits<double>::infinity()};
  for (const double x : bad) {
    for (double ModelVariant::*field :
         {&ModelVariant::warm_service_time_s, &ModelVariant::cold_start_time_s,
          &ModelVariant::accuracy_pct, &ModelVariant::memory_mb}) {
      auto variants = three_variants();
      variants[1].*field = x;
      EXPECT_THROW(ModelFamily("Fam", "t", "d", std::move(variants)), std::invalid_argument)
          << x;
    }
  }
}

TEST(ModelFamily, FindVariantByName) {
  ModelFamily f("Fam", "t", "d", three_variants());
  EXPECT_EQ(f.find_variant("medium").value(), 1u);
  EXPECT_FALSE(f.find_variant("nope").has_value());
}

TEST(ModelFamily, AccuracyImprovementMiddleVariant) {
  ModelFamily f("Fam", "t", "d", three_variants());
  // medium over small: (80 - 70) / 100
  EXPECT_NEAR(f.accuracy_improvement(1), 0.10, 1e-12);
  EXPECT_NEAR(f.accuracy_improvement(2), 0.10, 1e-12);
}

TEST(ModelFamily, AccuracyImprovementLowestIsOwnAccuracy) {
  // Paper: the lowest variant's improvement is its own accuracy in decimal.
  ModelFamily f("Fam", "t", "d", three_variants());
  EXPECT_DOUBLE_EQ(f.accuracy_improvement(0), 0.70);
}

TEST(ModelFamily, AccuracyImprovementAlwaysInUnitInterval) {
  ModelFamily f("Fam", "t", "d", three_variants());
  for (std::size_t v = 0; v < f.variant_count(); ++v) {
    EXPECT_GE(f.accuracy_improvement(v), 0.0);
    EXPECT_LE(f.accuracy_improvement(v), 1.0);
  }
}

TEST(ModelFamily, SingleVariantFamilyWorks) {
  ModelFamily f("Solo", "t", "d", {{"only", 1.0, 2.0, 85.0, 400.0}});
  EXPECT_EQ(f.highest_index(), 0u);
  EXPECT_DOUBLE_EQ(f.accuracy_improvement(0), 0.85);
}

TEST(ModelFamily, EqualAccuracyVariantsAllowed) {
  // Non-strictly-increasing accuracy is fine (ties).
  std::vector<ModelVariant> variants{
      {"a", 1.0, 2.0, 80.0, 100.0},
      {"b", 2.0, 3.0, 80.0, 200.0},
  };
  ModelFamily f("Tie", "t", "d", std::move(variants));
  EXPECT_DOUBLE_EQ(f.accuracy_improvement(1), 0.0);
}

}  // namespace
}  // namespace pulse::models
