#include "models/zoo.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "sim/cost_model.hpp"
#include "support/temp_dir.hpp"
#include "util/csv.hpp"

namespace pulse::models {
namespace {

TEST(Zoo, BuiltinHasAllTableIVFamilies) {
  const ModelZoo zoo = ModelZoo::builtin();
  EXPECT_EQ(zoo.family_count(), 5u);
  for (const char* name : {"BERT", "YOLO", "GPT", "ResNet", "DenseNet"}) {
    EXPECT_TRUE(zoo.has_family(name)) << name;
  }
}

TEST(Zoo, BuiltinVariantCountsMatchTableIV) {
  const ModelZoo zoo = ModelZoo::builtin();
  EXPECT_EQ(zoo.family_by_name("BERT").variant_count(), 2u);
  EXPECT_EQ(zoo.family_by_name("YOLO").variant_count(), 3u);
  EXPECT_EQ(zoo.family_by_name("GPT").variant_count(), 3u);
  EXPECT_EQ(zoo.family_by_name("ResNet").variant_count(), 3u);
  EXPECT_EQ(zoo.family_by_name("DenseNet").variant_count(), 3u);
  EXPECT_EQ(zoo.max_variant_count(), 3u);
}

TEST(Zoo, GptNumbersMatchTableI) {
  const ModelZoo zoo = ModelZoo::builtin();
  const ModelFamily& gpt = zoo.family_by_name("GPT");
  EXPECT_DOUBLE_EQ(gpt.variant(0).warm_service_time_s, 12.90);
  EXPECT_DOUBLE_EQ(gpt.variant(1).warm_service_time_s, 22.50);
  EXPECT_DOUBLE_EQ(gpt.variant(2).warm_service_time_s, 23.66);
  EXPECT_DOUBLE_EQ(gpt.variant(0).accuracy_pct, 87.65);
  EXPECT_DOUBLE_EQ(gpt.variant(2).accuracy_pct, 93.45);
}

TEST(Zoo, YoloLowestAccuracyMatchesPaperQuote) {
  // §III-B: "YOLO's lowest accuracy variant has an accuracy of 56.8%".
  const ModelZoo zoo = ModelZoo::builtin();
  const ModelFamily& yolo = zoo.family_by_name("YOLO");
  EXPECT_DOUBLE_EQ(yolo.lowest().accuracy_pct, 56.8);
}

TEST(Zoo, KeepAliveCostsReproduceTableI) {
  // The cost model should recover Table I's cents/hour from the memory
  // footprints (that is how the footprints were derived).
  const ModelZoo zoo = ModelZoo::builtin();
  EXPECT_NEAR(sim::cents_per_hour(zoo.family_by_name("GPT").variant(2)), 41.71, 0.01);
  EXPECT_NEAR(sim::cents_per_hour(zoo.family_by_name("GPT").variant(0)), 11.70, 0.01);
  EXPECT_NEAR(sim::cents_per_hour(zoo.family_by_name("BERT").variant(0)), 4.392, 0.01);
  EXPECT_NEAR(sim::cents_per_hour(zoo.family_by_name("DenseNet").variant(0)), 3.46, 0.01);
}

TEST(Zoo, MemoryFootprintsInPaperRange) {
  // §III-A: model footprints range between ~300 and 3500 MB.
  const ModelZoo zoo = ModelZoo::builtin();
  for (const auto& family : zoo.families()) {
    for (const auto& v : family.variants()) {
      EXPECT_GE(v.memory_mb, 250.0) << v.name;
      EXPECT_LE(v.memory_mb, 3600.0) << v.name;
    }
  }
}

TEST(Zoo, ColdStartsGrowWithMemory) {
  const ModelZoo zoo = ModelZoo::builtin();
  for (const auto& family : zoo.families()) {
    for (std::size_t v = 1; v < family.variant_count(); ++v) {
      if (family.variant(v).memory_mb > family.variant(v - 1).memory_mb) {
        EXPECT_GT(family.variant(v).cold_start_time_s,
                  family.variant(v - 1).cold_start_time_s)
            << family.name() << " " << family.variant(v).name;
      }
    }
  }
}

TEST(Zoo, SynthesizedColdStartRule) {
  EXPECT_DOUBLE_EQ(synthesized_cold_start_s(0.0), 2.0);
  EXPECT_DOUBLE_EQ(synthesized_cold_start_s(250.0), 3.0);
  EXPECT_DOUBLE_EQ(synthesized_cold_start_s(2500.0), 12.0);
}

TEST(Zoo, FamilyByNameThrowsOnMissing) {
  EXPECT_THROW((void)ModelZoo::builtin().family_by_name("LLaMA"), std::invalid_argument);
}

TEST(Zoo, FamilyIndexOutOfRangeThrows) {
  EXPECT_THROW((void)ModelZoo::builtin().family(99), std::out_of_range);
}

TEST(Zoo, CsvRoundTrip) {
  const ModelZoo zoo = ModelZoo::builtin();
  const testutil::TempDir dir;
  const auto path = dir.path() / "zoo.csv";
  zoo.save_csv(path);
  const ModelZoo back = ModelZoo::load_csv(path);

  ASSERT_EQ(back.family_count(), zoo.family_count());
  for (std::size_t i = 0; i < zoo.family_count(); ++i) {
    const auto& a = zoo.family(i);
    const auto& b = back.family(i);
    EXPECT_EQ(a.name(), b.name());
    EXPECT_EQ(a.dataset(), b.dataset());
    ASSERT_EQ(a.variant_count(), b.variant_count());
    for (std::size_t v = 0; v < a.variant_count(); ++v) {
      EXPECT_EQ(a.variant(v).name, b.variant(v).name);
      EXPECT_NEAR(a.variant(v).warm_service_time_s, b.variant(v).warm_service_time_s, 1e-6);
      EXPECT_NEAR(a.variant(v).memory_mb, b.variant(v).memory_mb, 1e-6);
      EXPECT_NEAR(a.variant(v).accuracy_pct, b.variant(v).accuracy_pct, 1e-6);
    }
  }
}

TEST(Zoo, LoadCsvMissingColumnsThrows) {
  const testutil::TempDir dir;
  const auto path = dir.path() / "bad.csv";
  {
    util::CsvTable t({"family", "variant"});
    t.add_row({"X", "y"});
    t.write_file(path);
  }
  EXPECT_THROW(ModelZoo::load_csv(path), std::runtime_error);
}

// std::stod parses "nan" and "inf", and NaN fails every `x < 0` range check,
// so a non-finite characterization value used to load silently.
TEST(Zoo, LoadCsvRejectsNonFiniteValues) {
  const testutil::TempDir dir;
  const char* const rows[] = {
      "F,t,d,v,1.0,3.0,70.0,nan",  // memory_mb
      "F,t,d,v,1.0,3.0,70.0,inf",
      "F,t,d,v,nan,3.0,70.0,300",  // warm_s
      "F,t,d,v,inf,3.0,70.0,300",
      "F,t,d,v,1.0,inf,70.0,300",  // cold_s
      "F,t,d,v,1.0,3.0,nan,300",   // accuracy_pct
  };
  for (const char* row : rows) {
    const auto path = dir.path() / "nonfinite.csv";
    {
      std::ofstream out(path);
      out << "family,task,dataset,variant,warm_s,cold_s,accuracy_pct,memory_mb\n" << row << "\n";
    }
    EXPECT_THROW(ModelZoo::load_csv(path), std::invalid_argument) << row;
  }
}

TEST(Zoo, VariantsSortedByAccuracyWithinEveryFamily) {
  const ModelZoo zoo = ModelZoo::builtin();
  for (const auto& family : zoo.families()) {
    for (std::size_t v = 1; v < family.variant_count(); ++v) {
      EXPECT_GE(family.variant(v).accuracy_pct, family.variant(v - 1).accuracy_pct);
    }
  }
}

TEST(Zoo, HigherQualityCostsMoreToKeepAlive) {
  // The design trade-off of Table I: within a family, quality raises the
  // keep-alive footprint.
  const ModelZoo zoo = ModelZoo::builtin();
  for (const auto& family : zoo.families()) {
    for (std::size_t v = 1; v < family.variant_count(); ++v) {
      EXPECT_GT(family.variant(v).memory_mb, family.variant(v - 1).memory_mb)
          << family.name();
    }
  }
}

}  // namespace
}  // namespace pulse::models
