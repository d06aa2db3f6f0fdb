#include "models/latency.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>

#include "models/zoo.hpp"

namespace pulse::models {
namespace {

ModelVariant variant() { return {"v", 2.0, 6.0, 80.0, 500.0}; }

TEST(Latency, ExpectedWarmTime) {
  EXPECT_DOUBLE_EQ(LatencyModel::expected_service_time(variant(), /*cold=*/false), 2.0);
}

TEST(Latency, ExpectedColdTimeAddsPenalty) {
  EXPECT_DOUBLE_EQ(LatencyModel::expected_service_time(variant(), /*cold=*/true), 8.0);
}

TEST(Latency, ZeroCvIsDeterministic) {
  LatencyModel model(0.0, 0.0);
  util::Pcg32 rng(1);
  EXPECT_DOUBLE_EQ(LatencyModel::sample(model.prepare(variant()), false, rng), 2.0);
  EXPECT_DOUBLE_EQ(LatencyModel::sample(model.prepare(variant()), true, rng), 8.0);
}

TEST(Latency, SamplesArePositive) {
  LatencyModel model;
  util::Pcg32 rng(2);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_GT(LatencyModel::sample(model.prepare(variant()), i % 2 == 0, rng), 0.0);
  }
}

TEST(Latency, WarmSampleMeanNearCharacterizedTime) {
  LatencyModel model(0.08, 0.15);
  util::Pcg32 rng(3);
  double sum = 0.0;
  constexpr int kN = 50000;
  for (int i = 0; i < kN; ++i) sum += LatencyModel::sample(model.prepare(variant()), false, rng);
  EXPECT_NEAR(sum / kN, 2.0, 0.02);
}

TEST(Latency, ColdSampleMeanNearCharacterizedTime) {
  LatencyModel model(0.08, 0.15);
  util::Pcg32 rng(4);
  double sum = 0.0;
  constexpr int kN = 50000;
  for (int i = 0; i < kN; ++i) sum += LatencyModel::sample(model.prepare(variant()), true, rng);
  EXPECT_NEAR(sum / kN, 8.0, 0.05);
}

TEST(Latency, ColdAlwaysSlowerOnAverage) {
  LatencyModel model;
  util::Pcg32 rng(5);
  double warm = 0.0;
  double cold = 0.0;
  for (int i = 0; i < 10000; ++i) {
    warm += LatencyModel::sample(model.prepare(variant()), false, rng);
    cold += LatencyModel::sample(model.prepare(variant()), true, rng);
  }
  EXPECT_GT(cold, warm);
}

TEST(Latency, DeterministicGivenSameRngState) {
  LatencyModel model;
  util::Pcg32 a(7);
  util::Pcg32 b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(LatencyModel::sample(model.prepare(variant()), i % 3 == 0, a),
                     LatencyModel::sample(model.prepare(variant()), i % 3 == 0, b));
  }
}

// The service-time draw as it was before the prepared draw: both lognormal
// parameter sets recomputed on every call.
double unprepared_sample(const LatencyModel& model, const ModelVariant& v, bool cold,
                         util::Pcg32& rng) {
  const auto draw = [&rng](double mean, double cv) {
    if (mean <= 0.0) return 0.0;
    if (cv <= 0.0) return mean;
    const double sigma2 = std::log(1.0 + cv * cv);
    const double mu = std::log(mean) - 0.5 * sigma2;
    return util::lognormal(rng, mu, std::sqrt(sigma2));
  };
  double t = draw(v.warm_service_time_s, model.warm_cv());
  if (cold) t += draw(v.cold_start_time_s, model.cold_cv());
  return t;
}

TEST(Latency, PreparedSampleIsTheUnpreparedDrawBitwise) {
  const ModelZoo zoo = ModelZoo::builtin();
  std::uint64_t seed = 1;
  for (const LatencyModel model : {LatencyModel{}, LatencyModel{0.0, 0.15},
                                   LatencyModel{0.08, 0.0}, LatencyModel{0.3, 0.5}}) {
    for (std::size_t fam = 0; fam < zoo.family_count(); ++fam) {
      const ModelFamily& family = zoo.family(fam);
      for (std::size_t v = 0; v < family.variant_count(); ++v) {
        const ModelVariant& variant = family.variant(v);
        const LatencyModel::Prepared prepared = model.prepare(variant);
        for (const bool cold : {false, true}) {
          SCOPED_TRACE(variant.name + " cold=" + std::to_string(cold) +
                       " warm_cv=" + std::to_string(model.warm_cv()) +
                       " cold_cv=" + std::to_string(model.cold_cv()));
          for (int draw = 0; draw < 16; ++draw, ++seed) {
            util::Pcg32 a(seed, 9);
            util::Pcg32 b(seed, 9);
            const double x = LatencyModel::sample(prepared, cold, a);
            const double y = unprepared_sample(model, variant, cold, b);
            ASSERT_EQ(std::bit_cast<std::uint64_t>(x), std::bit_cast<std::uint64_t>(y));
            ASSERT_EQ(a.next_u32(), b.next_u32());  // same state consumed
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace pulse::models
