// Model-based fuzzing of KeepAliveSchedule: random operation sequences are
// applied both to the real schedule and to a trivially-correct reference
// model (a plain 2D vector); all observations must agree at every step.
// The reference sums memory with its own correctly rounded summation, so
// memory_at must match it bit for bit.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "sim/schedule.hpp"
#include "util/rng.hpp"

namespace pulse::sim {
namespace {

/// The correctly rounded (round-half-even) sum of `values`: Shewchuk's
/// exact non-overlapping partials, then a half-way correction at the top
/// (the algorithm of Python's math.fsum).
double correctly_rounded_sum(const std::vector<double>& values) {
  std::vector<double> partials;
  for (double x : values) {
    std::size_t kept = 0;
    for (std::size_t j = 0; j < partials.size(); ++j) {
      double y = partials[j];
      if (std::fabs(x) < std::fabs(y)) std::swap(x, y);
      const double hi = x + y;
      const double lo = y - (hi - x);
      if (lo != 0.0) partials[kept++] = lo;
      x = hi;
    }
    partials.resize(kept);
    partials.push_back(x);
  }
  std::size_t n = partials.size();
  if (n == 0) return 0.0;
  double hi = partials[--n];
  double lo = 0.0;
  while (n > 0) {
    const double x = hi;
    const double y = partials[--n];
    hi = x + y;
    lo = y - (hi - x);
    if (lo != 0.0) break;
  }
  if (n > 0 && ((lo < 0.0 && partials[n - 1] < 0.0) || (lo > 0.0 && partials[n - 1] > 0.0))) {
    const double y = lo * 2.0;
    const double x = hi + y;
    if (y == x - hi) hi = x;
  }
  return hi;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Families whose variant memories span 2^-8 .. 2^29 MB with full random
/// mantissas, so the rounding of a plain double sum depends on its order.
std::vector<models::ModelFamily> wide_magnitude_families(std::size_t count, std::uint64_t seed) {
  util::Pcg32 rng(seed);
  std::vector<models::ModelFamily> families;
  for (std::size_t i = 0; i < count; ++i) {
    std::vector<models::ModelVariant> variants;
    for (int v = 0; v < 3; ++v) {
      const double mantissa = 1.0 + rng.uniform();
      const int exponent = static_cast<int>(rng.bounded(38)) - 8;
      variants.push_back({std::string("v").append(std::to_string(v)), 1.0, 2.0, 50.0 + v,
                          std::ldexp(mantissa, exponent)});
    }
    families.emplace_back(std::string("F").append(std::to_string(i)), "t", "d",
                          std::move(variants));
  }
  return families;
}

Deployment deployment_of(const std::vector<models::ModelFamily>& families) {
  std::vector<const models::ModelFamily*> pointers;
  for (const auto& family : families) pointers.push_back(&family);
  return Deployment(std::move(pointers));
}

/// The obviously-correct reference implementation.
class ReferenceSchedule {
 public:
  ReferenceSchedule(const Deployment& deployment, trace::Minute duration)
      : deployment_(&deployment),
        duration_(duration),
        slots_(deployment.function_count(),
               std::vector<int>(static_cast<std::size_t>(duration), kNoVariant)) {}

  void set(trace::FunctionId f, trace::Minute t, int v) {
    if (t < 0 || t >= duration_) return;
    slots_[f][static_cast<std::size_t>(t)] = v;
  }

  void fill(trace::FunctionId f, trace::Minute from, trace::Minute to, int v) {
    for (trace::Minute t = std::max<trace::Minute>(0, from); t < std::min(to, duration_); ++t) {
      slots_[f][static_cast<std::size_t>(t)] = v;
    }
  }

  void clear_from(trace::FunctionId f, trace::Minute from) {
    for (trace::Minute t = std::max<trace::Minute>(0, from); t < duration_; ++t) {
      slots_[f][static_cast<std::size_t>(t)] = kNoVariant;
    }
  }

  std::optional<int> downgrade_from(trace::FunctionId f, trace::Minute t) {
    if (t < 0 || t >= duration_) return std::nullopt;
    const int current = slots_[f][static_cast<std::size_t>(t)];
    if (current == kNoVariant) return std::nullopt;
    for (trace::Minute m = t; m < duration_; ++m) {
      int& slot = slots_[f][static_cast<std::size_t>(m)];
      if (slot == kNoVariant) break;
      slot = slot > 0 ? slot - 1 : kNoVariant;
    }
    return current;
  }

  void evict_from(trace::FunctionId f, trace::Minute t) {
    if (t < 0 || t >= duration_) return;
    for (trace::Minute m = t; m < duration_; ++m) {
      int& slot = slots_[f][static_cast<std::size_t>(m)];
      if (slot == kNoVariant) break;
      slot = kNoVariant;
    }
  }

  [[nodiscard]] int variant_at(trace::FunctionId f, trace::Minute t) const {
    if (t < 0 || t >= duration_) return kNoVariant;
    return slots_[f][static_cast<std::size_t>(t)];
  }

  [[nodiscard]] double memory_at(trace::Minute t) const {
    if (t < 0 || t >= duration_) return 0.0;
    std::vector<double> kept;
    for (trace::FunctionId f = 0; f < slots_.size(); ++f) {
      const int v = slots_[f][static_cast<std::size_t>(t)];
      if (v != kNoVariant) {
        kept.push_back(deployment_->family_of(f).variant(static_cast<std::size_t>(v)).memory_mb);
      }
    }
    return correctly_rounded_sum(kept);
  }

  [[nodiscard]] std::size_t alive_count_at(trace::Minute t) const {
    if (t < 0 || t >= duration_) return 0;
    std::size_t n = 0;
    for (trace::FunctionId f = 0; f < slots_.size(); ++f) {
      if (slots_[f][static_cast<std::size_t>(t)] != kNoVariant) ++n;
    }
    return n;
  }

  [[nodiscard]] std::vector<std::pair<trace::FunctionId, std::size_t>> kept_alive_at(
      trace::Minute t) const {
    std::vector<std::pair<trace::FunctionId, std::size_t>> out;
    if (t < 0 || t >= duration_) return out;
    for (trace::FunctionId f = 0; f < slots_.size(); ++f) {
      const int v = slots_[f][static_cast<std::size_t>(t)];
      if (v != kNoVariant) out.emplace_back(f, static_cast<std::size_t>(v));
    }
    return out;
  }

 private:
  const Deployment* deployment_;
  trace::Minute duration_;
  std::vector<std::vector<int>> slots_;
};

void fuzz_against_reference(const Deployment& deployment, std::uint64_t seed) {
  const std::size_t kFunctions = deployment.function_count();
  constexpr trace::Minute kDuration = 120;

  KeepAliveSchedule real(deployment, kDuration);
  ReferenceSchedule ref(deployment, kDuration);
  util::Pcg32 rng(seed);

  for (int step = 0; step < 2000; ++step) {
    const auto f =
        static_cast<trace::FunctionId>(rng.bounded(static_cast<std::uint32_t>(kFunctions)));
    const auto variants =
        static_cast<std::uint32_t>(deployment.family_of(f).variant_count());
    const auto t = static_cast<trace::Minute>(rng.bounded(kDuration + 20)) - 10;

    switch (rng.bounded(5)) {
      case 0: {
        const int v = static_cast<int>(rng.bounded(variants + 1)) - 1;  // incl. kNoVariant
        // Real set() throws on invalid variants, so only feed valid ones.
        real.set(f, t, v);
        ref.set(f, t, v);
        break;
      }
      case 1: {
        const int v = static_cast<int>(rng.bounded(variants));
        const auto len = static_cast<trace::Minute>(rng.bounded(15));
        real.fill(f, t, t + len, v);
        ref.fill(f, t, t + len, v);
        break;
      }
      case 2:
        real.clear_from(f, std::max<trace::Minute>(0, t));
        ref.clear_from(f, std::max<trace::Minute>(0, t));
        break;
      case 3: {
        const auto a = real.downgrade_from(f, t);
        const auto b = ref.downgrade_from(f, t);
        ASSERT_EQ(a, b) << "step " << step;
        break;
      }
      case 4:
        real.evict_from(f, t);
        ref.evict_from(f, t);
        break;
    }

    // Spot-check observations each step; full sweep periodically.
    const auto probe = static_cast<trace::Minute>(rng.bounded(kDuration));
    ASSERT_EQ(real.variant_at(f, probe), ref.variant_at(f, probe)) << "step " << step;
    const double ref_mem = ref.memory_at(probe);
    ASSERT_EQ(bits(real.memory_at(probe)), bits(ref_mem)) << "step " << step;
    ASSERT_EQ(real.alive_count_at(probe), ref.alive_count_at(probe)) << "step " << step;
    // The engine's capacity check `memory_at(t) > cap`, at the exact total
    // and one ulp either side of it.
    constexpr double kInf = std::numeric_limits<double>::infinity();
    ASSERT_FALSE(real.memory_at(probe) > ref_mem) << "step " << step;
    ASSERT_TRUE(real.memory_at(probe) > std::nextafter(ref_mem, -kInf)) << "step " << step;
    ASSERT_FALSE(real.memory_at(probe) > std::nextafter(ref_mem, kInf)) << "step " << step;
    if (step % 100 == 0) {
      ASSERT_EQ(real.kept_alive_at(probe), ref.kept_alive_at(probe)) << "step " << step;
      std::vector<std::pair<trace::FunctionId, std::size_t>> buffer;
      real.kept_alive_at(probe, buffer);
      ASSERT_EQ(buffer, ref.kept_alive_at(probe)) << "step " << step;
    }
    if (step % 200 == 0) {
      for (trace::Minute m = 0; m < kDuration; ++m) {
        for (trace::FunctionId g = 0; g < kFunctions; ++g) {
          ASSERT_EQ(real.variant_at(g, m), ref.variant_at(g, m))
              << "step " << step << " f=" << g << " m=" << m;
        }
      }
    }
  }
}

class ScheduleFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ScheduleFuzz, AgreesWithReferenceModel) {
  const auto zoo = models::ModelZoo::builtin();
  fuzz_against_reference(Deployment::round_robin(zoo, 5), GetParam());
  const auto wide = wide_magnitude_families(7, GetParam() + 1000);
  fuzz_against_reference(deployment_of(wide), GetParam());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScheduleFuzz,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u));

// The same containers under shuffled function ids: the exact total does not
// depend on which function holds which memory, so memory_at is
// bit-identical (a plain ascending-id double sum would not be).
TEST(ScheduleFuzzPermutation, ShuffledFunctionIdsGiveBitIdenticalMemory) {
  constexpr std::size_t kFunctions = 64;
  constexpr trace::Minute kDuration = 50;
  const auto slot = [](std::size_t f, trace::Minute t) {
    return f * static_cast<std::size_t>(kDuration) + static_cast<std::size_t>(t);
  };
  const auto families = wide_magnitude_families(kFunctions, 77);
  const Deployment base = deployment_of(families);
  util::Pcg32 rng(78);
  std::vector<int> plan(slot(kFunctions, 0));
  for (int& v : plan) v = static_cast<int>(rng.bounded(4)) - 1;  // incl. kNoVariant

  KeepAliveSchedule reference(base, kDuration);
  for (std::size_t f = 0; f < kFunctions; ++f) {
    for (trace::Minute t = 0; t < kDuration; ++t) {
      reference.set(f, t, plan[slot(f, t)]);
    }
  }

  std::vector<std::size_t> perm(kFunctions);
  std::iota(perm.begin(), perm.end(), std::size_t{0});
  for (int round = 0; round < 5; ++round) {
    for (std::size_t i = kFunctions; i > 1; --i) {
      std::swap(perm[i - 1], perm[rng.bounded(static_cast<std::uint32_t>(i))]);
    }
    // Function f of the base deployment becomes function perm[f].
    std::vector<const models::ModelFamily*> shuffled(kFunctions);
    for (std::size_t f = 0; f < kFunctions; ++f) shuffled[perm[f]] = &base.family_of(f);
    const Deployment deployment(std::move(shuffled));
    KeepAliveSchedule schedule(deployment, kDuration);
    for (std::size_t f = 0; f < kFunctions; ++f) {
      for (trace::Minute t = 0; t < kDuration; ++t) {
        schedule.set(perm[f], t, plan[slot(f, t)]);
      }
    }
    for (trace::Minute t = 0; t < kDuration; ++t) {
      ASSERT_EQ(bits(schedule.memory_at(t)), bits(reference.memory_at(t)))
          << "round " << round << " minute " << t;
    }
  }
}

}  // namespace
}  // namespace pulse::sim
