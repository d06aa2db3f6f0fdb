#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <vector>

namespace pulse::util {
namespace {

TEST(Pcg32, DeterministicStream) {
  Pcg32 a(42, 7);
  Pcg32 b(42, 7);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u32(), b.next_u32());
}

TEST(Pcg32, StreamsAreIndependent) {
  Pcg32 a(42, 1);
  Pcg32 b(42, 2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u32() == b.next_u32()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(Pcg32, UniformInUnitInterval) {
  Pcg32 rng(9);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Pcg32, UniformRange) {
  Pcg32 rng(10);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-5.0, 3.0);
    EXPECT_GE(u, -5.0);
    EXPECT_LT(u, 3.0);
  }
}

TEST(Pcg32, UniformMeanIsCentered) {
  Pcg32 rng(11);
  double sum = 0.0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / kN, 0.5, 0.01);
}

TEST(Pcg32, BoundedStaysInBound) {
  Pcg32 rng(12);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(rng.bounded(17), 17u);
}

TEST(Pcg32, BoundedOneAlwaysZero) {
  Pcg32 rng(13);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.bounded(1), 0u);
}

TEST(Pcg32, BoundedCoversAllValues) {
  Pcg32 rng(14);
  std::set<std::uint32_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.bounded(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Pcg32, BernoulliExtremes) {
  Pcg32 rng(15);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Distributions, NormalMoments) {
  Pcg32 rng(20);
  double sum = 0.0;
  double sq = 0.0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) {
    const double x = normal(rng, 10.0, 2.0);
    sum += x;
    sq += x * x;
  }
  const double m = sum / kN;
  const double var = sq / kN - m * m;
  EXPECT_NEAR(m, 10.0, 0.05);
  EXPECT_NEAR(var, 4.0, 0.15);
}

// The ziggurat's distribution, on one fixed stream of 10^6 draws. The
// bounds follow from the sample size alone: the Kolmogorov-Smirnov 1%
// critical value 1.628 / sqrt(n), and 4-sigma binomial intervals.
constexpr int kZigguratDraws = 1'000'000;

const std::vector<double>& ziggurat_draws() {
  static const std::vector<double> xs = [] {
    Pcg32 rng(0x2166'0013, 3);
    std::vector<double> v(kZigguratDraws);
    for (double& x : v) x = normal(rng);
    return v;
  }();
  return xs;
}

// `count` lies within 4 sigma of a Binomial(n, p) mean.
void expect_binomial(std::size_t count, double n, double p, const char* what) {
  const double sd = std::sqrt(n * p * (1.0 - p));
  EXPECT_NEAR(static_cast<double>(count), n * p, 4.0 * sd) << what;
}

TEST(Ziggurat, KolmogorovSmirnovAgainstPhi) {
  std::vector<double> xs = ziggurat_draws();
  std::sort(xs.begin(), xs.end());
  double d = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double phi = 0.5 * std::erfc(-xs[i] / std::sqrt(2.0));
    const double lo = static_cast<double>(i) / kZigguratDraws;
    const double hi = static_cast<double>(i + 1) / kZigguratDraws;
    d = std::max({d, phi - lo, hi - phi});
  }
  EXPECT_LT(d, 1.628 / std::sqrt(static_cast<double>(kZigguratDraws)));
}

TEST(Ziggurat, TailBeyondRHasNormalMassOnBothSides) {
  // Only the tail branch returns |x| >= r: every other layer's x < r.
  constexpr double kR = detail::NormalZiggurat::kR;
  const double p_side = 0.5 * std::erfc(kR / std::sqrt(2.0));  // 1.29e-4
  std::size_t above = 0, below = 0;
  for (const double x : ziggurat_draws()) {
    above += x >= kR;
    below += x <= -kR;
  }
  expect_binomial(above + below, kZigguratDraws, 2.0 * p_side,
                  "two-sided mass beyond r (2.58e-4)");
  expect_binomial(above, static_cast<double>(above + below), 0.5, "tail sign balance");
}

TEST(Ziggurat, SignsAreSymmetric) {
  std::size_t negative = 0, beyond_one_neg = 0, beyond_one_pos = 0;
  for (const double x : ziggurat_draws()) {
    negative += x < 0.0;
    beyond_one_neg += x < -1.0;
    beyond_one_pos += x > 1.0;
  }
  expect_binomial(negative, kZigguratDraws, 0.5, "negative draws");
  expect_binomial(beyond_one_neg, static_cast<double>(beyond_one_neg + beyond_one_pos), 0.5,
                  "|x| > 1 sign balance");
}

TEST(Distributions, LognormalMeanCvMatchesTarget) {
  Pcg32 rng(21);
  double sum = 0.0;
  constexpr int kN = 200000;
  const LognormalParams params = lognormal_params(3.0, 0.2);
  for (int i = 0; i < kN; ++i) sum += lognormal(rng, params);
  EXPECT_NEAR(sum / kN, 3.0, 0.02);
}

TEST(Distributions, LognormalZeroCvIsDeterministic) {
  Pcg32 rng(22);
  EXPECT_DOUBLE_EQ(lognormal(rng, lognormal_params(5.0, 0.0)), 5.0);
}

TEST(Distributions, LognormalNonPositiveMeanIsZero) {
  Pcg32 rng(23);
  EXPECT_DOUBLE_EQ(lognormal(rng, lognormal_params(0.0, 0.5)), 0.0);
  EXPECT_DOUBLE_EQ(lognormal(rng, lognormal_params(-1.0, 0.5)), 0.0);
}

// The mean/CV draw as it was before its parameters were split out: every
// call recomputed mu and sigma.
double unprepared_lognormal_mean_cv(Pcg32& rng, double mean, double cv) {
  if (mean <= 0.0) return 0.0;
  if (cv <= 0.0) return mean;
  const double sigma2 = std::log(1.0 + cv * cv);
  const double mu = std::log(mean) - 0.5 * sigma2;
  return lognormal(rng, mu, std::sqrt(sigma2));
}

TEST(Distributions, PreparedLognormalIsTheUnpreparedDrawBitwise) {
  std::uint64_t seed = 1;
  for (const double mean : {-1.0, 0.0, 1e-9, 0.05, 1.09, 30.0}) {
    for (const double cv : {-0.1, 0.0, 1e-6, 0.08, 0.15, 2.0}) {
      const LognormalParams params = lognormal_params(mean, cv);
      for (int draw = 0; draw < 64; ++draw, ++seed) {
        SCOPED_TRACE("mean=" + std::to_string(mean) + " cv=" + std::to_string(cv) +
                     " seed=" + std::to_string(seed));
        Pcg32 prepared(seed, 5);
        Pcg32 unprepared(seed, 5);
        const double a = lognormal(prepared, params);
        const double b = unprepared_lognormal_mean_cv(unprepared, mean, cv);
        ASSERT_EQ(std::bit_cast<std::uint64_t>(a), std::bit_cast<std::uint64_t>(b));
        ASSERT_EQ(prepared.next_u32(), unprepared.next_u32());  // same state consumed
      }
    }
  }
}

TEST(Distributions, PoissonMeanMatchesLambda) {
  Pcg32 rng(24);
  for (double lambda : {0.5, 3.0, 20.0, 100.0}) {
    double sum = 0.0;
    constexpr int kN = 20000;
    for (int i = 0; i < kN; ++i) sum += poisson(rng, lambda);
    EXPECT_NEAR(sum / kN, lambda, lambda * 0.05 + 0.05) << "lambda=" << lambda;
  }
}

TEST(Distributions, PoissonZeroLambdaIsZero) {
  Pcg32 rng(25);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(poisson(rng, 0.0), 0);
}

TEST(Distributions, PoissonNeverNegative) {
  Pcg32 rng(26);
  for (int i = 0; i < 10000; ++i) EXPECT_GE(poisson(rng, 2.5), 0);
}

TEST(Distributions, PoissonSaturatesAtIntMaxForHugeLambda) {
  // The normal branch's mean (1e12) or its NaN (inf - inf at +inf) is far
  // past int: the count saturates instead of a float-to-int overflow.
  constexpr int kMax = std::numeric_limits<int>::max();
  Pcg32 rng(30);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(poisson(rng, 1e12), kMax);
    EXPECT_EQ(poisson(rng, std::numeric_limits<double>::infinity()), kMax);
  }
  // 22 sigma below INT_MAX: an ordinary draw, not clipped.
  const int below = poisson(rng, 2147483648.0 - 1048576.0);
  EXPECT_GT(below, 0);
  EXPECT_LT(below, kMax);
}

TEST(Distributions, ParetoAtLeastScale) {
  Pcg32 rng(27);
  for (int i = 0; i < 10000; ++i) EXPECT_GE(pareto(rng, 2.0, 1.5), 2.0);
}

TEST(Distributions, ParetoHeavyTail) {
  // With alpha = 1.1 the sample max should dwarf the median.
  Pcg32 rng(28);
  std::vector<double> xs;
  for (int i = 0; i < 20000; ++i) xs.push_back(pareto(rng, 1.0, 1.1));
  std::sort(xs.begin(), xs.end());
  EXPECT_GT(xs.back() / xs[xs.size() / 2], 50.0);
}

TEST(Distributions, ExponentialPositiveAndMeanMatches) {
  Pcg32 rng(29);
  double sum = 0.0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) {
    const double x = exponential(rng, 0.5);
    EXPECT_GT(x, 0.0);
    sum += x;
  }
  EXPECT_NEAR(sum / kN, 2.0, 0.05);
}

}  // namespace
}  // namespace pulse::util
