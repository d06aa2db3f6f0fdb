#include "util/linalg.hpp"

#include <gtest/gtest.h>

namespace pulse::util {
namespace {

TEST(Linalg, SolvesIdentity) {
  Matrix a(2, 2);
  a.at(0, 0) = 1.0;
  a.at(1, 1) = 1.0;
  const auto x = solve_linear_system(a, {3.0, -4.0});
  ASSERT_TRUE(x.has_value());
  EXPECT_DOUBLE_EQ((*x)[0], 3.0);
  EXPECT_DOUBLE_EQ((*x)[1], -4.0);
}

TEST(Linalg, SolvesKnownSystem) {
  // 2x + y = 5 ; x - y = 1  =>  x = 2, y = 1
  Matrix a(2, 2);
  a.at(0, 0) = 2.0;
  a.at(0, 1) = 1.0;
  a.at(1, 0) = 1.0;
  a.at(1, 1) = -1.0;
  const auto x = solve_linear_system(a, {5.0, 1.0});
  ASSERT_TRUE(x.has_value());
  EXPECT_NEAR((*x)[0], 2.0, 1e-12);
  EXPECT_NEAR((*x)[1], 1.0, 1e-12);
}

TEST(Linalg, RequiresPivoting) {
  // Leading zero forces a row swap.
  Matrix a(2, 2);
  a.at(0, 0) = 0.0;
  a.at(0, 1) = 1.0;
  a.at(1, 0) = 1.0;
  a.at(1, 1) = 0.0;
  const auto x = solve_linear_system(a, {2.0, 3.0});
  ASSERT_TRUE(x.has_value());
  EXPECT_NEAR((*x)[0], 3.0, 1e-12);
  EXPECT_NEAR((*x)[1], 2.0, 1e-12);
}

TEST(Linalg, SingularReturnsNullopt) {
  Matrix a(2, 2);
  a.at(0, 0) = 1.0;
  a.at(0, 1) = 2.0;
  a.at(1, 0) = 2.0;
  a.at(1, 1) = 4.0;
  EXPECT_FALSE(solve_linear_system(a, {1.0, 2.0}).has_value());
}

TEST(Linalg, DimensionMismatchThrows) {
  Matrix a(2, 3);
  EXPECT_THROW(solve_linear_system(a, {1.0, 2.0}), std::invalid_argument);
  Matrix b(2, 2);
  EXPECT_THROW(solve_linear_system(b, {1.0}), std::invalid_argument);
}

TEST(Linalg, LargerSystemRoundTrip) {
  // Build A (diagonally dominant, well conditioned) and x, check A x = b
  // solves back to x.
  constexpr std::size_t n = 6;
  Matrix a(n, n);
  std::vector<double> x_true(n);
  for (std::size_t i = 0; i < n; ++i) {
    x_true[i] = static_cast<double>(i) - 2.5;
    for (std::size_t j = 0; j < n; ++j) {
      a.at(i, j) = (i == j) ? 10.0 : 1.0 / static_cast<double>(i + j + 1);
    }
  }
  std::vector<double> b(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) b[i] += a.at(i, j) * x_true[j];
  }
  const auto x = solve_linear_system(a, b);
  ASSERT_TRUE(x.has_value());
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR((*x)[i], x_true[i], 1e-9);
}

TEST(Linalg, SolveInPlaceMatchesAllocatingSolverBitwise) {
  // Row-major copy of a pivoting system; x overwrites b.
  constexpr std::size_t n = 4;
  Matrix a(n, n);
  std::vector<double> b(n);
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = 0.3 * static_cast<double>(i) - 1.0;
    for (std::size_t j = 0; j < n; ++j) {
      a.at(i, j) = 1.0 / static_cast<double>(i + 2 * j + 1) + (i == n - 1 - j ? 2.0 : 0.0);
    }
  }
  const auto expected = solve_linear_system(a, b);
  ASSERT_TRUE(expected.has_value());
  std::vector<double> flat(a.data().begin(), a.data().end());
  ASSERT_TRUE(solve_in_place(flat, b));
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(b[i], (*expected)[i]) << "i=" << i;

  std::vector<double> singular{1.0, 2.0, 2.0, 4.0};
  std::vector<double> rhs{1.0, 2.0};
  EXPECT_FALSE(solve_in_place(singular, rhs));
  EXPECT_THROW((void)solve_in_place(singular, std::span<double>(rhs.data(), 1)),
               std::invalid_argument);
}

}  // namespace
}  // namespace pulse::util
