#include "util/linalg.hpp"

#include <cmath>
#include <stdexcept>

namespace pulse::util {

std::optional<std::vector<double>> solve_linear_system(Matrix a, std::vector<double> b) {
  if (a.rows() != a.cols() || b.size() != a.rows()) {
    throw std::invalid_argument("solve_linear_system: dimension mismatch");
  }
  if (!solve_in_place(a.data(), b)) return std::nullopt;
  return b;
}

bool solve_in_place(std::span<double> a, std::span<double> b) {
  const std::size_t n = b.size();
  if (a.size() != n * n) throw std::invalid_argument("solve_in_place: dimension mismatch");
  const auto at = [&](std::size_t r, std::size_t c) -> double& { return a[r * n + c]; };

  for (std::size_t col = 0; col < n; ++col) {
    // Partial pivoting.
    std::size_t pivot = col;
    double best = std::fabs(at(col, col));
    for (std::size_t r = col + 1; r < n; ++r) {
      const double v = std::fabs(at(r, col));
      if (v > best) {
        best = v;
        pivot = r;
      }
    }
    if (best < 1e-12) return false;
    if (pivot != col) {
      for (std::size_t c = 0; c < n; ++c) std::swap(at(col, c), at(pivot, c));
      std::swap(b[col], b[pivot]);
    }

    for (std::size_t r = col + 1; r < n; ++r) {
      const double factor = at(r, col) / at(col, col);
      if (factor == 0.0) continue;
      for (std::size_t c = col; c < n; ++c) at(r, c) -= factor * at(col, c);
      b[r] -= factor * b[col];
    }
  }

  // Back substitution: b[c] for c > ri already holds x[c].
  for (std::size_t ri = n; ri-- > 0;) {
    double s = b[ri];
    for (std::size_t c = ri + 1; c < n; ++c) s -= at(ri, c) * b[c];
    b[ri] = s / at(ri, ri);
  }
  return true;
}

}  // namespace pulse::util
