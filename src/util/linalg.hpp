#pragma once
// Small dense linear algebra: just enough to fit AR models by least squares
// (normal equations) inside the Wild predictor.

#include <optional>
#include <span>
#include <vector>

namespace pulse::util {

/// Row-major dense matrix, sized at construction.
class Matrix {
 public:
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }

  [[nodiscard]] double& at(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  [[nodiscard]] double at(std::size_t r, std::size_t c) const { return data_[r * cols_ + c]; }
  [[nodiscard]] std::span<double> data() noexcept { return data_; }

 private:
  std::size_t rows_;
  std::size_t cols_;
  std::vector<double> data_;
};

/// Solves A x = b by Gaussian elimination with partial pivoting.
/// Returns nullopt when A is (numerically) singular. A is n x n, b length n.
[[nodiscard]] std::optional<std::vector<double>> solve_linear_system(Matrix a,
                                                                     std::vector<double> b);

/// The same elimination, allocation-free: `a` is row-major n x n (n =
/// b.size()) and is destroyed; x overwrites b. Returns false when A is
/// (numerically) singular.
[[nodiscard]] bool solve_in_place(std::span<double> a, std::span<double> b);

}  // namespace pulse::util
