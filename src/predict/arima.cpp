#include "predict/arima.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/linalg.hpp"
#include "util/stats.hpp"

namespace pulse::predict {

namespace {

/// Adds the regression row with target y[first + p], [1, y_{t-1}, ...,
/// y_{t-p}], to the row-major normal equations (X^T X, X^T y).
void accumulate_row(std::span<const double> y, std::size_t first, std::size_t p,
                    std::span<double> row, std::span<double> xtx, std::span<double> xty) {
  const std::size_t cols = p + 1;
  row[0] = 1.0;
  for (std::size_t lag = 1; lag <= p; ++lag) row[lag] = y[first + p - lag];
  const double target = y[first + p];
  for (std::size_t a = 0; a < cols; ++a) {
    xty[a] += row[a] * target;
    for (std::size_t b = 0; b < cols; ++b) xtx[a * cols + b] += row[a] * row[b];
  }
}

/// Solves (X^T X + ridge I) beta = X^T y in place (xty becomes beta). The
/// tiny ridge keeps near-constant series solvable; non-finite coefficients
/// (NaN input, catastrophic cancellation) would poison every forecast, so
/// they fail like a singular system.
bool solve_normal_equations(std::span<double> xtx, std::span<double> xty) {
  const std::size_t cols = xty.size();
  for (std::size_t a = 0; a < cols; ++a) xtx[a * cols + a] += 1e-9;
  if (!util::solve_in_place(xtx, xty)) return false;
  return std::all_of(xty.begin(), xty.end(), [](double b) { return std::isfinite(b); });
}

}  // namespace

ArModel::ArModel(std::size_t order, std::size_t difference)
    : order_(order), difference_(difference) {
  if (order_ == 0) throw std::invalid_argument("ArModel: order must be >= 1");
  if (difference_ > 1) throw std::invalid_argument("ArModel: difference must be 0 or 1");
  const std::size_t cols = order_ + 1;
  coeffs_.reserve(order_);
  tail_.reserve(order_);
  xtx_.resize(cols * cols);
  beta_.resize(cols);
  row_.resize(cols);
}

bool ArModel::fit(std::span<const double> series) {
  fitted_ = false;
  fallback_mean_ = util::mean(series);
  if (series.empty()) return false;
  last_level_ = series.back();

  // Apply differencing.
  std::span<const double> y = series;
  if (difference_ == 1) {
    if (series.size() < 2) return false;
    diff_.resize(series.size() - 1);
    for (std::size_t i = 1; i < series.size(); ++i) diff_[i - 1] = series[i] - series[i - 1];
    y = diff_;
  }

  const std::size_t p = order_;
  if (y.size() < p + 2) return false;

  std::fill(xtx_.begin(), xtx_.end(), 0.0);
  std::fill(beta_.begin(), beta_.end(), 0.0);  // X^T y, solved in place
  for (std::size_t first = 0; first + p < y.size(); ++first) {
    accumulate_row(y, first, p, row_, xtx_, beta_);
  }
  if (!solve_normal_equations(xtx_, beta_)) return false;

  intercept_ = beta_[0];
  coeffs_.assign(beta_.begin() + 1, beta_.end());
  tail_.assign(y.end() - static_cast<std::ptrdiff_t>(p), y.end());
  fitted_ = true;
  return true;
}

double ArModel::forecast_one() const {
  if (!fitted_) return fallback_mean_;
  double next = intercept_;
  for (std::size_t lag = 1; lag <= order_; ++lag) {
    next += coeffs_[lag - 1] * tail_[tail_.size() - lag];
  }
  return difference_ == 1 ? last_level_ + next : next;
}

std::vector<double> ArModel::forecast(std::size_t steps) const {
  std::vector<double> out;
  out.reserve(steps);
  if (!fitted_) {
    out.assign(steps, fallback_mean_);
    return out;
  }

  std::vector<double> window = tail_;  // most recent last
  double level = last_level_;
  for (std::size_t s = 0; s < steps; ++s) {
    double next = intercept_;
    for (std::size_t lag = 1; lag <= order_; ++lag) {
      next += coeffs_[lag - 1] * window[window.size() - lag];
    }
    window.erase(window.begin());
    window.push_back(next);
    if (difference_ == 1) {
      level += next;
      out.push_back(level);
    } else {
      out.push_back(next);
    }
  }
  return out;
}

}  // namespace pulse::predict
