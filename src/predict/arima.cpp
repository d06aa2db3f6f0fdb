#include "predict/arima.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/linalg.hpp"
#include "util/stats.hpp"

namespace pulse::predict {

namespace {

/// Adds sign * the regression row with target y[first + p], [1, y_{t-1},
/// ..., y_{t-p}], to the row-major normal equations (X^T X, X^T y).
template <typename Series>
void accumulate_row(const Series& y, std::size_t first, std::size_t p, double sign,
                    std::span<double> row, std::span<double> xtx, std::span<double> xty) {
  const std::size_t cols = p + 1;
  row[0] = 1.0;
  for (std::size_t lag = 1; lag <= p; ++lag) row[lag] = y[first + p - lag];
  const double target = y[first + p];
  for (std::size_t a = 0; a < cols; ++a) {
    xty[a] += sign * row[a] * target;
    for (std::size_t b = 0; b < cols; ++b) xtx[a * cols + b] += sign * row[a] * row[b];
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
}

bool ArModel::fit(std::span<const double> series) {
  fitted_ = false;
  fallback_mean_ = util::mean(series);
  if (series.empty()) return false;
  last_level_ = series.back();

  // Apply differencing.
  std::vector<double> y;
  if (difference_ == 1) {
    if (series.size() < 2) return false;
    y.reserve(series.size() - 1);
    for (std::size_t i = 1; i < series.size(); ++i) y.push_back(series[i] - series[i - 1]);
  } else {
    y.assign(series.begin(), series.end());
  }

  const std::size_t p = order_;
  if (y.size() < p + 2) return false;

  const std::size_t cols = p + 1;
  std::vector<double> xtx(cols * cols, 0.0);
  std::vector<double> beta(cols, 0.0);  // X^T y, solved in place
  std::vector<double> row(cols);
  for (std::size_t first = 0; first + p < y.size(); ++first) {
    accumulate_row(y, first, p, 1.0, row, xtx, beta);
  }
  if (!solve_normal_equations(xtx, beta)) return false;

  intercept_ = beta[0];
  coeffs_.assign(beta.begin() + 1, beta.end());
  tail_.assign(y.end() - static_cast<std::ptrdiff_t>(p), y.end());
  fitted_ = true;
  return true;
}

void ArModel::stream_begin(std::size_t window, std::size_t refresh_interval) {
  if (difference_ != 0) {
    throw std::invalid_argument("ArModel::stream_begin: streaming requires difference == 0");
  }
  if (window < order_ + 2) {
    throw std::invalid_argument("ArModel::stream_begin: window must be >= order + 2");
  }
  streaming_ = true;
  stream_window_ = window;
  refresh_interval_ = refresh_interval == 0 ? window * 4 : refresh_interval;
  since_refresh_ = 0;
  ring_.clear();
  ring_.reserve(window);
  running_sum_ = 0.0;
  const std::size_t cols = order_ + 1;
  acc_xtx_.assign(cols * cols, 0.0);
  acc_xty_.assign(cols, 0.0);
  row_scratch_.assign(cols, 0.0);
  solve_a_.assign(cols * cols, 0.0);
  solve_b_.assign(cols, 0.0);
  coeffs_.assign(order_, 0.0);
  tail_.assign(order_, 0.0);
  fitted_ = false;
  intercept_ = 0.0;
  fallback_mean_ = 0.0;
  last_level_ = 0.0;
}

void ArModel::stream_rebuild() {
  std::fill(acc_xtx_.begin(), acc_xtx_.end(), 0.0);
  std::fill(acc_xty_.begin(), acc_xty_.end(), 0.0);
  running_sum_ = 0.0;
  for (std::size_t i = 0; i < ring_.size(); ++i) running_sum_ += ring_[i];
  for (std::size_t first = 0; first + order_ < ring_.size(); ++first) {
    accumulate_row(ring_, first, order_, 1.0, row_scratch_, acc_xtx_, acc_xty_);
  }
  since_refresh_ = 0;
}

void ArModel::stream_observe(double x) {
  if (!streaming_) throw std::logic_error("ArModel::stream_observe: call stream_begin first");
  if (ring_.size() == stream_window_) {
    // The departing front element retires the oldest regression row.
    accumulate_row(ring_, 0, order_, -1.0, row_scratch_, acc_xtx_, acc_xty_);
    running_sum_ -= ring_.front();
    ring_.pop_front();
  }
  ring_.push_back(x);
  running_sum_ += x;
  // The arrival creates one new row (once p lags exist for it).
  if (ring_.size() > order_) {
    accumulate_row(ring_, ring_.size() - 1 - order_, order_, 1.0, row_scratch_, acc_xtx_, acc_xty_);
  }
  if (++since_refresh_ >= refresh_interval_) stream_rebuild();
}

bool ArModel::stream_fit() {
  if (!streaming_) throw std::logic_error("ArModel::stream_fit: call stream_begin first");
  fitted_ = false;
  const std::size_t n = ring_.size();
  fallback_mean_ = n == 0 ? 0.0 : running_sum_ / static_cast<double>(n);
  if (n == 0) return false;
  last_level_ = ring_.back();
  const std::size_t p = order_;
  if (n < p + 2) return false;

  // Solve on scratch copies of the accumulators (the accumulators
  // themselves must survive for the next incremental update).
  std::copy(acc_xtx_.begin(), acc_xtx_.end(), solve_a_.begin());
  std::copy(acc_xty_.begin(), acc_xty_.end(), solve_b_.begin());
  if (!solve_normal_equations(solve_a_, solve_b_)) return false;

  intercept_ = solve_b_[0];
  for (std::size_t lag = 0; lag < p; ++lag) coeffs_[lag] = solve_b_[lag + 1];
  for (std::size_t i = 0; i < p; ++i) tail_[i] = ring_[n - p + i];
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
