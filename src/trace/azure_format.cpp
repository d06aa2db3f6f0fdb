#include "trace/azure_format.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>

namespace pulse::trace {

std::optional<double> parse_seconds(std::string_view cell) {
  // Clinger's fast path for the common `digits[.digits]` cell: with at most
  // 15 digits the mantissa and 10^frac are exact doubles, so one correctly
  // rounded division gives the same bits as from_chars. (Multiplying by
  // 1e-frac would round twice.)
  static constexpr double kPow10[] = {1e0, 1e1, 1e2,  1e3,  1e4,  1e5,  1e6,  1e7,
                                      1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15};
  constexpr std::size_t kMaxExactDigits = 15;
  std::uint64_t mantissa = 0;
  std::size_t i = 0;
  const auto take_digits = [&] {
    const std::size_t from = i;
    for (; i < cell.size() && cell[i] >= '0' && cell[i] <= '9'; ++i) {
      mantissa = mantissa * 10 + static_cast<std::uint64_t>(cell[i] - '0');
    }
    return i - from;
  };
  if (const std::size_t int_digits = take_digits(); int_digits > 0) {
    std::size_t frac_digits = 0;
    if (i < cell.size() && cell[i] == '.') {
      ++i;
      frac_digits = take_digits();
    }
    if (i == cell.size() && int_digits + frac_digits <= kMaxExactDigits) {
      return static_cast<double>(mantissa) / kPow10[frac_digits];
    }
  }

  if (cell.empty()) return std::nullopt;
  double value = 0.0;
  const char* begin = cell.data();
  const char* end = begin + cell.size();
  const auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  if (!std::isfinite(value) || value < 0.0) return std::nullopt;
  return value;
}

std::optional<Minute> invocation_start_minute(double end_timestamp, double duration_s,
                                              bool* clamped) {
  double start = end_timestamp - duration_s;
  if (start < 0.0) {
    // Executions already in flight at the trace epoch start slightly before
    // zero; bin them into the first minute rather than rejecting the row.
    if (clamped != nullptr) *clamped = true;
    start = 0.0;
  } else if (clamped != nullptr) {
    *clamped = false;
  }
  const double minute = start / 60.0;
  // Checked before the cast: a double beyond Minute's range converts with
  // undefined behaviour.
  if (!(minute < static_cast<double>(kMaxInvocationMinute))) return std::nullopt;
  return static_cast<Minute>(minute);
}

Trace select_top_functions(const AzureTrace& azure, std::size_t k) {
  std::vector<FunctionId> order(azure.trace.function_count());
  for (std::size_t f = 0; f < order.size(); ++f) order[f] = f;
  std::stable_sort(order.begin(), order.end(), [&](FunctionId a, FunctionId b) {
    return azure.trace.total_invocations(a) > azure.trace.total_invocations(b);
  });
  k = std::min(k, order.size());

  Trace out(k, azure.trace.duration());
  for (std::size_t i = 0; i < k; ++i) {
    const FunctionId src = order[i];
    out.set_function_name(i, azure.trace.function_name(src));
    for (Minute t = 0; t < azure.trace.duration(); ++t) {
      const std::uint32_t c = azure.trace.count(src, t);
      if (c > 0) out.add_invocations(i, t, c);
    }
  }
  return out;
}

}  // namespace pulse::trace
