// Differential fuzzing of the 2021-format seconds parser: seeded random
// decimal cells, most of them mutated toward the edges of its fast path
// (signs, exponents, inf/nan, leading zeros, 16+ significant digits, stray
// bytes), are parsed both by parse_seconds and by a verbatim replica of its
// std::from_chars body. Every cell must agree on acceptance and, when
// accepted, on every bit of the value.

#include <gtest/gtest.h>

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>

#include "trace/azure_format.hpp"
#include "util/rng.hpp"

namespace pulse::trace {
namespace {

/// parse_seconds as it was before its fast path: from_chars for every cell.
std::optional<double> reference_parse_seconds(std::string_view cell) {
  if (cell.empty()) return std::nullopt;
  double value = 0.0;
  const char* begin = cell.data();
  const char* end = begin + cell.size();
  const auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  if (!std::isfinite(value) || value < 0.0) return std::nullopt;
  return value;
}

std::string describe(const std::optional<double>& value) {
  if (!value) return "rejects";
  char text[32];
  std::snprintf(text, sizeof(text), "%.17g", *value);
  return text;
}

void append_digits(std::string& cell, util::Pcg32& rng, std::uint32_t count) {
  for (std::uint32_t i = 0; i < count; ++i) {
    cell += static_cast<char>('0' + rng.bounded(10));
  }
}

/// 1-20 integer digits, then (mostly) a point and 0-20 fraction digits.
void plain_cell(std::string& cell, util::Pcg32& rng) {
  append_digits(cell, rng, 1 + rng.bounded(20));
  if (rng.bounded(4) != 0) {
    cell += '.';
    append_digits(cell, rng, rng.bounded(21));
  }
}

/// A cell shaped like the real trace: up to 7 integer digits, 0-8 fraction
/// digits, so most of these take the fast path.
void trace_like_cell(std::string& cell, util::Pcg32& rng) {
  append_digits(cell, rng, 1 + rng.bounded(7));
  const std::uint32_t frac = rng.bounded(9);
  if (frac > 0) {
    cell += '.';
    append_digits(cell, rng, frac);
  }
}

void mutate(std::string& cell, util::Pcg32& rng) {
  static constexpr const char* kSpecials[] = {
      "inf", "INF", "-inf", "+inf", "infinity", "nan", "NaN", "-nan", "nan(1)", "0x1",
      "0x1p3", "1e", "e5", ".", "-", "+", "-0", "-0.0", "1e-400", "1e400"};
  switch (rng.bounded(10)) {
    case 0:  // leading point
      cell.insert(cell.begin(), '.');
      break;
    case 1:  // trailing point
      cell += '.';
      break;
    case 2:  // sign
      cell.insert(cell.begin(), rng.bernoulli(0.5) ? '-' : '+');
      break;
    case 3: {  // exponent
      cell += rng.bernoulli(0.5) ? 'e' : 'E';
      if (rng.bernoulli(0.5)) cell += rng.bernoulli(0.5) ? '-' : '+';
      append_digits(cell, rng, 1 + rng.bounded(3));
      break;
    }
    case 4:  // inf / nan / other non-decimal spellings
      cell = kSpecials[rng.bounded(std::size(kSpecials))];
      break;
    case 5:  // leading zeros
      cell.insert(0, 1 + rng.bounded(16), '0');
      break;
    case 6: {  // 16 to 20 significant digits around the point
      cell.clear();
      cell += static_cast<char>('1' + rng.bounded(9));
      const std::uint32_t digits = 15 + rng.bounded(5);
      const std::uint32_t point = rng.bounded(digits + 1);
      for (std::uint32_t i = 0; i < digits; ++i) {
        if (i == point) cell += '.';
        cell += static_cast<char>('0' + rng.bounded(10));
      }
      break;
    }
    case 7: {  // stray byte inserted anywhere
      const std::size_t at = rng.bounded(static_cast<std::uint32_t>(cell.size() + 1));
      cell.insert(cell.begin() + static_cast<std::ptrdiff_t>(at),
                  static_cast<char>(rng.bounded(256)));
      break;
    }
    case 8: {  // one byte overwritten
      const std::size_t at = rng.bounded(static_cast<std::uint32_t>(cell.size()));
      cell[at] = static_cast<char>(rng.bounded(256));
      break;
    }
    default:  // truncated, possibly to nothing
      cell.resize(rng.bounded(static_cast<std::uint32_t>(cell.size() + 1)));
      break;
  }
}

TEST(ParseSecondsDifferential, MatchesFromCharsBitForBit) {
  constexpr std::size_t kCells = 2'000'000;
  util::Pcg32 rng(/*seed=*/2021, /*stream=*/17);
  std::string cell;
  std::size_t accepted = 0;
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < kCells; ++i) {
    cell.clear();
    if (rng.bernoulli(0.5)) {
      trace_like_cell(cell, rng);
    } else {
      plain_cell(cell, rng);
    }
    if (rng.bernoulli(0.5)) mutate(cell, rng);

    const std::optional<double> got = parse_seconds(cell);
    const std::optional<double> want = reference_parse_seconds(cell);
    bool same = got.has_value() == want.has_value();
    if (same && got) same = std::memcmp(&*got, &*want, sizeof(double)) == 0;
    if (!same) {
      if (++mismatches <= 10) {
        ADD_FAILURE() << "cell '" << cell << "': parse_seconds " << describe(got)
                      << ", from_chars " << describe(want);
      }
      continue;
    }
    if (got) ++accepted;
  }
  EXPECT_EQ(mismatches, 0u);
  // Both halves of the input mix were exercised: most cells parse, and a
  // good share of the mutations are rejected.
  EXPECT_GT(accepted, kCells / 2);
  EXPECT_LT(accepted, kCells * 9 / 10);
}

}  // namespace
}  // namespace pulse::trace
