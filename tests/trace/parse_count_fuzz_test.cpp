// Differential fuzzing of the 2019-format invocation count parser: seeded
// digit cells, most of them mutated (signs, spaces, stray bytes, empty
// cells, leading zeros, values around 2^32), are parsed both by
// parse_invocation_count and by a std::from_chars reference. Every cell
// must agree on acceptance and value.

#include <gtest/gtest.h>

#include <charconv>
#include <cstdint>
#include <iterator>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>

#include "trace/errors.hpp"
#include "util/rng.hpp"

namespace pulse::trace {
namespace {

/// The count contract written with from_chars: an empty cell is 0,
/// otherwise the whole cell must be a uint32 in plain decimal digits.
std::optional<std::uint32_t> reference_parse_count(std::string_view cell) {
  if (cell.empty()) return 0u;
  std::uint32_t value = 0;
  const char* end = cell.data() + cell.size();
  const auto [ptr, ec] = std::from_chars(cell.data(), end, value);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  return value;
}

std::string describe(const std::optional<std::uint32_t>& value) {
  return value ? std::to_string(*value) : "rejects";
}

void mutate(std::string& cell, util::Pcg32& rng) {
  static constexpr const char* kEdges[] = {
      "4294967295", "4294967296", "04294967295", "4294967294", "9999999999",
      "18446744073709551616", "0", "00", "-0", "+0", "-1", "1.0", "1e3", " 1", "1 ", ""};
  switch (rng.bounded(8)) {
    case 0:  // sign
      cell.insert(cell.begin(), rng.bernoulli(0.5) ? '-' : '+');
      break;
    case 1:  // empty cell
      cell.clear();
      break;
    case 2:  // the uint32 edge and other fixed spellings
      cell = kEdges[rng.bounded(std::size(kEdges))];
      break;
    case 3:  // leading zeros
      cell.insert(0, 1 + rng.bounded(12), '0');
      break;
    case 4: {  // space, point or stray byte inserted anywhere
      static constexpr char kStray[] = {' ', '.', '\t', '\r', 'x', '\0'};
      const std::size_t at = rng.bounded(static_cast<std::uint32_t>(cell.size() + 1));
      const char c = rng.bernoulli(0.5) ? kStray[rng.bounded(std::size(kStray))]
                                        : static_cast<char>(rng.bounded(256));
      cell.insert(cell.begin() + static_cast<std::ptrdiff_t>(at), c);
      break;
    }
    case 5: {  // one byte overwritten
      if (cell.empty()) break;
      const std::size_t at = rng.bounded(static_cast<std::uint32_t>(cell.size()));
      cell[at] = static_cast<char>(rng.bounded(256));
      break;
    }
    case 6: {  // near 2^32: 4294967295 plus or minus a little
      const std::uint64_t base = 4294967295ULL;
      const std::uint64_t value = rng.bernoulli(0.5) ? base - rng.bounded(100)
                                                     : base + rng.bounded(100);
      cell = std::to_string(value);
      break;
    }
    default:  // truncated, possibly to nothing
      cell.resize(rng.bounded(static_cast<std::uint32_t>(cell.size() + 1)));
      break;
  }
}

TEST(ParseCountDifferential, MatchesFromChars) {
  constexpr std::size_t kCells = 1'000'000;
  util::Pcg32 rng(/*seed=*/2019, /*stream=*/31);
  std::string cell;
  std::size_t accepted = 0;
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < kCells; ++i) {
    cell.clear();
    // 1-12 digits: mostly small counts, some past 2^32.
    const std::uint32_t digits = 1 + rng.bounded(rng.bernoulli(0.8) ? 4 : 12);
    for (std::uint32_t d = 0; d < digits; ++d) cell += static_cast<char>('0' + rng.bounded(10));
    if (rng.bernoulli(0.5)) mutate(cell, rng);

    const std::optional<std::uint32_t> got = parse_invocation_count(cell);
    const std::optional<std::uint32_t> want = reference_parse_count(cell);
    if (got != want) {
      if (++mismatches <= 10) {
        ADD_FAILURE() << "cell '" << cell << "': parse_invocation_count " << describe(got)
                      << ", from_chars " << describe(want);
      }
      continue;
    }
    if (got) ++accepted;
  }
  EXPECT_EQ(mismatches, 0u);
  EXPECT_GT(accepted, kCells / 2);
  EXPECT_LT(accepted, kCells * 95 / 100);
}

TEST(ParseCountDifferential, Uint32Edge) {
  EXPECT_EQ(parse_invocation_count("4294967295"), std::optional<std::uint32_t>(4294967295u));
  EXPECT_EQ(parse_invocation_count("4294967296"), std::nullopt);
  EXPECT_EQ(parse_invocation_count("000000004294967295"),
            std::optional<std::uint32_t>(4294967295u));
  EXPECT_EQ(parse_invocation_count(""), std::optional<std::uint32_t>(0u));
  EXPECT_EQ(parse_invocation_count("-0"), std::nullopt);
  EXPECT_EQ(parse_invocation_count("+1"), std::nullopt);
}

}  // namespace
}  // namespace pulse::trace
