// Seeded fuzzing of the CSV line codec. Random rows whose fields mix
// commas, quotes, carriage returns and spaces must survive
// format_csv_line -> parse_csv_line unchanged, and any byte string must
// parse to fields that round-trip the same way.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "util/csv.hpp"
#include "util/rng.hpp"

namespace pulse::util {
namespace {

// The bytes the codec treats specially, plus plain text.
constexpr char kAlphabet[] = {',', '"', '\r', ' ', 'a', 'b', '0', '9', '\t', ';'};

std::string random_field(Pcg32& rng) {
  std::string field;
  const std::uint32_t length = rng.bounded(4) == 0 ? 0 : rng.bounded(12);
  for (std::uint32_t i = 0; i < length; ++i) {
    field += kAlphabet[rng.bounded(sizeof(kAlphabet))];
  }
  return field;
}

std::string printable(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '\r') {
      out += "\\r";
    } else {
      out += c;
    }
  }
  return out;
}

class CsvFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CsvFuzz, FormatThenParseRoundTrips) {
  Pcg32 rng(GetParam(), 0xc5f);
  for (int trial = 0; trial < 20000; ++trial) {
    CsvRow row(1 + rng.bounded(6));
    for (std::string& field : row) field = random_field(rng);
    const std::string line = format_csv_line(row);
    ASSERT_EQ(parse_csv_line(line), row) << "line '" << printable(line) << "'";
    // A CRLF terminator left on the line by a '\n' splitter is dropped.
    ASSERT_EQ(parse_csv_line(line + '\r'), row) << "line '" << printable(line) << "\\r'";
  }
}

TEST_P(CsvFuzz, ParsedBytesRoundTrip) {
  // Arbitrary lines (unbalanced quotes included) parse without failing, and
  // what they parse to is a fixed point of format -> parse.
  Pcg32 rng(GetParam(), 0xb17e5);
  for (int trial = 0; trial < 20000; ++trial) {
    std::string line;
    const std::uint32_t length = rng.bounded(24);
    for (std::uint32_t i = 0; i < length; ++i) line += kAlphabet[rng.bounded(sizeof(kAlphabet))];
    const CsvRow fields = parse_csv_line(line);
    ASSERT_FALSE(fields.empty());
    ASSERT_EQ(parse_csv_line(format_csv_line(fields)), fields)
        << "line '" << printable(line) << "'";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CsvFuzz, ::testing::Values(3u, 19u, 2024u));

}  // namespace
}  // namespace pulse::util
