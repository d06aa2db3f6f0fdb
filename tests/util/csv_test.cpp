#include "util/csv.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "support/temp_dir.hpp"

namespace pulse::util {
namespace {

TEST(CsvLine, ParseSimpleFields) {
  const CsvRow row = parse_csv_line("a,b,c");
  ASSERT_EQ(row.size(), 3u);
  EXPECT_EQ(row[0], "a");
  EXPECT_EQ(row[1], "b");
  EXPECT_EQ(row[2], "c");
}

TEST(CsvLine, ParseEmptyFields) {
  const CsvRow row = parse_csv_line("a,,c,");
  ASSERT_EQ(row.size(), 4u);
  EXPECT_EQ(row[1], "");
  EXPECT_EQ(row[3], "");
}

TEST(CsvLine, ParseQuotedComma) {
  const CsvRow row = parse_csv_line(R"("a,b",c)");
  ASSERT_EQ(row.size(), 2u);
  EXPECT_EQ(row[0], "a,b");
}

TEST(CsvLine, ParseEscapedQuote) {
  const CsvRow row = parse_csv_line(R"("say ""hi""",x)");
  ASSERT_EQ(row.size(), 2u);
  EXPECT_EQ(row[0], "say \"hi\"");
}

TEST(CsvLine, ToleratesCarriageReturn) {
  const CsvRow row = parse_csv_line("a,b\r");
  ASSERT_EQ(row.size(), 2u);
  EXPECT_EQ(row[1], "b");
}

// Regression: CR handling used to differ inside vs outside quotes — an
// unquoted interior CR was silently dropped while a quoted one was kept.
// Only the line-terminator CR (exactly one, at end of line) is stripped;
// every other CR is data.
TEST(CsvLine, InteriorCarriageReturnIsData) {
  const CsvRow row = parse_csv_line("a\rb,c");
  ASSERT_EQ(row.size(), 2u);
  EXPECT_EQ(row[0], "a\rb");
  EXPECT_EQ(row[1], "c");
}

TEST(CsvLine, QuotedCarriageReturnIsData) {
  const CsvRow row = parse_csv_line("\"a\rb\",c");
  ASSERT_EQ(row.size(), 2u);
  EXPECT_EQ(row[0], "a\rb");
}

TEST(CsvLine, CrlfWithTrailingEmptyField) {
  // "a,\r" is the CRLF spelling of "a," — two fields, second empty.
  const CsvRow row = parse_csv_line("a,\r");
  ASSERT_EQ(row.size(), 2u);
  EXPECT_EQ(row[0], "a");
  EXPECT_EQ(row[1], "");
}

TEST(CsvLine, OnlyOneTerminatorCrStripped) {
  const CsvRow row = parse_csv_line("a,b\r\r");
  ASSERT_EQ(row.size(), 2u);
  EXPECT_EQ(row[1], "b\r");
}

TEST(CsvLine, QuotedFieldEndingInCrBeforeTerminator) {
  // Terminator CR sits outside the closing quote; the quoted CR stays.
  const CsvRow row = parse_csv_line("\"a\r\",b\r");
  ASSERT_EQ(row.size(), 2u);
  EXPECT_EQ(row[0], "a\r");
  EXPECT_EQ(row[1], "b");
}

TEST(CsvLine, StripUtf8Bom) {
  std::string_view with_bom = "\xEF\xBB\xBF" "a,b";
  EXPECT_TRUE(strip_utf8_bom(with_bom));
  EXPECT_EQ(with_bom, "a,b");
  std::string_view plain = "a,b";
  EXPECT_FALSE(strip_utf8_bom(plain));
  EXPECT_EQ(plain, "a,b");
}

TEST(CsvLine, FormatQuotesWhenNeeded) {
  EXPECT_EQ(format_csv_line({"plain", "with,comma"}), R"(plain,"with,comma")");
  EXPECT_EQ(format_csv_line({"q\"uote"}), R"("q""uote")");
}

TEST(CsvLine, RoundTrip) {
  const CsvRow original{"a", "b,c", "d\"e", ""};
  const CsvRow parsed = parse_csv_line(format_csv_line(original));
  EXPECT_EQ(parsed, original);
}

TEST(CsvTable, HeaderLookup) {
  CsvTable t({"x", "y", "z"});
  EXPECT_EQ(t.column_index("y"), 1);
  EXPECT_EQ(t.column_index("missing"), -1);
}

TEST(CsvTable, WriteReadStream) {
  CsvTable t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"beta", "2,5"});

  std::stringstream ss;
  t.write(ss);
  const CsvTable back = CsvTable::read(ss);
  ASSERT_EQ(back.row_count(), 2u);
  EXPECT_EQ(back.header(), (CsvRow{"name", "value"}));
  EXPECT_EQ(back.rows()[1][1], "2,5");
}

TEST(CsvTable, ReadWithoutHeader) {
  std::stringstream ss("1,2\n3,4\n");
  const CsvTable t = CsvTable::read(ss, /*has_header=*/false);
  EXPECT_TRUE(t.header().empty());
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(CsvTable, SkipsBlankLines) {
  std::stringstream ss("h1,h2\n\na,b\n\n");
  const CsvTable t = CsvTable::read(ss);
  EXPECT_EQ(t.row_count(), 1u);
}

TEST(CsvTable, FileRoundTrip) {
  const testutil::TempDir dir;
  const auto path = dir.path() / "table.csv";
  CsvTable t({"k", "v"});
  t.add_row({"key", "value with \"quotes\" and ,commas,"});
  t.write_file(path);

  const CsvTable back = CsvTable::read_file(path);
  ASSERT_EQ(back.row_count(), 1u);
  EXPECT_EQ(back.rows()[0][1], "value with \"quotes\" and ,commas,");
}

TEST(CsvTable, ReadMissingFileThrows) {
  EXPECT_THROW(CsvTable::read_file("/nonexistent/path/x.csv"), std::runtime_error);
}

}  // namespace
}  // namespace pulse::util
