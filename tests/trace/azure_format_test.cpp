#include "trace/azure_format.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "support/temp_dir.hpp"
#include "trace/azure_batch_loaders.hpp"
#include "trace/workload.hpp"

namespace pulse::trace {
namespace {

class AzureFormatTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = testutil::unique_test_dir();
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// Writes a minimal day file with given function rows; each row is
  /// (owner, app, fn, minute -> count map).
  std::filesystem::path write_day(
      const std::string& name,
      const std::vector<std::pair<std::string, std::map<Minute, std::uint32_t>>>& fns,
      bool with_header = true) {
    const auto path = dir_ / name;
    std::ofstream os(path);
    if (with_header) {
      os << "HashOwner,HashApp,HashFunction,Trigger";
      for (Minute m = 1; m <= kMinutesPerDay; ++m) os << ',' << m;
      os << '\n';
    }
    for (const auto& [fn, counts] : fns) {
      os << "o1,a1," << fn << ",http";
      for (Minute m = 0; m < kMinutesPerDay; ++m) {
        const auto it = counts.find(m);
        os << ',' << (it == counts.end() ? 0u : it->second);
      }
      os << '\n';
    }
    return path;
  }

  /// The loaded trace; a load error fails the test with its message.
  static AzureTrace loaded(TraceResult<AzureTrace> result) {
    if (!result) {
      ADD_FAILURE() << result.error().to_string();
      return {};
    }
    return std::move(result.value());
  }

  std::filesystem::path dir_;
};

TEST_F(AzureFormatTest, LoadSingleDay) {
  const auto path = write_day("day1.csv", {{"f1", {{0, 3}, {100, 1}}}, {"f2", {{5, 2}}}});
  const AzureTrace azure = loaded(try_load_azure_day_csv(path));
  ASSERT_EQ(azure.functions.size(), 2u);
  EXPECT_EQ(azure.functions[0].function, "f1");
  EXPECT_EQ(azure.trace.duration(), kMinutesPerDay);
  EXPECT_EQ(azure.trace.count(0, 0), 3u);
  EXPECT_EQ(azure.trace.count(0, 100), 1u);
  EXPECT_EQ(azure.trace.count(1, 5), 2u);
  EXPECT_EQ(azure.trace.function_name(0), "o1/a1/f1");
}

TEST_F(AzureFormatTest, LoadWithoutHeader) {
  const auto path = write_day("nohdr.csv", {{"f1", {{7, 4}}}}, /*with_header=*/false);
  const AzureTrace azure = loaded(try_load_azure_day_csv(path));
  EXPECT_EQ(azure.trace.count(0, 7), 4u);
}

TEST_F(AzureFormatTest, MultiDayConcatenation) {
  const auto day1 = write_day("d1.csv", {{"f1", {{10, 1}}}, {"f2", {{20, 2}}}});
  const auto day2 = write_day("d2.csv", {{"f2", {{30, 3}}}, {"f3", {{40, 4}}}});
  const AzureTrace azure = loaded(try_load_azure_days({day1, day2}));

  ASSERT_EQ(azure.functions.size(), 3u);  // union of f1, f2, f3
  EXPECT_EQ(azure.trace.duration(), 2 * kMinutesPerDay);
  EXPECT_EQ(azure.trace.count(0, 10), 1u);                       // f1 day 1
  EXPECT_EQ(azure.trace.count(1, kMinutesPerDay + 30), 3u);      // f2 day 2
  EXPECT_EQ(azure.trace.count(2, kMinutesPerDay + 40), 4u);      // f3 day 2
  EXPECT_EQ(azure.trace.count(0, kMinutesPerDay + 10), 0u);      // f1 absent day 2
}

// Regression: a UTF-8 BOM in front of the header defeated the "HashOwner"
// check, and since the header row has exactly 4 + 1440 fields whose minute
// cells are the integers 1..1440, it was silently ingested as a bogus
// function with counts 1..1440.
TEST_F(AzureFormatTest, StripsUtf8BomBeforeHeader) {
  const auto plain = write_day("plain.csv", {{"f1", {{0, 3}}}});
  const auto path = dir_ / "bom.csv";
  {
    std::ifstream in(plain, std::ios::binary);
    std::ofstream out(path, std::ios::binary);
    out << "\xEF\xBB\xBF" << in.rdbuf();
  }
  const AzureTrace azure = loaded(try_load_azure_day_csv(path));
  ASSERT_EQ(azure.functions.size(), 1u);
  EXPECT_EQ(azure.functions[0].function, "f1");
  EXPECT_EQ(azure.trace.count(0, 0), 3u);
  EXPECT_EQ(azure.trace.total_invocations(0), 3u);
}

// Regression: duplicate (owner, app, function) rows within one file were
// silently double-added. The default policy now still sums (identical
// totals) but reports the merge; the strict policy rejects the file.
TEST_F(AzureFormatTest, DuplicateRowsSumAndAreCounted) {
  const auto path =
      write_day("dup.csv", {{"f1", {{0, 2}}}, {"f1", {{0, 3}, {5, 1}}}, {"f2", {{9, 9}}}});
  const AzureTrace azure = loaded(try_load_azure_day_csv(path));
  ASSERT_EQ(azure.functions.size(), 2u);
  EXPECT_EQ(azure.trace.count(0, 0), 5u);
  EXPECT_EQ(azure.trace.count(0, 5), 1u);
  EXPECT_EQ(azure.trace.count(1, 9), 9u);
  EXPECT_EQ(azure.duplicate_rows, 1u);
}

TEST_F(AzureFormatTest, DuplicateRowsErrorUnderStrictPolicy) {
  const auto path = write_day("dup.csv", {{"f1", {{0, 2}}}, {"f1", {{0, 3}}}});
  AzureLoadOptions options;
  options.duplicates = DuplicatePolicy::kError;
  const auto result = try_load_azure_day_csv(path, options);
  ASSERT_FALSE(result.has_value());
  EXPECT_EQ(result.error().kind, TraceErrorKind::kDuplicateRow);
  EXPECT_EQ(result.error().line, 3u);  // header, first row, duplicate
}

TEST_F(AzureFormatTest, SameFunctionAcrossDaysIsNotADuplicate) {
  const auto d1 = write_day("d1.csv", {{"f1", {{1, 1}}}});
  const auto d2 = write_day("d2.csv", {{"f1", {{2, 2}}}});
  const AzureTrace azure = loaded(try_load_azure_days({d1, d2}));
  EXPECT_EQ(azure.duplicate_rows, 0u);
  EXPECT_EQ(azure.trace.count(0, 1), 1u);
  EXPECT_EQ(azure.trace.count(0, kMinutesPerDay + 2), 2u);
}

TEST_F(AzureFormatTest, MalformedWidthIsMalformedRow) {
  const auto path = dir_ / "bad.csv";
  std::ofstream(path) << "o,a,f,http,1,2,3\n";
  const auto result = try_load_azure_day_csv(path);
  ASSERT_FALSE(result.has_value());
  EXPECT_EQ(result.error().kind, TraceErrorKind::kMalformedRow);
}

TEST_F(AzureFormatTest, MalformedCountIsBadCount) {
  const auto path = dir_ / "badcount.csv";
  std::ofstream os(path);
  os << "o,a,f,http";
  for (Minute m = 1; m <= kMinutesPerDay; ++m) os << (m == 3 ? ",xyz" : ",0");
  os << '\n';
  os.close();
  const auto result = try_load_azure_day_csv(path);
  ASSERT_FALSE(result.has_value());
  EXPECT_EQ(result.error().kind, TraceErrorKind::kBadCount);
}

TEST_F(AzureFormatTest, MissingFileAndEmptyListAreIoErrors) {
  const auto missing = try_load_azure_day_csv(dir_ / "nope.csv");
  ASSERT_FALSE(missing.has_value());
  EXPECT_EQ(missing.error().kind, TraceErrorKind::kIo);
  const auto none = try_load_azure_days({});
  ASSERT_FALSE(none.has_value());
  EXPECT_EQ(none.error().kind, TraceErrorKind::kIo);
}

TEST_F(AzureFormatTest, SelectTopFunctions) {
  const auto path = write_day(
      "top.csv", {{"cold", {{1, 1}}}, {"hot", {{1, 50}, {2, 50}}}, {"warm", {{1, 5}}}});
  const AzureTrace azure = loaded(try_load_azure_day_csv(path));
  const Trace top2 = select_top_functions(azure, 2);
  ASSERT_EQ(top2.function_count(), 2u);
  EXPECT_EQ(top2.function_name(0), "o1/a1/hot");
  EXPECT_EQ(top2.function_name(1), "o1/a1/warm");
  EXPECT_EQ(top2.total_invocations(0), 100u);
}

TEST_F(AzureFormatTest, SelectMoreThanAvailableClamps) {
  const auto path = write_day("few.csv", {{"f1", {{1, 1}}}});
  const AzureTrace azure = loaded(try_load_azure_day_csv(path));
  EXPECT_EQ(select_top_functions(azure, 10).function_count(), 1u);
}

TEST_F(AzureFormatTest, ExportRoundTrip) {
  // Generate a workload, export it in Azure format, reload, and compare.
  WorkloadConfig config;
  config.function_count = 3;
  config.duration = 2 * kMinutesPerDay;
  const Workload workload = build_azure_like_workload(config);

  const auto out_dir = dir_ / "export";
  save_azure_day_csvs(workload.trace, out_dir);
  const AzureTrace back = loaded(try_load_azure_days(
      {out_dir / "invocations_day_1.csv", out_dir / "invocations_day_2.csv"}));

  ASSERT_EQ(back.trace.function_count(), 3u);
  ASSERT_EQ(back.trace.duration(), workload.trace.duration());
  for (FunctionId f = 0; f < 3; ++f) {
    for (Minute t = 0; t < workload.trace.duration(); ++t) {
      ASSERT_EQ(back.trace.count(f, t), workload.trace.count(f, t))
          << "f=" << f << " t=" << t;
    }
  }
}

// Regression: exporting a horizon that is not a multiple of 1440 minutes
// used to lean on count()'s out-of-range clamp for the final partial day,
// and qualified function names were re-wrapped under placeholder
// owner/app columns on reload ("owner/app/o1/a1/f1"). The partial tail is
// now explicit zeros and qualified names round-trip exactly.
TEST_F(AzureFormatTest, ExportRoundTripPartialDay) {
  Trace tr(2, kMinutesPerDay + 30);
  tr.set_function_name(0, "o1/a1/f1");
  tr.set_function_name(1, "solo");
  tr.set_count(0, 10, 4);
  tr.set_count(0, kMinutesPerDay + 29, 7);  // last minute inside the horizon
  tr.set_count(1, 100, 2);

  const auto out_dir = dir_ / "partial";
  save_azure_day_csvs(tr, out_dir);
  const AzureTrace back = loaded(try_load_azure_days(
      {out_dir / "invocations_day_1.csv", out_dir / "invocations_day_2.csv"}));

  ASSERT_EQ(back.trace.function_count(), 2u);
  EXPECT_EQ(back.trace.duration(), 2 * kMinutesPerDay);
  EXPECT_EQ(back.trace.count(0, 10), 4u);
  EXPECT_EQ(back.trace.count(0, kMinutesPerDay + 29), 7u);
  EXPECT_EQ(back.trace.count(1, 100), 2u);
  for (Minute t = kMinutesPerDay + 30; t < 2 * kMinutesPerDay; ++t) {
    ASSERT_EQ(back.trace.count(0, t), 0u) << "t=" << t;
    ASSERT_EQ(back.trace.count(1, t), 0u) << "t=" << t;
  }
  EXPECT_EQ(back.trace.function_name(0), "o1/a1/f1");
  EXPECT_EQ(back.trace.function_name(1), "owner/app/solo");
  EXPECT_EQ(back.trace.total_invocations(), tr.total_invocations());
}

TEST_F(AzureFormatTest, ExportTwoPartNameUsesPlaceholderOwner) {
  // A 2021-form "app/function" name used to export with an empty HashOwner
  // cell, which the loaders now reject; it gets the placeholder owner.
  Trace tr(1, kMinutesPerDay);
  tr.set_function_name(0, "a1/f1");
  tr.set_count(0, 5, 3);
  const auto out_dir = dir_ / "two_part";
  save_azure_day_csvs(tr, out_dir);
  const AzureTrace back = loaded(try_load_azure_day_csv(out_dir / "invocations_day_1.csv"));
  ASSERT_EQ(back.trace.function_count(), 1u);
  EXPECT_EQ(back.trace.function_name(0), "owner/a1/f1");
  EXPECT_EQ(back.trace.count(0, 5), 3u);
}

TEST_F(AzureFormatTest, LoadInvocations2021) {
  const auto path = dir_ / "inv.csv";
  std::ofstream(path) << "app,func,end_timestamp,duration\n"
                         "a1,f1,65.0,10.0\n"    // starts at 55 s -> minute 0
                         "a1,f1,130.0,5.0\n"    // starts at 125 s -> minute 2
                         "a2,g,30.0,45.0\n"     // starts before the epoch -> minute 0
                         "a1,f1,90000.0,10.0\n";  // day 2, forces a 2-day horizon
  const auto result = try_load_azure_invocations(path);
  ASSERT_TRUE(result.has_value());
  const AzureTrace& azure = result.value();
  ASSERT_EQ(azure.functions.size(), 2u);
  EXPECT_EQ(azure.trace.function_name(0), "a1/f1");
  EXPECT_EQ(azure.trace.function_name(1), "a2/g");
  EXPECT_EQ(azure.trace.duration(), 2 * kMinutesPerDay);
  EXPECT_EQ(azure.trace.count(0, 0), 1u);
  EXPECT_EQ(azure.trace.count(0, 2), 1u);
  EXPECT_EQ(azure.trace.count(1, 0), 1u);
  EXPECT_EQ(azure.trace.count(0, 89990 / 60), 1u);
}

TEST_F(AzureFormatTest, Invocations2021BadCellsAreErrors) {
  const auto path = dir_ / "bad.csv";
  std::ofstream(path) << "app,func,end_timestamp,duration\n"
                         "a,f,nan,1\n";
  const auto result = try_load_azure_invocations(path);
  ASSERT_FALSE(result.has_value());
  EXPECT_EQ(result.error().kind, TraceErrorKind::kBadTimestamp);
  EXPECT_EQ(result.error().line, 2u);
}

TEST_F(AzureFormatTest, ParseSecondsIsStrict) {
  EXPECT_EQ(parse_seconds("12.5"), 12.5);
  EXPECT_EQ(parse_seconds("0"), 0.0);
  EXPECT_FALSE(parse_seconds("").has_value());
  EXPECT_FALSE(parse_seconds("12.5x").has_value());
  EXPECT_FALSE(parse_seconds("nan").has_value());
  EXPECT_FALSE(parse_seconds("inf").has_value());
  EXPECT_FALSE(parse_seconds("-1").has_value());
}

}  // namespace
}  // namespace pulse::trace
