#include "trace/azure_stream.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "support/temp_dir.hpp"
#include "trace/azure_batch_loaders.hpp"
#include "trace/azure_format.hpp"
#include "util/rng.hpp"

namespace pulse::trace {
namespace {

class AzureStreamTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = testutil::unique_test_dir();
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path write(const std::string& name, const std::string& content) {
    const auto path = dir_ / name;
    std::ofstream os(path, std::ios::binary);
    os << content;
    return path;
  }

  /// Day file with `rows` of (owner, app, fn, {minute: count}).
  std::filesystem::path write_day(
      const std::string& name,
      const std::vector<std::tuple<std::string, std::string, std::string,
                                   std::map<Minute, std::uint32_t>>>& rows,
      bool with_header = true, bool with_bom = false) {
    const auto path = dir_ / name;
    std::ofstream os(path, std::ios::binary);
    if (with_bom) os << "\xEF\xBB\xBF";
    if (with_header) {
      os << "HashOwner,HashApp,HashFunction,Trigger";
      for (Minute m = 1; m <= kMinutesPerDay; ++m) os << ',' << m;
      os << '\n';
    }
    for (const auto& [owner, app, fn, counts] : rows) {
      os << owner << ',' << app << ',' << fn << ",http";
      for (Minute m = 0; m < kMinutesPerDay; ++m) {
        const auto it = counts.find(m);
        os << ',' << (it == counts.end() ? 0u : it->second);
      }
      os << '\n';
    }
    return path;
  }

  /// `count` 2021 invocation rows (newline-terminated, no header) over
  /// `apps` x 5 functions, shuffled in time across three days; about one in
  /// fifty starts before the epoch.
  static std::vector<std::string> shuffled_2021_rows(std::size_t count, std::uint32_t apps,
                                                     std::uint64_t seed) {
    util::Pcg32 rng(seed, /*stream=*/7);
    std::vector<std::string> rows;
    char row[96];
    for (std::size_t i = 0; i < count; ++i) {
      const std::uint32_t app = rng.bounded(apps);
      const std::uint32_t func = rng.bounded(5);
      const double duration = rng.uniform(0.05, 300.0);
      const double start = rng.bernoulli(0.02) ? -rng.uniform(0.0, duration)
                                               : rng.uniform(0.0, 3 * 86400.0);
      std::snprintf(row, sizeof(row), "a%u,f%u,%.3f,%.3f\n", app, func, start + duration,
                    duration);
      rows.emplace_back(row);
    }
    return rows;
  }

  static void expect_equal(const AzureTrace& streamed, const AzureTrace& batch) {
    EXPECT_TRUE(streamed.trace == batch.trace);
    EXPECT_EQ(streamed.functions.size(), batch.functions.size());
    EXPECT_TRUE(streamed.functions == batch.functions);
    EXPECT_EQ(streamed.duplicate_rows, batch.duplicate_rows);
  }

  std::filesystem::path dir_;
};

TEST_F(AzureStreamTest, ParseTraceFormatNames) {
  EXPECT_EQ(parse_trace_format("azure2019"), TraceFormat::kAzure2019Day);
  EXPECT_EQ(parse_trace_format("2019"), TraceFormat::kAzure2019Day);
  EXPECT_EQ(parse_trace_format("azure2021"), TraceFormat::kAzure2021Invocations);
  EXPECT_EQ(parse_trace_format("2021"), TraceFormat::kAzure2021Invocations);
  EXPECT_EQ(parse_trace_format("auto"), TraceFormat::kUnknown);
  EXPECT_EQ(parse_trace_format(""), TraceFormat::kUnknown);
  EXPECT_EQ(to_string(TraceFormat::kAzure2019Day), "azure2019");
  EXPECT_EQ(to_string(TraceFormat::kAzure2021Invocations), "azure2021");
}

TEST_F(AzureStreamTest, DetectsFormats) {
  const auto day = write_day("day.csv", {{"o", "a", "f", {{0, 1}}}});
  const auto day_bom = write_day("day_bom.csv", {{"o", "a", "f", {{0, 1}}}},
                                 /*with_header=*/true, /*with_bom=*/true);
  const auto day_nohdr = write_day("day_nohdr.csv", {{"o", "a", "f", {{0, 1}}}},
                                   /*with_header=*/false);
  const auto inv = write("inv.csv", "app,func,end_timestamp,duration\na,f,60,1\n");
  EXPECT_EQ(detect_trace_format(day).value(), TraceFormat::kAzure2019Day);
  EXPECT_EQ(detect_trace_format(day_bom).value(), TraceFormat::kAzure2019Day);
  EXPECT_EQ(detect_trace_format(day_nohdr).value(), TraceFormat::kAzure2019Day);
  EXPECT_EQ(detect_trace_format(inv).value(), TraceFormat::kAzure2021Invocations);

  const auto junk = write("junk.csv", "x,y,z\n");
  const auto undetectable = detect_trace_format(junk);
  ASSERT_FALSE(undetectable.has_value());
  EXPECT_EQ(undetectable.error().kind, TraceErrorKind::kBadHeader);

  const auto empty = write("empty.csv", "");
  EXPECT_FALSE(detect_trace_format(empty).has_value());
}

TEST_F(AzureStreamTest, Streams2019EqualToBatch) {
  const auto d1 = write_day("d1.csv", {{"o1", "a1", "f1", {{0, 3}, {100, 1}}},
                                       {"o1", "a1", "f2", {{5, 2}}}});
  const auto d2 = write_day("d2.csv", {{"o1", "a1", "f2", {{30, 3}}},
                                       {"o2", "a2", "g", {{40, 4}}}},
                            /*with_header=*/false);
  const std::vector<std::filesystem::path> paths{d1, d2};

  StreamLoadStats stats;
  auto streamed = stream_load_azure(paths, {}, &stats);
  ASSERT_TRUE(streamed.has_value());
  auto batch = try_load_azure_days(paths);
  ASSERT_TRUE(batch.has_value());
  expect_equal(streamed.value(), batch.value());

  EXPECT_EQ(stats.format, TraceFormat::kAzure2019Day);
  EXPECT_EQ(stats.files, 2u);
  EXPECT_EQ(stats.data_rows, 4u);
  EXPECT_EQ(stats.invocations, 13u);
  EXPECT_GT(stats.bytes, 0u);
  EXPECT_GT(stats.max_line_bytes, static_cast<std::size_t>(2 * kMinutesPerDay));
}

TEST_F(AzureStreamTest, Streams2019WithBomAndDuplicatesEqualToBatch) {
  const auto path = write_day("dup.csv", {{"o", "a", "f1", {{0, 2}}},
                                          {"o", "a", "f1", {{0, 3}, {5, 1}}}},
                              /*with_header=*/true, /*with_bom=*/true);
  StreamLoadStats stats;
  auto streamed = stream_load_azure({path}, {}, &stats);
  ASSERT_TRUE(streamed.has_value());
  auto batch = try_load_azure_day_csv(path);
  ASSERT_TRUE(batch.has_value());
  expect_equal(streamed.value(), batch.value());
  EXPECT_EQ(streamed.value().duplicate_rows, 1u);
  EXPECT_EQ(stats.duplicate_rows, 1u);
  EXPECT_EQ(streamed.value().trace.count(0, 0), 5u);
}

TEST_F(AzureStreamTest, Streams2019DuplicateErrorUnderStrictPolicy) {
  const auto path = write_day("dup.csv", {{"o", "a", "f1", {{0, 2}}},
                                          {"o", "a", "f1", {{0, 3}}}});
  StreamLoadOptions options;
  options.duplicates = DuplicatePolicy::kError;
  const auto result = stream_load_azure({path}, options);
  ASSERT_FALSE(result.has_value());
  EXPECT_EQ(result.error().kind, TraceErrorKind::kDuplicateRow);
  EXPECT_EQ(result.error().line, 3u);
}

TEST_F(AzureStreamTest, SummedDuplicatesPastUint32AreBadCountInBothLoaders) {
  // Summing duplicate rows used to wrap silently: 4294967295 + 1 loaded
  // as 0. Both loaders now name the second row; a sum that just fits loads.
  const auto path = write_day("wrap.csv", {{"o", "a", "f1", {{5, 4294967295u}}},
                                           {"o", "a", "f2", {{0, 1}}},
                                           {"o", "a", "f1", {{5, 1}}}});
  std::ifstream is(path, std::ios::binary);
  const std::string content{std::istreambuf_iterator<char>(is), {}};
  std::size_t third_row = 0;
  for (int newline = 0; newline < 3; ++newline) third_row = content.find('\n', third_row) + 1;

  const auto streamed = stream_load_azure({path});
  ASSERT_FALSE(streamed.has_value());
  EXPECT_EQ(streamed.error().kind, TraceErrorKind::kBadCount);
  EXPECT_EQ(streamed.error().line, 4u);
  EXPECT_EQ(streamed.error().byte_offset, third_row);
  EXPECT_NE(streamed.error().message.find("minute 6"), std::string::npos)
      << streamed.error().message;
  const auto batch = try_load_azure_day_csv(path);
  ASSERT_FALSE(batch.has_value());
  EXPECT_EQ(batch.error().kind, TraceErrorKind::kBadCount);
  EXPECT_EQ(batch.error().line, 4u);
  EXPECT_EQ(batch.error().message, streamed.error().message);

  const auto fits = write_day("fits.csv", {{"o", "a", "f1", {{5, 4294967294u}}},
                                           {"o", "a", "f1", {{5, 1}}}});
  const auto streamed_fits = stream_load_azure({fits});
  ASSERT_TRUE(streamed_fits.has_value());
  EXPECT_EQ(streamed_fits.value().trace.count(0, 5), 4294967295u);
  const auto batch_fits = try_load_azure_day_csv(fits);
  ASSERT_TRUE(batch_fits.has_value());
  expect_equal(streamed_fits.value(), batch_fits.value());
}

TEST_F(AzureStreamTest, Streams2021EqualToBatch) {
  const auto path = write("inv.csv",
                          "app,func,end_timestamp,duration\n"
                          "a1,f1,65.0,10.0\n"
                          "a2,g,30.0,45.0\n"
                          "a1,f1,130.5,5.25\n"
                          "a1,f1,90000.0,10.0\n");
  StreamLoadStats stats;
  auto streamed = stream_load_azure({path}, {}, &stats);
  ASSERT_TRUE(streamed.has_value());
  auto batch = try_load_azure_invocations(path);
  ASSERT_TRUE(batch.has_value());
  expect_equal(streamed.value(), batch.value());

  EXPECT_EQ(stats.format, TraceFormat::kAzure2021Invocations);
  EXPECT_EQ(stats.data_rows, 4u);
  EXPECT_EQ(stats.invocations, 4u);
  EXPECT_EQ(stats.clamped_rows, 1u);  // the 30.0,45.0 row starts pre-epoch
  EXPECT_EQ(streamed.value().trace.duration(), 2 * kMinutesPerDay);
  EXPECT_EQ(streamed.value().trace.function_name(0), "a1/f1");
}

TEST_F(AzureStreamTest, Streams2021AcrossMultipleFiles) {
  // Multi-file 2021 load shares one epoch; equality is checked against a
  // batch load of the concatenated rows.
  const auto p1 = write("i1.csv", "app,func,end_timestamp,duration\na,f,65,5\n");
  const auto p2 = write("i2.csv", "app,func,end_timestamp,duration\nb,g,125,5\na,f,200,5\n");
  const auto all = write("all.csv",
                         "app,func,end_timestamp,duration\n"
                         "a,f,65,5\nb,g,125,5\na,f,200,5\n");
  auto streamed = stream_load_azure({p1, p2});
  ASSERT_TRUE(streamed.has_value());
  auto batch = try_load_azure_invocations(all);
  ASSERT_TRUE(batch.has_value());
  expect_equal(streamed.value(), batch.value());
}

TEST_F(AzureStreamTest, MalformedRowsCarryByteOffsets) {
  // Row 3 ("o,a,f,http,1,2,3") starts right after the header and one good
  // row; the error must name the line and its byte offset in the file.
  std::string content = "HashOwner,HashApp,HashFunction,Trigger";
  for (Minute m = 1; m <= kMinutesPerDay; ++m) {
    content += ',';
    content += std::to_string(m);
  }
  content += '\n';
  const std::size_t header_bytes = content.size();
  std::string good = "o,a,good,http";
  for (Minute m = 0; m < kMinutesPerDay; ++m) good += ",0";
  good += '\n';
  content += good;
  content += "o,a,f,http,1,2,3\n";
  const auto path = write("trunc.csv", content);

  const auto result = stream_load_azure({path});
  ASSERT_FALSE(result.has_value());
  EXPECT_EQ(result.error().kind, TraceErrorKind::kMalformedRow);
  EXPECT_EQ(result.error().line, 3u);
  EXPECT_EQ(result.error().byte_offset, header_bytes + good.size());
  EXPECT_NE(result.error().to_string().find("byte"), std::string::npos);
}

TEST_F(AzureStreamTest, EmptyIdentityCellIsMalformedRowWithOffset) {
  // ",x,y" and "x,y," used to stream in as two functions both named "x/y".
  std::string zeros;
  for (Minute m = 1; m < kMinutesPerDay; ++m) zeros += ",0";
  const std::string first = "x,y,z,http,1" + zeros + "\n";
  const std::string second = ",x,y,http,3" + zeros + "\n";
  const auto day = write("day.csv", first + second + "x,y,,http,5" + zeros + "\n");
  const auto r2019 = stream_load_azure({day});
  ASSERT_FALSE(r2019.has_value());
  EXPECT_EQ(r2019.error().kind, TraceErrorKind::kMalformedRow);
  EXPECT_EQ(r2019.error().line, 2u);
  EXPECT_EQ(r2019.error().byte_offset, first.size());
  EXPECT_NE(r2019.error().message.find("HashOwner"), std::string::npos);

  const std::string app_only = "x,y,,http,5" + zeros + "\n";
  const auto fn_day = write("fn.csv", first + app_only);
  const auto rfn = stream_load_azure({fn_day});
  ASSERT_FALSE(rfn.has_value());
  EXPECT_EQ(rfn.error().line, 2u);
  EXPECT_NE(rfn.error().message.find("HashFunction"), std::string::npos);

  // 2021: ",x" and "x," both used to be named "x".
  const std::string header = "app,func,end_timestamp,duration\n";
  const std::string good = "a,f,60,1\n";
  const auto inv = write("inv.csv", header + good + ",x,60,1\nx,,60,1\n");
  const auto r2021 = stream_load_azure({inv});
  ASSERT_FALSE(r2021.has_value());
  EXPECT_EQ(r2021.error().kind, TraceErrorKind::kMalformedRow);
  EXPECT_EQ(r2021.error().line, 3u);
  EXPECT_EQ(r2021.error().byte_offset, header.size() + good.size());
  EXPECT_NE(r2021.error().message.find("app"), std::string::npos);

  const auto func = write("func.csv", header + good + "x,,60,1\n");
  const auto rfunc = stream_load_azure({func});
  ASSERT_FALSE(rfunc.has_value());
  EXPECT_EQ(rfunc.error().line, 3u);
  EXPECT_NE(rfunc.error().message.find("func"), std::string::npos);
}

TEST_F(AzureStreamTest, BadCountCarriesByteOffset) {
  std::string row = "o,a,f,http";
  for (Minute m = 0; m < kMinutesPerDay; ++m) row += (m == 7 ? ",bad" : ",0");
  const auto path = write("badcount.csv", row + "\n");
  const auto result = stream_load_azure({path});
  ASSERT_FALSE(result.has_value());
  EXPECT_EQ(result.error().kind, TraceErrorKind::kBadCount);
  EXPECT_EQ(result.error().line, 1u);
  EXPECT_EQ(result.error().byte_offset, 0u);
}

TEST_F(AzureStreamTest, Bad2021TimestampCarriesByteOffset) {
  const std::string header = "app,func,end_timestamp,duration\n";
  const auto path = write("bad.csv", header + "a,f,oops,1\n");
  const auto result = stream_load_azure({path});
  ASSERT_FALSE(result.has_value());
  EXPECT_EQ(result.error().kind, TraceErrorKind::kBadTimestamp);
  EXPECT_EQ(result.error().line, 2u);
  EXPECT_EQ(result.error().byte_offset, header.size());
}

TEST_F(AzureStreamTest, Absurd2021TimestampIsBadTimestampInBothLoaders) {
  // 1e15 s used to throw std::bad_alloc from both loaders, and 1e300 s threw
  // from vector::reserve (stream) or Trace::add_invocations (batch).
  const std::string header = "app,func,end_timestamp,duration\n";
  const std::string good = "a,f,60,1\n";
  for (const std::string cell : {"1e15", "1e300"}) {
    SCOPED_TRACE(cell);
    const auto path = write("absurd.csv", header + good + "a,f," + cell + ",1\n");
    const auto streamed = stream_load_azure({path});
    ASSERT_FALSE(streamed.has_value());
    EXPECT_EQ(streamed.error().kind, TraceErrorKind::kBadTimestamp);
    EXPECT_EQ(streamed.error().line, 3u);
    EXPECT_EQ(streamed.error().byte_offset, header.size() + good.size());
    const auto batch = try_load_azure_invocations(path);
    ASSERT_FALSE(batch.has_value());
    EXPECT_EQ(batch.error().kind, TraceErrorKind::kBadTimestamp);
    EXPECT_EQ(batch.error().line, streamed.error().line);
    EXPECT_EQ(batch.error().message, streamed.error().message);
  }
}

TEST_F(AzureStreamTest, Streams2021ManyBlocksEqualToBatch) {
  // 5,000 rows cross several 1,024-row fold blocks, and the first file ends
  // mid-block. The stats are the ones the row-at-a-time loader reported.
  const std::string header = "app,func,end_timestamp,duration\n";
  const std::vector<std::string> rows = shuffled_2021_rows(5000, 10, /*seed=*/1);
  std::string first = header;
  std::string second = header;
  std::string all = header;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    (i < 2500 ? first : second) += rows[i];
    all += rows[i];
  }
  const std::vector<std::filesystem::path> paths{write("i1.csv", first),
                                                 write("i2.csv", second)};
  const auto batch = try_load_azure_invocations(write("all.csv", all));
  ASSERT_TRUE(batch.has_value());
  EXPECT_EQ(batch.value().functions.size(), 50u);

  for (const std::size_t chunk_bytes : {StreamLoadOptions{}.chunk_bytes, std::size_t{64}}) {
    SCOPED_TRACE(chunk_bytes);
    StreamLoadOptions options;
    options.chunk_bytes = chunk_bytes;
    StreamLoadStats stats;
    const auto streamed = stream_load_azure(paths, options, &stats);
    ASSERT_TRUE(streamed.has_value());
    expect_equal(streamed.value(), batch.value());
    EXPECT_EQ(stats.files, 2u);
    EXPECT_EQ(stats.data_rows, 5000u);
    EXPECT_EQ(stats.invocations, 5000u);
    EXPECT_EQ(stats.clamped_rows, 94u);
  }
}

TEST_F(AzureStreamTest, Bad2021TimestampAfterSeveralBlocks) {
  // Two full fold blocks and most of a third are pending or folded when the
  // bad row arrives; the error still names its line and byte offset.
  const std::string header = "app,func,end_timestamp,duration\n";
  const std::vector<std::string> rows = shuffled_2021_rows(3500, 10, /*seed=*/2);
  std::string content = header;
  for (std::size_t i = 0; i < 2999; ++i) content += rows[i];
  const std::size_t bad_offset = content.size();
  content += "a1,f1,12.5.0,1\n";
  for (std::size_t i = 3000; i < rows.size(); ++i) content += rows[i];
  const auto path = write("bad.csv", content);

  const auto streamed = stream_load_azure({path});
  ASSERT_FALSE(streamed.has_value());
  EXPECT_EQ(streamed.error().kind, TraceErrorKind::kBadTimestamp);
  EXPECT_EQ(streamed.error().line, 3001u);
  EXPECT_EQ(streamed.error().byte_offset, bad_offset);
  const auto batch = try_load_azure_invocations(path);
  ASSERT_FALSE(batch.has_value());
  EXPECT_EQ(batch.error().kind, TraceErrorKind::kBadTimestamp);
  EXPECT_EQ(batch.error().line, 3001u);
}

TEST_F(AzureStreamTest, TinyChunksMatchDefaultChunks) {
  const auto path = write_day("day.csv", {{"o1", "a1", "f1", {{0, 3}, {1439, 2}}},
                                          {"o2", "a2", "f2", {{700, 5}}}});
  StreamLoadOptions tiny;
  tiny.chunk_bytes = 1;  // clamped to the 64-byte floor; every line spans chunks
  auto small = stream_load_azure({path}, tiny);
  auto large = stream_load_azure({path});
  ASSERT_TRUE(small.has_value());
  ASSERT_TRUE(large.has_value());
  expect_equal(small.value(), large.value());
}

TEST_F(AzureStreamTest, MissingFileIsIoError) {
  const auto result = stream_load_azure({dir_ / "nope.csv"});
  ASSERT_FALSE(result.has_value());
  EXPECT_EQ(result.error().kind, TraceErrorKind::kIo);
  EXPECT_FALSE(stream_load_azure({}).has_value());
}

TEST_F(AzureStreamTest, QuotedFieldsMatchBatchLoader) {
  // A quoted owner cell containing a comma exercises the split fallback.
  std::string row = "\"o,wner\",a,f,http";
  for (Minute m = 0; m < kMinutesPerDay; ++m) row += ",0";
  row[row.size() - 1] = '4';  // last minute count 4
  const auto path = write("quoted.csv", row + "\n");
  auto streamed = stream_load_azure({path});
  ASSERT_TRUE(streamed.has_value());
  auto batch = try_load_azure_day_csv(path);
  ASSERT_TRUE(batch.has_value());
  expect_equal(streamed.value(), batch.value());
  EXPECT_EQ(streamed.value().functions[0].owner, "o,wner");
  EXPECT_EQ(streamed.value().trace.count(0, kMinutesPerDay - 1), 4u);
}

}  // namespace
}  // namespace pulse::trace
