// Streaming 2021 ingestion holds O(chunk) memory: the live heap it needs
// beyond the output trace does not grow with the row count. A generated
// per-invocation file (200 apps x 5 functions over 3 days, shuffled in
// time) is streamed at 100k and at 400k rows. The output trace is the same
// size for both (same functions, same horizon), so the two peaks may differ
// only by noise; a loader that kept rows until finish() would add about
// 16 bytes per row.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>

#include "memory/heap_counter.hpp"
#include "support/temp_dir.hpp"
#include "trace/azure_stream.hpp"
#include "util/rng.hpp"

namespace pulse::trace {
namespace {

constexpr double kMiB = 1024.0 * 1024.0;

void write_2021_file(const std::filesystem::path& path, std::uint64_t rows) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr) << path;
  std::fprintf(f, "app,func,end_timestamp,duration\n");
  util::Pcg32 rng(42);
  constexpr double kSpanSeconds = 3 * 24 * 3600.0;
  for (std::uint64_t i = 0; i < rows; ++i) {
    const std::uint32_t app = rng.bounded(200);
    const std::uint32_t func = rng.bounded(5);
    const double start = rng.uniform(0.0, kSpanSeconds);
    const double duration = rng.uniform(0.05, 300.0);
    std::fprintf(f, "a%u,f%u,%.3f,%.3f\n", app, func, start + duration, duration);
  }
  std::fclose(f);
}

/// Peak live heap, in MiB, above what was live before the load, while
/// streaming `path` and holding the resulting trace.
double stream_peak_mib(const std::filesystem::path& path, std::uint64_t rows) {
  const std::int64_t before = testutil::heap_counts().live_bytes;
  testutil::reset_heap_peak();
  StreamLoadStats stats;
  const TraceResult<AzureTrace> loaded = stream_load_azure({path}, {}, &stats);
  const std::int64_t peak = testutil::heap_counts().peak_live_bytes;
  EXPECT_TRUE(loaded.has_value()) << loaded.error().to_string();
  EXPECT_EQ(stats.data_rows, rows);
  if (loaded) {
    EXPECT_EQ(loaded.value().functions.size(), 1000u);
  }
  return static_cast<double>(peak - before) / kMiB;
}

TEST(StreamMemory, PeakHeapIsBoundedAndFlatInRowCount) {
  const testutil::TempDir dir;
  const std::filesystem::path small = dir.path() / "invocations_100k.csv";
  const std::filesystem::path large = dir.path() / "invocations_400k.csv";
  write_2021_file(small, 100'000);
  write_2021_file(large, 400'000);

  const double small_mib = stream_peak_mib(small, 100'000);
  const double large_mib = stream_peak_mib(large, 400'000);
  RecordProperty("peak_mib_100k", std::to_string(small_mib));
  RecordProperty("peak_mib_400k", std::to_string(large_mib));

  EXPECT_LE(large_mib, 64.0) << "400k-row stream load peaked at " << large_mib << " MiB";
  EXPECT_LT(large_mib - small_mib, 1.0)
      << "peak grew from " << small_mib << " MiB at 100k rows to " << large_mib
      << " MiB at 400k rows";
}

}  // namespace
}  // namespace pulse::trace
