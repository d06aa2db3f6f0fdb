#pragma once
// Streaming, format-autodetecting ingestion of the Azure traces.
//
// A batch loader that materialises every parsed row before building the
// Trace (the tests' reference, tests/trace/azure_batch_loaders.hpp) is fine
// for the paper's 12-function subset but hopeless for the full datasets (the 2021 release alone is tens of millions of
// invocation rows). This front end reads files through util::LineReader in
// fixed-size chunks, feeds rows directly into an incremental function-index
// builder, and never holds more than one chunk, one line, one 16 KB block of
// pending 2021 (function, minute) pairs and the output Trace in memory.
// Tests gate results to be bitwise identical to the batch loaders on the
// same inputs, and the 2021 loader's peak heap to stay flat in the row
// count (tests/memory/stream_memory_test.cpp).
//
// Errors carry the byte offset of the offending line in addition to the
// line number, so a malformed row in a multi-hundred-megabyte file can be
// inspected with `dd`/`tail -c` instead of a 20-minute line scan.

#include <cstdint>
#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

#include "trace/azure_format.hpp"
#include "trace/errors.hpp"
#include "trace/trace.hpp"

namespace pulse::trace {

enum class TraceFormat {
  kUnknown,               // autodetect from the first line
  kAzure2019Day,          // HashOwner,...,1..1440 minute-grid day CSV
  kAzure2021Invocations,  // app,func,end_timestamp,duration per-invocation rows
};

[[nodiscard]] constexpr std::string_view to_string(TraceFormat format) noexcept {
  switch (format) {
    case TraceFormat::kUnknown: return "unknown";
    case TraceFormat::kAzure2019Day: return "azure2019";
    case TraceFormat::kAzure2021Invocations: return "azure2021";
  }
  return "unknown";
}

/// Parses a --format flag value: "auto" (or "") -> kUnknown, "azure2019" ->
/// day CSVs, "azure2021" -> per-invocation rows. Unrecognised names come
/// back as kUnknown too — callers treat the flag as a hint and autodetect.
[[nodiscard]] TraceFormat parse_trace_format(std::string_view name) noexcept;

/// Sniffs the format from a file's first non-empty line (BOM-tolerant):
/// a "HashOwner" header or a 1444-column row is the 2019 day format, an
/// "app,func,..." header is the 2021 invocation format. Anything else is a
/// kBadHeader error.
[[nodiscard]] TraceResult<TraceFormat> detect_trace_format(
    const std::filesystem::path& path);

struct StreamLoadOptions {
  /// kUnknown autodetects from the first file.
  TraceFormat format = TraceFormat::kUnknown;
  DuplicatePolicy duplicates = DuplicatePolicy::kSum;
  /// Chunk size of the underlying LineReader — the memory bound.
  std::size_t chunk_bytes = 256 * 1024;
};

/// Ingestion counters, filled by stream_load_azure when requested.
struct StreamLoadStats {
  TraceFormat format = TraceFormat::kUnknown;
  std::uint64_t files = 0;
  std::uint64_t bytes = 0;            // total bytes consumed
  std::uint64_t data_rows = 0;        // rows ingested (headers/blanks excluded)
  std::uint64_t invocations = 0;      // total invocations added to the trace
  std::uint64_t duplicate_rows = 0;   // 2019: merged duplicate function rows
  std::uint64_t clamped_rows = 0;     // 2021: starts before the epoch, binned at 0
  std::size_t max_line_bytes = 0;     // longest line seen (memory-bound witness)
};

/// Streams one or more trace files into a single AzureTrace.
///
/// 2019 day format: files are consecutive days concatenated along the time
/// axis (horizon = files x 1440 minutes), duplicate rows within one file
/// resolved per options.duplicates — exactly the semantics of the batch
/// reference try_load_azure_days.
///
/// 2021 invocation format: all files share the trace epoch; rows merge into
/// one timeline whose horizon is the invocation span rounded up to whole
/// days — exactly the semantics of the batch reference
/// try_load_azure_invocations.
///
/// Malformed input is a TraceError carrying file, line, and byte offset.
[[nodiscard]] TraceResult<AzureTrace> stream_load_azure(
    const std::vector<std::filesystem::path>& paths,
    const StreamLoadOptions& options = {}, StreamLoadStats* stats = nullptr);

}  // namespace pulse::trace
