#pragma once
// Ingestion of the Microsoft Azure Functions trace formats.
//
// 2019 day format (Shahrad et al., ATC'20) — the dataset the paper replays.
// Each day of the public release is a CSV with one row per function:
//
//   HashOwner,HashApp,HashFunction,Trigger,1,2,...,1440
//
// where columns 1..1440 hold per-minute invocation counts.
//
// 2021 invocation format (Zhang et al., SOSP'21 release) — one row per
// invocation instead of one row per function-day:
//
//   app,func,end_timestamp,duration
//
// with end_timestamp and duration in (fractional) seconds from the trace
// epoch. Rows may appear in any order; an invocation is binned into the
// minute containing its start time (end_timestamp - duration).
//
// The traces themselves are not redistributable, so this repository ships a
// generator instead (trace/workload.hpp) — but anyone holding the datasets
// can load them through the streaming front end in trace/azure_stream.hpp,
// which autodetects the format and reads multi-million-row files in
// O(chunk) memory, and run every experiment on the real thing. This header
// holds the format's types and the cell, timestamp and selection helpers
// that front end and `simulate` share. The batch loaders the streaming
// loader is tested against live with its tests
// (tests/trace/azure_batch_loaders.hpp).

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "trace/errors.hpp"
#include "trace/trace.hpp"

namespace pulse::trace {

/// One function's identity within the Azure dataset.
struct AzureFunctionId {
  std::string owner;
  std::string app;
  std::string function;
  std::string trigger;

  /// "owner/app/function"; empty components are skipped (the 2021 trace has
  /// no owner column, so its functions qualify as "app/function").
  [[nodiscard]] std::string qualified_name() const {
    std::string out;
    for (const std::string* part : {&owner, &app, &function}) {
      if (part->empty()) continue;
      if (!out.empty()) out += '/';
      out += *part;
    }
    return out;
  }

  [[nodiscard]] bool operator==(const AzureFunctionId&) const = default;
};

/// What to do when one day file lists the same (owner, app, function) twice.
/// The public dataset never does, but concatenated or hand-edited exports
/// can — and silently double-adding the counts corrupted downstream runs.
enum class DuplicatePolicy {
  kSum,    // sum the rows and count them in AzureTrace::duplicate_rows
  kError,  // report a kDuplicateRow TraceError naming the second row
};

/// A loaded multi-day Azure trace before function selection.
struct AzureTrace {
  std::vector<AzureFunctionId> functions;
  Trace trace;  // function_count() == functions.size()
  /// Rows merged under DuplicatePolicy::kSum (0 for clean inputs).
  std::uint64_t duplicate_rows = 0;
};

/// Strict 2021-format seconds parser: the whole cell must be one finite,
/// non-negative decimal number (no trailing garbage, no NaN/inf/hex).
/// Bit-identical to std::from_chars on every cell it accepts.
[[nodiscard]] std::optional<double> parse_seconds(std::string_view cell);

/// Minute bucket of a 2021-format invocation: floor((end - duration) / 60),
/// with starts before the trace epoch clamped into minute 0 (`clamped` set
/// when that happens). A start at or past kMaxInvocationMinute gives
/// nullopt, which both loaders report as kBadTimestamp. Shared by the
/// streaming loader and its batch reference so the two bin every row
/// identically.
[[nodiscard]] std::optional<Minute> invocation_start_minute(double end_timestamp,
                                                            double duration_s,
                                                            bool* clamped = nullptr);

/// Column name of the first empty identity cell of a data row (HashOwner,
/// HashApp, HashFunction in a 2019 day file; app, func in a 2021 file), or
/// nullptr. qualified_name() skips empty parts, so both loaders reject such
/// a row as kMalformedRow rather than give distinct rows one name.
template <typename Fields>
[[nodiscard]] const char* empty_identity_cell(const Fields& fields, bool day_format) {
  static constexpr const char* kNames[] = {"HashOwner", "HashApp", "HashFunction", "app",
                                           "func"};
  const std::size_t first = day_format ? 0 : 3;
  for (std::size_t i = 0; i < (day_format ? 3u : 2u); ++i) {
    if (fields[i].empty()) return kNames[first + i];
  }
  return nullptr;
}

/// Keeps only the `k` functions with the most total invocations — the
/// paper's "12 most commonly used functions" selection — returning a
/// compact Trace whose function names are the qualified Azure names.
[[nodiscard]] Trace select_top_functions(const AzureTrace& azure, std::size_t k);

}  // namespace pulse::trace
