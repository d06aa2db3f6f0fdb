#pragma once
// Batch Azure trace loaders: the reference the streaming front end
// (trace/azure_stream.hpp) is tested against, and the day-format writer the
// tests build their fixtures with. Every program streams; these read a
// whole file into memory and are linked into the trace tests only.

#include <filesystem>
#include <string>
#include <vector>

#include "trace/azure_format.hpp"
#include "trace/errors.hpp"
#include "trace/trace.hpp"

namespace pulse::trace {

struct AzureLoadOptions {
  DuplicatePolicy duplicates = DuplicatePolicy::kSum;
};

/// Parses one day file (1440 minute columns). Functions are keyed by
/// (owner, app, function). Malformed input — unreadable file, wrong column
/// count, count cells that are not plain non-negative integers (NaN,
/// negative, fractional, overflowing) — is reported as a TraceError naming
/// the file, line and offending cell; nothing throws on bad data. A UTF-8
/// BOM in front of the header is tolerated.
[[nodiscard]] TraceResult<AzureTrace> try_load_azure_day_csv(
    const std::filesystem::path& path, const AzureLoadOptions& options = {});

/// Loads several day files and concatenates them along the time axis.
/// Functions present in only some days contribute zero counts elsewhere;
/// the function set is the union, ordered by first appearance.
[[nodiscard]] TraceResult<AzureTrace> try_load_azure_days(
    const std::vector<std::filesystem::path>& paths, const AzureLoadOptions& options = {});

/// Loads a 2021-format per-invocation file whole (the streaming front end in
/// azure_stream.hpp reads the same format in O(chunk) memory; this batch
/// reference is the equality baseline the streaming loader is gated
/// against). The horizon is the invocation span
/// rounded up to whole days, matching the day-granular 2019 loader.
[[nodiscard]] TraceResult<AzureTrace> try_load_azure_invocations(
    const std::filesystem::path& path);

/// Writes a Trace back out in the Azure day format (splitting the horizon
/// into 1440-minute days; the last partial day is explicitly zero-padded).
/// Function names of the form "owner/app/function" are split back into
/// their columns so an Azure-loaded trace round-trips exactly; other names
/// are exported under placeholder owner/app hashes.
void save_azure_day_csvs(const Trace& trace, const std::filesystem::path& directory,
                         const std::string& prefix = "invocations_day_");

}  // namespace pulse::trace
