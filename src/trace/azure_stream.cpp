#include "trace/azure_stream.hpp"

#include <algorithm>
#include <array>
#include <limits>
#include <optional>
#include <unordered_map>
#include <utility>

#include "util/csv.hpp"
#include "util/line_reader.hpp"

namespace pulse::trace {

namespace {

constexpr std::size_t kMetaColumns = 4;  // owner, app, function, trigger
constexpr std::size_t kDayColumns =
    kMetaColumns + static_cast<std::size_t>(kMinutesPerDay);
constexpr auto kNoFunction = static_cast<FunctionId>(-1);

// Fast field splitter for the (overwhelmingly common) unquoted row. Rows
// containing a quote fall back to the full RFC-4180 parser; the resulting
// fields are identical to what the batch loaders see via parse_csv_line.
void split_line(std::string_view line, std::vector<std::string_view>& fields,
                util::CsvRow& quoted_storage) {
  fields.clear();
  if (line.find('"') == std::string_view::npos) {
    std::size_t begin = 0;
    for (;;) {
      const std::size_t comma = line.find(',', begin);
      if (comma == std::string_view::npos) {
        fields.push_back(line.substr(begin));
        return;
      }
      fields.push_back(line.substr(begin, comma - begin));
      begin = comma + 1;
    }
  }
  quoted_storage = util::parse_csv_line(line);
  fields.reserve(quoted_storage.size());
  for (const std::string& s : quoted_storage) fields.emplace_back(s);
}

TraceError open_error(const std::filesystem::path& path, const char* what) {
  return TraceError{TraceErrorKind::kIo, path.string(), 0, what};
}

}  // namespace

TraceFormat parse_trace_format(std::string_view name) noexcept {
  if (name == "azure2019" || name == "2019") return TraceFormat::kAzure2019Day;
  if (name == "azure2021" || name == "2021") return TraceFormat::kAzure2021Invocations;
  return TraceFormat::kUnknown;
}

TraceResult<TraceFormat> detect_trace_format(const std::filesystem::path& path) {
  util::LineReader reader(path);
  if (!reader.ok()) return open_error(path, "cannot open trace file");
  std::string_view line;
  while (reader.next(line)) {
    if (line.empty()) continue;
    const util::CsvRow fields = util::parse_csv_line(line);
    if (!fields.empty() && fields[0] == "HashOwner") return TraceFormat::kAzure2019Day;
    if (fields.size() >= 2 && fields[0] == "app" && fields[1] == "func") {
      return TraceFormat::kAzure2021Invocations;
    }
    if (fields.size() == kDayColumns) return TraceFormat::kAzure2019Day;
    return TraceError{TraceErrorKind::kBadHeader, path.string(), reader.line_number(),
                      "cannot autodetect trace format from first row (" +
                          std::to_string(fields.size()) + " columns)",
                      reader.line_offset()};
  }
  return TraceError{TraceErrorKind::kBadHeader, path.string(), 0,
                    "cannot autodetect trace format of an empty file"};
}

namespace {

/// Incremental function-index builder: interns (owner, app, function)
/// identities in first-appearance order and grows per-function minute
/// series on demand, so a loader can stream rows without knowing the
/// function set or horizon up front. finish() hands the accumulated
/// columns to Trace::from_columns without copying.
class StreamingTraceBuilder {
 public:
  /// Allocation-free hot path: `lookup` finds an already-interned function
  /// by its qualified-name key (returns kNoFunction when absent);
  /// `insert` interns a new one under that key. Loaders build the key into
  /// a reused buffer and only construct the AzureFunctionId on first sight.
  [[nodiscard]] FunctionId lookup(std::string_view key) const;
  FunctionId insert(std::string_view key, AzureFunctionId id);

  /// Adds invocations at minute `t` (grows the series as needed). Returns
  /// false, leaving the cell unchanged, when the sum would pass
  /// 4294967295 (summed duplicate rows); the loader reports the row.
  [[nodiscard]] bool add(FunctionId f, Minute t, std::uint32_t count);

  /// Pre-reserves per-function series for a known horizon (optional).
  void set_horizon_hint(Minute duration_minutes) noexcept {
    horizon_hint_ = duration_minutes;
  }

  [[nodiscard]] std::size_t function_count() const noexcept { return ids_.size(); }
  [[nodiscard]] Minute max_minute() const noexcept { return max_minute_; }

  /// Builds the AzureTrace over `duration_minutes` (series zero-padded to
  /// the horizon). The builder is consumed.
  [[nodiscard]] AzureTrace finish(Minute duration_minutes) &&;

 private:
  struct TransparentHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const noexcept {
      return std::hash<std::string_view>{}(s);
    }
  };

  std::unordered_map<std::string, FunctionId, TransparentHash, std::equal_to<>> index_;
  std::vector<AzureFunctionId> ids_;
  std::vector<std::vector<std::uint32_t>> series_;
  Minute max_minute_ = -1;
  Minute horizon_hint_ = 0;
};

FunctionId StreamingTraceBuilder::lookup(std::string_view key) const {
  const auto it = index_.find(key);
  return it == index_.end() ? kNoFunction : it->second;
}

FunctionId StreamingTraceBuilder::insert(std::string_view key, AzureFunctionId id) {
  const FunctionId f = ids_.size();
  index_.emplace(std::string(key), f);
  ids_.push_back(std::move(id));
  series_.emplace_back();
  if (horizon_hint_ > 0) series_.back().reserve(static_cast<std::size_t>(horizon_hint_));
  return f;
}

bool StreamingTraceBuilder::add(FunctionId f, Minute t, std::uint32_t count) {
  auto& series = series_[f];
  const auto idx = static_cast<std::size_t>(t);
  if (idx >= series.size()) {
    if (idx >= series.capacity()) {
      series.reserve(std::max(series.capacity() * 2, idx + 1));
    }
    series.resize(idx + 1, 0);
  }
  if (count > std::numeric_limits<std::uint32_t>::max() - series[idx]) return false;
  series[idx] += count;
  max_minute_ = std::max(max_minute_, t);
  return true;
}

AzureTrace StreamingTraceBuilder::finish(Minute duration_minutes) && {
  std::vector<std::string> names;
  names.reserve(ids_.size());
  for (const AzureFunctionId& id : ids_) names.push_back(id.qualified_name());
  AzureTrace out;
  out.trace =
      Trace::from_columns(std::move(names), std::move(series_), duration_minutes);
  out.functions = std::move(ids_);
  return out;
}

// Streaming 2019 day-format loader: one pass per file, rows fed straight
// into the builder. Mirrors the tests' batch reference try_load_azure_days
// exactly (function order, duplicate semantics, horizon) — the equality is
// test-gated.
TraceResult<AzureTrace> stream_load_2019(const std::vector<std::filesystem::path>& paths,
                                         const StreamLoadOptions& options,
                                         StreamLoadStats& stats) {
  StreamingTraceBuilder builder;
  const Minute duration = static_cast<Minute>(paths.size()) * kMinutesPerDay;
  builder.set_horizon_hint(duration);

  std::vector<std::string_view> fields;
  util::CsvRow quoted_storage;
  std::string key;
  // Per-file duplicate detection: stamp[f] holds the 1-based index of the
  // last file that contributed a row for function f.
  std::vector<std::size_t> stamp;
  std::uint64_t duplicate_rows = 0;

  for (std::size_t day = 0; day < paths.size(); ++day) {
    const std::filesystem::path& path = paths[day];
    util::LineReader reader(path, options.chunk_bytes);
    if (!reader.ok()) return open_error(path, "cannot open Azure day CSV");
    const Minute base = static_cast<Minute>(day) * kMinutesPerDay;

    std::string_view line;
    bool header_checked = false;
    while (reader.next(line)) {
      if (line.empty()) continue;
      split_line(line, fields, quoted_storage);
      if (!header_checked) {
        header_checked = true;
        if (!fields.empty() && fields[0] == "HashOwner") continue;
      }
      if (fields.size() != kDayColumns) {
        return TraceError{TraceErrorKind::kMalformedRow, path.string(),
                          reader.line_number(),
                          "expected " + std::to_string(kDayColumns) + " columns, got " +
                              std::to_string(fields.size()),
                          reader.line_offset()};
      }
      if (const char* empty = empty_identity_cell(fields, /*day_format=*/true)) {
        return TraceError{TraceErrorKind::kMalformedRow, path.string(),
                          reader.line_number(), std::string("empty ") + empty + " cell",
                          reader.line_offset()};
      }
      key.assign(fields[0]);
      key += '/';
      key += fields[1];
      key += '/';
      key += fields[2];
      FunctionId f = builder.lookup(key);
      if (f == kNoFunction) {
        f = builder.insert(key, AzureFunctionId{std::string(fields[0]),
                                                std::string(fields[1]),
                                                std::string(fields[2]),
                                                std::string(fields[3])});
      }
      if (f >= stamp.size()) stamp.resize(f + 1, 0);
      if (stamp[f] == day + 1) {
        if (options.duplicates == DuplicatePolicy::kError) {
          return TraceError{TraceErrorKind::kDuplicateRow, path.string(),
                            reader.line_number(),
                            "duplicate row for function '" + key + "'",
                            reader.line_offset()};
        }
        ++duplicate_rows;
      }
      stamp[f] = day + 1;

      for (std::size_t m = 0; m < static_cast<std::size_t>(kMinutesPerDay); ++m) {
        const std::string_view cell = fields[kMetaColumns + m];
        const auto count = parse_invocation_count(cell);
        if (!count) {
          return TraceError{TraceErrorKind::kBadCount, path.string(),
                            reader.line_number(),
                            "malformed count '" + std::string(cell) + "' at minute " +
                                std::to_string(m + 1),
                            reader.line_offset()};
        }
        if (*count > 0) {
          if (!builder.add(f, base + static_cast<Minute>(m), *count)) {
            return TraceError{TraceErrorKind::kBadCount, path.string(),
                              reader.line_number(),
                              "duplicate rows for function '" + key + "' sum past " +
                                  "4294967295 invocations at minute " +
                                  std::to_string(m + 1),
                              reader.line_offset()};
          }
          stats.invocations += *count;
        }
      }
      ++stats.data_rows;
    }
    ++stats.files;
    stats.bytes += reader.bytes_consumed();
    stats.max_line_bytes = std::max(stats.max_line_bytes, reader.max_line_bytes());
  }

  stats.duplicate_rows = duplicate_rows;
  AzureTrace out = std::move(builder).finish(duration);
  out.duplicate_rows = duplicate_rows;
  return out;
}

// Rows of one 2021 fold block: 1,024 (function, minute) pairs, 16 KB,
// folded when full and at the end of each file.
constexpr std::size_t kFoldBlockRows = 1024;

// Streaming 2021 invocation-format loader. All files share the trace epoch;
// the horizon is the invocation span rounded up to whole days, exactly as
// try_load_azure_invocations computes it.
//
// Rows are shuffled in time, so each builder.add lands on a random cell of
// the function x minute grid. Made inline, every add is a cache miss stalled
// behind the next row's parsing; parsed rows are instead queued in a fixed
// block and folded into the builder back to back, where the misses overlap.
// Parsing, validation, interning and stats stay per row, in file order, and
// each function's adds keep their file order, so the trace is unchanged.
TraceResult<AzureTrace> stream_load_2021(const std::vector<std::filesystem::path>& paths,
                                         const StreamLoadOptions& options,
                                         StreamLoadStats& stats) {
  StreamingTraceBuilder builder;
  std::vector<std::string_view> fields;
  util::CsvRow quoted_storage;
  std::string key;
  struct PendingAdd {
    FunctionId function;
    Minute minute;
  };
  std::array<PendingAdd, kFoldBlockRows> block;
  std::size_t pending = 0;
  // Folds the queued rows. A cell grows by one per row, so it can only
  // wrap after 2^32 rows; that is reported against the file's current
  // line, within one block of the row that wrapped.
  const auto fold = [&](const std::filesystem::path& path,
                        const util::LineReader& reader) -> std::optional<TraceError> {
    for (std::size_t i = 0; i < pending; ++i) {
      if (!builder.add(block[i].function, block[i].minute, 1)) {
        return TraceError{TraceErrorKind::kBadCount, path.string(), reader.line_number(),
                          "more than 4294967295 invocations at minute " +
                              std::to_string(block[i].minute),
                          reader.line_offset()};
      }
    }
    pending = 0;
    return std::nullopt;
  };

  for (const std::filesystem::path& path : paths) {
    util::LineReader reader(path, options.chunk_bytes);
    if (!reader.ok()) return open_error(path, "cannot open Azure invocation CSV");

    std::string_view line;
    bool header_seen = false;
    while (reader.next(line)) {
      if (line.empty()) continue;
      split_line(line, fields, quoted_storage);
      if (!header_seen) {
        header_seen = true;
        if (fields.size() < 2 || fields[0] != "app" || fields[1] != "func") {
          return TraceError{TraceErrorKind::kBadHeader, path.string(),
                            reader.line_number(),
                            "expected 2021 invocation header 'app,func,end_timestamp,"
                            "duration'",
                            reader.line_offset()};
        }
        continue;
      }
      if (fields.size() != 4) {
        return TraceError{TraceErrorKind::kMalformedRow, path.string(),
                          reader.line_number(),
                          "expected 4 columns, got " + std::to_string(fields.size()),
                          reader.line_offset()};
      }
      if (const char* empty = empty_identity_cell(fields, /*day_format=*/false)) {
        return TraceError{TraceErrorKind::kMalformedRow, path.string(),
                          reader.line_number(), std::string("empty ") + empty + " cell",
                          reader.line_offset()};
      }
      const auto end_ts = parse_seconds(fields[2]);
      const auto duration_s = parse_seconds(fields[3]);
      if (!end_ts || !duration_s) {
        return TraceError{TraceErrorKind::kBadTimestamp, path.string(),
                          reader.line_number(),
                          "malformed timestamp/duration '" + std::string(fields[2]) +
                              "','" + std::string(fields[3]) + "'",
                          reader.line_offset()};
      }
      bool clamped = false;
      const auto minute = invocation_start_minute(*end_ts, *duration_s, &clamped);
      if (!minute) {
        return TraceError{TraceErrorKind::kBadTimestamp, path.string(),
                          reader.line_number(),
                          "invocation '" + std::string(fields[2]) + "','" +
                              std::string(fields[3]) + "' starts " +
                              std::to_string(kMaxInvocationMinute / kMinutesPerDay) +
                              " or more days after the epoch",
                          reader.line_offset()};
      }
      key.assign(fields[0]);
      key += '/';
      key += fields[1];
      FunctionId f = builder.lookup(key);
      if (f == kNoFunction) {
        f = builder.insert(key, AzureFunctionId{"", std::string(fields[0]),
                                                std::string(fields[1]), ""});
      }
      if (clamped) ++stats.clamped_rows;
      block[pending++] = PendingAdd{f, *minute};
      if (pending == block.size()) {
        if (auto error = fold(path, reader)) return std::move(*error);
      }
      ++stats.data_rows;
      ++stats.invocations;
    }
    if (!header_seen) {
      return TraceError{TraceErrorKind::kBadHeader, path.string(), 0,
                        "empty 2021 invocation file (no header row)"};
    }
    if (auto error = fold(path, reader)) return std::move(*error);
    ++stats.files;
    stats.bytes += reader.bytes_consumed();
    stats.max_line_bytes = std::max(stats.max_line_bytes, reader.max_line_bytes());
  }

  const Minute max_minute = builder.max_minute();
  const Minute duration =
      max_minute < 0 ? 0 : ((max_minute / kMinutesPerDay) + 1) * kMinutesPerDay;
  return std::move(builder).finish(duration);
}

}  // namespace

TraceResult<AzureTrace> stream_load_azure(const std::vector<std::filesystem::path>& paths,
                                          const StreamLoadOptions& options,
                                          StreamLoadStats* stats) {
  if (paths.empty()) {
    return TraceError{TraceErrorKind::kIo, "", 0, "stream_load_azure: no files given"};
  }
  TraceFormat format = options.format;
  if (format == TraceFormat::kUnknown) {
    auto detected = detect_trace_format(paths.front());
    if (!detected) return std::move(detected.error());
    format = detected.value();
  }
  StreamLoadStats local;
  StreamLoadStats& s = stats != nullptr ? *stats : local;
  s = StreamLoadStats{};
  s.format = format;
  if (format == TraceFormat::kAzure2019Day) {
    return stream_load_2019(paths, options, s);
  }
  return stream_load_2021(paths, options, s);
}

}  // namespace pulse::trace
