#include "trace/azure_batch_loaders.hpp"

#include <algorithm>
#include <fstream>
#include <limits>
#include <map>

#include "util/csv.hpp"

namespace pulse::trace {

namespace {

constexpr std::size_t kMetaColumns = 4;  // owner, app, function, trigger

struct DayRow {
  AzureFunctionId id;
  std::vector<std::uint32_t> counts;  // length kMinutesPerDay
};

TraceResult<std::vector<DayRow>> parse_day_file(const std::filesystem::path& path,
                                                const AzureLoadOptions& options,
                                                std::uint64_t& duplicate_rows) {
  std::ifstream is(path);
  if (!is) {
    return TraceError{TraceErrorKind::kIo, path.string(), 0,
                      "cannot open Azure day CSV"};
  }

  std::vector<DayRow> rows;
  std::map<std::string, std::size_t> row_of;  // within this file
  std::string line;
  std::size_t line_no = 0;
  bool header_checked = false;
  while (std::getline(is, line)) {
    ++line_no;
    std::string_view view = line;
    // Spreadsheet exports prepend a UTF-8 BOM; before it was stripped here,
    // the header check below failed on "\xEF\xBB\xBFHashOwner" and the
    // header row was silently ingested as a function with counts 1..1440.
    if (line_no == 1) util::strip_utf8_bom(view);
    if (view.empty() || view == "\r") continue;
    const util::CsvRow fields = util::parse_csv_line(view);
    if (!header_checked) {
      header_checked = true;
      // The public dataset starts with a header row; detect it by the
      // HashOwner column name and skip.
      if (!fields.empty() && fields[0] == "HashOwner") continue;
    }
    if (fields.size() != kMetaColumns + static_cast<std::size_t>(kMinutesPerDay)) {
      return TraceError{TraceErrorKind::kMalformedRow, path.string(), line_no,
                        "expected " + std::to_string(kMetaColumns + kMinutesPerDay) +
                            " columns, got " + std::to_string(fields.size())};
    }
    if (const char* empty = empty_identity_cell(fields, /*day_format=*/true)) {
      return TraceError{TraceErrorKind::kMalformedRow, path.string(), line_no,
                        std::string("empty ") + empty + " cell"};
    }
    DayRow row;
    row.id = AzureFunctionId{fields[0], fields[1], fields[2], fields[3]};
    row.counts.resize(static_cast<std::size_t>(kMinutesPerDay));
    for (std::size_t m = 0; m < row.counts.size(); ++m) {
      const std::string& cell = fields[kMetaColumns + m];
      const auto count = parse_invocation_count(cell);
      if (!count) {
        return TraceError{TraceErrorKind::kBadCount, path.string(), line_no,
                          "malformed count '" + cell + "' at minute " +
                              std::to_string(m + 1)};
      }
      row.counts[m] = *count;
    }
    const auto [it, inserted] = row_of.emplace(row.id.qualified_name(), rows.size());
    if (!inserted) {
      // Same (owner, app, function) twice within one day file. These used
      // to be silently double-added downstream.
      if (options.duplicates == DuplicatePolicy::kError) {
        return TraceError{TraceErrorKind::kDuplicateRow, path.string(), line_no,
                          "duplicate row for function '" + it->first + "'"};
      }
      ++duplicate_rows;
      std::vector<std::uint32_t>& into = rows[it->second].counts;
      for (std::size_t m = 0; m < into.size(); ++m) {
        if (row.counts[m] > std::numeric_limits<std::uint32_t>::max() - into[m]) {
          return TraceError{TraceErrorKind::kBadCount, path.string(), line_no,
                            "duplicate rows for function '" + it->first + "' sum past " +
                                "4294967295 invocations at minute " + std::to_string(m + 1)};
        }
        into[m] += row.counts[m];
      }
      continue;
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

// Splits a qualified "owner/app/function" name back into the day-format
// identity columns, so a save/load cycle preserves it exactly. A 2021-form
// "app/function" name exports under a placeholder owner (the loaders reject
// an empty identity cell), and other names under placeholder owner/app
// hashes; both reload as "owner/..." names.
AzureFunctionId split_qualified_name(const std::string& name) {
  std::vector<std::string> parts;
  std::size_t begin = 0;
  while (begin <= name.size()) {
    const std::size_t slash = name.find('/', begin);
    if (slash == std::string::npos) {
      parts.push_back(name.substr(begin));
      break;
    }
    parts.push_back(name.substr(begin, slash - begin));
    begin = slash + 1;
  }
  const auto all_filled = [&] {
    return std::all_of(parts.begin(), parts.end(),
                       [](const std::string& p) { return !p.empty(); });
  };
  if (parts.size() == 3 && all_filled()) {
    return AzureFunctionId{parts[0], parts[1], parts[2], "http"};
  }
  if (parts.size() == 2 && all_filled()) {
    return AzureFunctionId{"owner", parts[0], parts[1], "http"};
  }
  return AzureFunctionId{"owner", "app", name, "http"};
}

}  // namespace

TraceResult<AzureTrace> try_load_azure_day_csv(const std::filesystem::path& path,
                                               const AzureLoadOptions& options) {
  return try_load_azure_days({path}, options);
}

TraceResult<AzureTrace> try_load_azure_days(
    const std::vector<std::filesystem::path>& paths, const AzureLoadOptions& options) {
  if (paths.empty()) {
    return TraceError{TraceErrorKind::kIo, "", 0, "load_azure_days: no files given"};
  }

  // First pass: union of functions, ordered by first appearance.
  std::uint64_t duplicate_rows = 0;
  std::vector<std::vector<DayRow>> days;
  days.reserve(paths.size());
  std::map<std::string, std::size_t> index_of;
  std::vector<AzureFunctionId> functions;
  for (const auto& path : paths) {
    auto parsed = parse_day_file(path, options, duplicate_rows);
    if (!parsed) return std::move(parsed.error());
    days.push_back(std::move(parsed.value()));
    for (const auto& row : days.back()) {
      const std::string key = row.id.qualified_name();
      if (index_of.emplace(key, functions.size()).second) {
        functions.push_back(row.id);
      }
    }
  }

  AzureTrace out;
  out.functions = std::move(functions);
  out.duplicate_rows = duplicate_rows;
  out.trace = Trace(out.functions.size(),
                    static_cast<Minute>(paths.size()) * kMinutesPerDay);
  for (std::size_t day = 0; day < days.size(); ++day) {
    const Minute base = static_cast<Minute>(day) * kMinutesPerDay;
    for (const auto& row : days[day]) {
      const std::size_t f = index_of.at(row.id.qualified_name());
      for (std::size_t m = 0; m < row.counts.size(); ++m) {
        if (row.counts[m] > 0) {
          out.trace.add_invocations(f, base + static_cast<Minute>(m), row.counts[m]);
        }
      }
    }
  }
  for (std::size_t f = 0; f < out.functions.size(); ++f) {
    out.trace.set_function_name(f, out.functions[f].qualified_name());
  }
  return out;
}

TraceResult<AzureTrace> try_load_azure_invocations(const std::filesystem::path& path) {
  std::ifstream is(path);
  if (!is) {
    return TraceError{TraceErrorKind::kIo, path.string(), 0,
                      "cannot open Azure invocation CSV"};
  }

  struct Row {
    std::size_t function;
    Minute minute;
  };
  std::map<std::string, std::size_t> index_of;
  std::vector<AzureFunctionId> functions;
  std::vector<Row> invocations;
  Minute max_minute = -1;

  std::string line;
  std::size_t line_no = 0;
  bool header_seen = false;
  while (std::getline(is, line)) {
    ++line_no;
    std::string_view view = line;
    if (line_no == 1) util::strip_utf8_bom(view);
    if (view.empty() || view == "\r") continue;
    const util::CsvRow fields = util::parse_csv_line(view);
    if (!header_seen) {
      header_seen = true;
      if (fields.size() < 2 || fields[0] != "app" || fields[1] != "func") {
        return TraceError{TraceErrorKind::kBadHeader, path.string(), line_no,
                          "expected 2021 invocation header 'app,func,end_timestamp,"
                          "duration'"};
      }
      continue;
    }
    if (fields.size() != 4) {
      return TraceError{TraceErrorKind::kMalformedRow, path.string(), line_no,
                        "expected 4 columns, got " + std::to_string(fields.size())};
    }
    if (const char* empty = empty_identity_cell(fields, /*day_format=*/false)) {
      return TraceError{TraceErrorKind::kMalformedRow, path.string(), line_no,
                        std::string("empty ") + empty + " cell"};
    }
    const auto end_ts = parse_seconds(fields[2]);
    const auto duration_s = parse_seconds(fields[3]);
    if (!end_ts || !duration_s) {
      return TraceError{TraceErrorKind::kBadTimestamp, path.string(), line_no,
                        "malformed timestamp/duration '" + fields[2] + "','" +
                            fields[3] + "'"};
    }
    const auto minute = invocation_start_minute(*end_ts, *duration_s, nullptr);
    if (!minute) {
      return TraceError{TraceErrorKind::kBadTimestamp, path.string(), line_no,
                        "invocation '" + fields[2] + "','" + fields[3] + "' starts " +
                            std::to_string(kMaxInvocationMinute / kMinutesPerDay) +
                            " or more days after the epoch"};
    }
    AzureFunctionId id{"", fields[0], fields[1], ""};
    const std::string key = id.qualified_name();
    const auto [it, inserted] = index_of.emplace(key, functions.size());
    if (inserted) functions.push_back(std::move(id));
    max_minute = std::max(max_minute, *minute);
    invocations.push_back(Row{it->second, *minute});
  }
  if (!header_seen) {
    return TraceError{TraceErrorKind::kBadHeader, path.string(), 0,
                      "empty 2021 invocation file (no header row)"};
  }

  const Minute duration_minutes =
      max_minute < 0 ? 0
                     : ((max_minute / kMinutesPerDay) + 1) * kMinutesPerDay;
  AzureTrace out;
  out.functions = std::move(functions);
  out.trace = Trace(out.functions.size(), duration_minutes);
  for (const Row& row : invocations) out.trace.add_invocations(row.function, row.minute);
  for (std::size_t f = 0; f < out.functions.size(); ++f) {
    out.trace.set_function_name(f, out.functions[f].qualified_name());
  }
  return out;
}

void save_azure_day_csvs(const Trace& trace, const std::filesystem::path& directory,
                         const std::string& prefix) {
  std::filesystem::create_directories(directory);
  const Minute days = (trace.duration() + kMinutesPerDay - 1) / kMinutesPerDay;
  for (Minute day = 0; day < days; ++day) {
    util::CsvRow header{"HashOwner", "HashApp", "HashFunction", "Trigger"};
    for (Minute m = 1; m <= kMinutesPerDay; ++m) header.push_back(std::to_string(m));
    util::CsvTable table(std::move(header));

    const Minute base = day * kMinutesPerDay;
    // Explicit zero padding for a final partial day: only read minutes
    // inside the horizon instead of leaning on count()'s out-of-range
    // clamp, so a trace whose duration is not a multiple of 1440 exports
    // a well-formed (zero-tailed) last day by construction.
    const Minute in_horizon = std::min<Minute>(kMinutesPerDay, trace.duration() - base);
    for (FunctionId f = 0; f < trace.function_count(); ++f) {
      const AzureFunctionId id = split_qualified_name(trace.function_name(f));
      util::CsvRow row{id.owner, id.app, id.function, id.trigger};
      row.reserve(kMetaColumns + static_cast<std::size_t>(kMinutesPerDay));
      for (Minute m = 0; m < in_horizon; ++m) {
        row.push_back(std::to_string(trace.count(f, base + m)));
      }
      for (Minute m = in_horizon; m < kMinutesPerDay; ++m) row.push_back("0");
      table.add_row(std::move(row));
    }
    const std::filesystem::path path =
        directory / (prefix + std::to_string(day + 1) + ".csv");
    table.write_file(path);
  }
}

}  // namespace pulse::trace
