#include "trace/trace.hpp"

#include <limits>
#include <numeric>
#include <stdexcept>

#include "util/csv.hpp"

namespace pulse::trace {

Trace::Trace(std::size_t function_count, Minute duration_minutes)
    : duration_(duration_minutes) {
  if (duration_minutes < 0) throw std::invalid_argument("Trace: negative duration");
  counts_.assign(function_count, std::vector<std::uint32_t>(static_cast<std::size_t>(duration_minutes), 0));
  names_.reserve(function_count);
  for (std::size_t f = 0; f < function_count; ++f) names_.push_back("fn" + std::to_string(f));
}

Trace Trace::from_columns(std::vector<std::string> names,
                          std::vector<std::vector<std::uint32_t>> counts,
                          Minute duration_minutes) {
  if (duration_minutes < 0) throw std::invalid_argument("Trace: negative duration");
  if (names.size() != counts.size()) {
    throw std::invalid_argument("Trace::from_columns: names/counts size mismatch");
  }
  const auto duration = static_cast<std::size_t>(duration_minutes);
  for (auto& series : counts) {
    if (series.size() > duration) {
      throw std::invalid_argument("Trace::from_columns: series longer than duration");
    }
    series.resize(duration, 0);
  }
  Trace out;
  out.duration_ = duration_minutes;
  out.names_ = std::move(names);
  out.counts_ = std::move(counts);
  return out;
}

void Trace::throw_unknown_function() {
  throw std::out_of_range("Trace::count: function index out of range");
}

void Trace::set_count(FunctionId f, Minute t, std::uint32_t value) {
  if (t < 0 || t >= duration_) throw std::out_of_range("Trace::set_count: minute out of range");
  counts_.at(f)[static_cast<std::size_t>(t)] = value;
}

void Trace::add_invocations(FunctionId f, Minute t, std::uint32_t value) {
  if (t < 0 || t >= duration_) throw std::out_of_range("Trace::add_invocations: minute out of range");
  // Saturating, like util::poisson: a sum past 2^32 - 1 stays there.
  std::uint32_t& cell = counts_.at(f)[static_cast<std::size_t>(t)];
  const std::uint32_t sum = cell + value;
  cell = sum < cell ? std::numeric_limits<std::uint32_t>::max() : sum;
}

std::uint64_t Trace::total_invocations(FunctionId f) const {
  const auto& s = counts_.at(f);
  return std::accumulate(s.begin(), s.end(), std::uint64_t{0});
}

std::uint64_t Trace::total_invocations() const {
  std::uint64_t total = 0;
  for (std::size_t f = 0; f < counts_.size(); ++f) total += total_invocations(f);
  return total;
}

std::uint64_t Trace::invocations_at(Minute t) const {
  if (t < 0 || t >= duration_) return 0;
  std::uint64_t total = 0;
  for (const auto& s : counts_) total += s[static_cast<std::size_t>(t)];
  return total;
}

std::vector<std::uint64_t> Trace::aggregate_series() const {
  std::vector<std::uint64_t> agg(static_cast<std::size_t>(duration_), 0);
  for (const auto& s : counts_) {
    for (std::size_t t = 0; t < s.size(); ++t) agg[t] += s[t];
  }
  return agg;
}

std::vector<Minute> Trace::invocation_minutes(FunctionId f) const {
  std::vector<Minute> out;
  const auto& s = counts_.at(f);
  for (std::size_t t = 0; t < s.size(); ++t) {
    if (s[t] > 0) out.push_back(static_cast<Minute>(t));
  }
  return out;
}

Trace Trace::select_functions(std::span<const FunctionId> functions) const {
  Trace out(functions.size(), duration_);
  for (std::size_t i = 0; i < functions.size(); ++i) {
    const FunctionId f = functions[i];
    if (f >= counts_.size()) {
      throw std::out_of_range("Trace::select_functions: function id out of range");
    }
    out.names_[i] = names_[f];
    out.counts_[i] = counts_[f];
  }
  return out;
}

Trace Trace::slice(Minute begin, Minute end) const {
  if (begin < 0 || end > duration_ || begin > end) {
    throw std::out_of_range("Trace::slice: invalid range");
  }
  Trace out(counts_.size(), end - begin);
  for (std::size_t f = 0; f < counts_.size(); ++f) {
    out.names_[f] = names_[f];
    for (Minute t = begin; t < end; ++t) {
      out.counts_[f][static_cast<std::size_t>(t - begin)] =
          counts_[f][static_cast<std::size_t>(t)];
    }
  }
  return out;
}

void Trace::save_csv(const std::filesystem::path& path) const {
  util::CsvRow header{"function", "name"};
  for (Minute t = 0; t < duration_; ++t) {
    std::string column = "m";
    column += std::to_string(t);
    header.push_back(std::move(column));
  }
  util::CsvTable table(std::move(header));
  for (std::size_t f = 0; f < counts_.size(); ++f) {
    util::CsvRow row{std::to_string(f), names_[f]};
    row.reserve(2 + counts_[f].size());
    for (std::uint32_t c : counts_[f]) row.push_back(std::to_string(c));
    table.add_row(std::move(row));
  }
  table.write_file(path);
}

TraceResult<Trace> Trace::try_load_csv(const std::filesystem::path& path) {
  util::CsvTable table;
  try {
    table = util::CsvTable::read_file(path);
  } catch (const std::exception& e) {
    return TraceError{TraceErrorKind::kIo, path.string(), 0, e.what()};
  }
  if (table.header().size() < 2) {
    return TraceError{TraceErrorKind::kBadHeader, path.string(), 1,
                      "expected at least 'function,name' columns, got " +
                          std::to_string(table.header().size())};
  }
  const Minute duration = static_cast<Minute>(table.header().size()) - 2;
  Trace out(table.row_count(), duration);
  for (std::size_t f = 0; f < table.rows().size(); ++f) {
    const auto& row = table.rows()[f];
    const std::size_t line_no = f + 2;  // 1-based, after the header
    if (row.size() != table.header().size()) {
      return TraceError{TraceErrorKind::kMalformedRow, path.string(), line_no,
                        "expected " + std::to_string(table.header().size()) +
                            " columns, got " + std::to_string(row.size())};
    }
    out.names_[f] = row[1];
    for (Minute t = 0; t < duration; ++t) {
      const std::string& cell = row[static_cast<std::size_t>(t) + 2];
      const auto count = parse_invocation_count(cell);
      if (!count) {
        return TraceError{TraceErrorKind::kBadCount, path.string(), line_no,
                          "malformed count '" + cell + "' at minute " + std::to_string(t)};
      }
      out.counts_[f][static_cast<std::size_t>(t)] = *count;
    }
  }
  return out;
}

}  // namespace pulse::trace
