#include "trace/trace.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>

#include "util/csv.hpp"

namespace pulse::trace {

Trace::Trace(std::size_t function_count, Minute duration_minutes)
    : duration_(duration_minutes) {
  if (duration_minutes < 0) throw std::invalid_argument("Trace: negative duration");
  counts_.assign(function_count, std::vector<std::uint32_t>(static_cast<std::size_t>(duration_minutes), 0));
  point_rows_at_counts();
  names_.reserve(function_count);
  for (std::size_t f = 0; f < function_count; ++f) names_.push_back("fn" + std::to_string(f));
}

Trace::Trace(const Trace& other)
    : duration_(other.duration_),
      counts_(other.counts_),
      names_(other.names_),
      borrowed_(other.borrowed_) {
  if (borrowed_) {
    rows_ = other.rows_;
  } else {
    point_rows_at_counts();
  }
}

Trace& Trace::operator=(const Trace& other) {
  if (this != &other) *this = Trace(other);
  return *this;
}

void Trace::point_rows_at_counts() {
  rows_.clear();
  rows_.reserve(counts_.size());
  for (const auto& s : counts_) rows_.push_back(s.data());
}

bool Trace::operator==(const Trace& other) const noexcept {
  // One name per row: equal names mean equal function counts.
  if (duration_ != other.duration_ || names_ != other.names_) return false;
  const auto minutes = static_cast<std::size_t>(duration_);
  for (std::size_t f = 0; f < rows_.size(); ++f) {
    if (!std::equal(rows_[f], rows_[f] + minutes, other.rows_[f])) return false;
  }
  return true;
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
  out.point_rows_at_counts();
  return out;
}

void Trace::throw_unknown_function() {
  throw std::out_of_range("Trace: function index out of range");
}

std::uint32_t& Trace::mutable_cell(FunctionId f, Minute t, const char* caller) {
  if (borrowed_) throw std::logic_error(std::string(caller) + ": trace is a read-only projection");
  if (t < 0 || t >= duration_) throw std::out_of_range(std::string(caller) + ": minute out of range");
  if (f >= counts_.size()) throw_unknown_function();
  return counts_[f][static_cast<std::size_t>(t)];
}

void Trace::set_count(FunctionId f, Minute t, std::uint32_t value) {
  mutable_cell(f, t, "Trace::set_count") = value;
}

void Trace::add_invocations(FunctionId f, Minute t, std::uint32_t value) {
  // Saturating, like util::poisson: a sum past 2^32 - 1 stays there.
  std::uint32_t& cell = mutable_cell(f, t, "Trace::add_invocations");
  const std::uint32_t sum = cell + value;
  cell = sum < cell ? std::numeric_limits<std::uint32_t>::max() : sum;
}

std::uint64_t Trace::total_invocations(FunctionId f) const {
  const auto s = series(f);
  return std::accumulate(s.begin(), s.end(), std::uint64_t{0});
}

std::uint64_t Trace::total_invocations() const {
  std::uint64_t total = 0;
  for (std::size_t f = 0; f < rows_.size(); ++f) total += total_invocations(f);
  return total;
}

std::uint64_t Trace::invocations_at(Minute t) const {
  if (t < 0 || t >= duration_) return 0;
  std::uint64_t total = 0;
  for (const std::uint32_t* row : rows_) total += row[static_cast<std::size_t>(t)];
  return total;
}

std::vector<std::uint64_t> Trace::aggregate_series() const {
  std::vector<std::uint64_t> agg(static_cast<std::size_t>(duration_), 0);
  for (const std::uint32_t* row : rows_) {
    for (std::size_t t = 0; t < agg.size(); ++t) agg[t] += row[t];
  }
  return agg;
}

std::vector<Minute> Trace::invocation_minutes(FunctionId f) const {
  std::vector<Minute> out;
  const auto s = series(f);
  for (std::size_t t = 0; t < s.size(); ++t) {
    if (s[t] > 0) out.push_back(static_cast<Minute>(t));
  }
  return out;
}

Trace Trace::project(std::span<const FunctionId> functions) const& {
  Trace out;
  out.duration_ = duration_;
  out.borrowed_ = true;
  out.rows_.reserve(functions.size());
  out.names_.reserve(functions.size());
  for (const FunctionId f : functions) {
    if (f >= rows_.size()) throw std::out_of_range("Trace::project: function id out of range");
    out.rows_.push_back(rows_[f]);
    out.names_.push_back(names_[f]);
  }
  return out;
}

Trace Trace::slice(Minute begin, Minute end) const {
  if (begin < 0 || end > duration_ || begin > end) {
    throw std::out_of_range("Trace::slice: invalid range");
  }
  Trace out(rows_.size(), end - begin);
  for (std::size_t f = 0; f < rows_.size(); ++f) {
    out.names_[f] = names_[f];
    std::copy(rows_[f] + begin, rows_[f] + end, out.counts_[f].begin());
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
  for (std::size_t f = 0; f < rows_.size(); ++f) {
    util::CsvRow row{std::to_string(f), names_[f]};
    row.reserve(2 + static_cast<std::size_t>(duration_));
    for (std::uint32_t c : series(f)) row.push_back(std::to_string(c));
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
