#pragma once
// Invocation trace at minute resolution.
//
// The paper replays two weeks of the Microsoft Azure Functions production
// trace for 12 functions. A Trace is the same shape: for each function, the
// number of invocations in every minute of the horizon. The simulator, the
// PULSE predictors, and the trace statistics all consume this type.

#include <cstdint>
#include <filesystem>
#include <span>
#include <string>
#include <vector>

#include "trace/errors.hpp"

namespace pulse::trace {

/// Simulation time in minutes since trace start.
using Minute = std::int64_t;

/// Index of a function within the trace/simulation.
using FunctionId = std::size_t;

constexpr Minute kMinutesPerDay = 24 * 60;

/// The 2021-format loaders reject an invocation that starts at or beyond
/// this minute as a bad timestamp: a start more than a year past the epoch
/// is corruption, and binning it would grow a series to match.
constexpr Minute kMaxInvocationMinute = 366 * kMinutesPerDay;

/// A trace either owns its series or is a read-only projection of another
/// trace's functions (project()). Both read every series through one row
/// pointer per function, so count() costs the same on either.
///
/// Projection rules:
///   * a projection borrows the source's per-minute series and copies only
///     the names. A write to the owning trace shows through every
///     projection of it, and destroying or reassigning the owner leaves them
///     dangling (moving it does not: the series stay where they are);
///   * copying an owned trace deep-copies its series; copying a projection
///     keeps borrowing the same source, and so does projecting a projection;
///   * set_count and add_invocations on a projection throw std::logic_error
///     (set_function_name is allowed: the names are the projection's own);
///   * every accessor keeps its contract: series, count and function_name on
///     an unknown function throw std::out_of_range.
class Trace {
 public:
  Trace() = default;
  Trace(const Trace& other);
  Trace& operator=(const Trace& other);
  Trace(Trace&&) noexcept = default;
  Trace& operator=(Trace&&) noexcept = default;

  /// Creates an empty trace of `function_count` functions over
  /// `duration_minutes` minutes. Function names default to "fn0", "fn1", ...
  Trace(std::size_t function_count, Minute duration_minutes);

  /// Adopts per-function series built elsewhere (the streaming loaders grow
  /// series incrementally and hand them over without copying). Series
  /// shorter than `duration_minutes` are zero-padded; longer ones throw.
  [[nodiscard]] static Trace from_columns(std::vector<std::string> names,
                                          std::vector<std::vector<std::uint32_t>> counts,
                                          Minute duration_minutes);

  /// Exact equality: same horizon, function names and per-minute counts,
  /// whether each side owns its series or borrows them.
  [[nodiscard]] bool operator==(const Trace& other) const noexcept;

  [[nodiscard]] std::size_t function_count() const noexcept { return rows_.size(); }
  [[nodiscard]] Minute duration() const noexcept { return duration_; }

  [[nodiscard]] const std::string& function_name(FunctionId f) const { return names_.at(f); }
  void set_function_name(FunctionId f, std::string name) { names_.at(f) = std::move(name); }

  /// Invocation count of function f at minute t (0 outside the horizon).
  /// Throws std::out_of_range for an unknown function inside the horizon.
  [[nodiscard]] std::uint32_t count(FunctionId f, Minute t) const {
    if (t < 0 || t >= duration_) return 0;
    if (f >= rows_.size()) throw_unknown_function();
    return rows_[f][static_cast<std::size_t>(t)];
  }

  /// Both throw std::logic_error on a projection.
  void set_count(FunctionId f, Minute t, std::uint32_t value);
  /// Adds `value` to f's count at minute t, saturating at 2^32 - 1.
  void add_invocations(FunctionId f, Minute t, std::uint32_t value = 1);

  /// Whole per-minute series of one function.
  [[nodiscard]] std::span<const std::uint32_t> series(FunctionId f) const {
    if (f >= rows_.size()) throw_unknown_function();
    return {rows_[f], static_cast<std::size_t>(duration_)};
  }

  /// Sum of invocations of function f over the whole horizon.
  [[nodiscard]] std::uint64_t total_invocations(FunctionId f) const;

  /// Sum of invocations across all functions over the whole horizon.
  [[nodiscard]] std::uint64_t total_invocations() const;

  /// Sum across functions at one minute — the "concurrent invocation volume"
  /// the paper's peak analysis looks at.
  [[nodiscard]] std::uint64_t invocations_at(Minute t) const;

  /// Per-minute aggregate series (length == duration()).
  [[nodiscard]] std::vector<std::uint64_t> aggregate_series() const;

  /// Minutes at which function f has at least one invocation, ascending.
  [[nodiscard]] std::vector<Minute> invocation_minutes(FunctionId f) const;

  /// Restricts the trace to [begin, end) minutes (used by the peak-window
  /// experiments of Tables II/III).
  [[nodiscard]] Trace slice(Minute begin, Minute end) const;

  /// Read-only projection onto a subset of this trace's functions: the
  /// result's function i is this trace's functions[i]. It borrows the
  /// series (see the projection rules above) and copies the names.
  /// Duplicate or unordered ids are allowed; an out-of-range id throws
  /// std::out_of_range. The cluster engine builds its shard traces with
  /// this. A temporary has nothing to lend, so projecting one does not
  /// compile.
  [[nodiscard]] Trace project(std::span<const FunctionId> functions) const&;
  Trace project(std::span<const FunctionId> functions) const&& = delete;

  /// CSV round trip. Columns: function,name then one count per minute.
  void save_csv(const std::filesystem::path& path) const;

  /// Non-throwing loader: malformed input (unreadable file, bad header,
  /// ragged rows, count cells that are not plain non-negative integers)
  /// comes back as a TraceError naming the file, row and cell.
  [[nodiscard]] static TraceResult<Trace> try_load_csv(const std::filesystem::path& path);

 private:
  [[noreturn]] static void throw_unknown_function();
  /// Points rows_ at counts_ (an owned trace's invariant).
  void point_rows_at_counts();
  /// f's cell at minute t, for writing; throws on a projection.
  std::uint32_t& mutable_cell(FunctionId f, Minute t, const char* caller);

  Minute duration_ = 0;
  /// The series an owned trace holds; empty in a projection.
  std::vector<std::vector<std::uint32_t>> counts_;
  /// rows_[f]: first minute of f's series, in counts_ or in the source.
  std::vector<const std::uint32_t*> rows_;
  std::vector<std::string> names_;
  bool borrowed_ = false;
};

}  // namespace pulse::trace
