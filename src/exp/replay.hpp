#pragma once
// JSONL event replayer: reconstructs a run's per-minute cost and cold-start
// curves from a JsonlFileSink event stream, without re-running the
// simulation.
//
// The engine's kMinuteSample events (EngineConfig::emit_minute_samples)
// anchor the keep-alive memory curve — one sample per simulated minute with
// the end-of-minute resident MB and alive container count. Everything else
// (cold starts, evictions, faults) is counted from the typed events
// directly. Costing the memory curve at sim::kCentsPerMbHour, the rate
// every run uses, reproduces RunResult::total_keepalive_cost_usd exactly: the
// engine accrues cost as memory_mb(t) * 1 minute, which is precisely what
// the samples carry, and %.17g round-trips doubles bit-exactly.
//
// The parser accepts exactly the schema obs::format_event_jsonl emits. A
// malformed or unknown-type line is skipped and counted, never fatal — the
// replayer is a forensic tool and partial (truncated) streams are expected
// inputs. A minute that is not an integer in [0, trace::kMaxInvocationMinute)
// and a function or variant that is not an integer in its type's range make
// a line malformed.

#include <string>
#include <string_view>
#include <vector>

#include "obs/event.hpp"

namespace pulse::exp {

/// Parses one JSONL line in the obs::format_event_jsonl schema into `out`.
/// Returns false (leaving `out` unspecified) when the line is malformed or
/// names an unknown event type. `out.detail` is always left pointing at a
/// static empty string — TraceEvent's detail contract requires static
/// storage; pass `detail` to receive the parsed string instead.
[[nodiscard]] bool parse_event_jsonl(std::string_view line, obs::TraceEvent& out,
                                     std::string* detail = nullptr);

/// A run reconstructed from its event stream.
struct ReplayResult {
  /// Minutes covered: max event minute + 1 (0 for an empty stream).
  trace::Minute duration = 0;

  /// Events parsed / lines skipped as malformed or unknown.
  std::uint64_t events = 0;
  std::uint64_t skipped_lines = 0;

  /// Per-type event counts, indexed by EventType (size kEventTypeCount).
  std::vector<std::uint64_t> counts_by_type;

  /// Per-minute keep-alive memory (MB) and alive container count from
  /// kMinuteSample events; 0 at minutes without a sample. Size = duration.
  std::vector<double> memory_mb;
  std::vector<std::uint64_t> alive_containers;
  std::uint64_t minute_samples = 0;

  /// Per-minute cold-start counts (one kColdStart event = one cold start,
  /// matching RunResult::cold_starts). Size = duration.
  std::vector<std::uint64_t> cold_starts_per_minute;

  [[nodiscard]] std::uint64_t count(obs::EventType type) const noexcept {
    const auto i = static_cast<std::size_t>(type);
    return i < counts_by_type.size() ? counts_by_type[i] : 0;
  }

  [[nodiscard]] std::uint64_t total_cold_starts() const noexcept {
    return count(obs::EventType::kColdStart);
  }

  /// Cost of the reconstructed memory curve: sum over minutes of one
  /// minute's keep-alive at that minute's resident MB. Equals the run's
  /// total_keepalive_cost_usd when every minute carried a sample.
  [[nodiscard]] double total_keepalive_cost_usd() const noexcept;

  /// Peak of the reconstructed memory curve (0 for an empty stream).
  [[nodiscard]] double peak_memory_mb() const noexcept;
};

/// Feeds one parsed event into the reconstruction (grows the curves as the
/// covered duration extends). Exposed so callers with events already in
/// memory (tests, RingBufferSink::events()) can replay without a file.
void replay_event(ReplayResult& result, const obs::TraceEvent& event);

/// Replays a JsonlFileSink output file. Throws std::runtime_error when the
/// file cannot be opened; malformed lines are counted, not fatal.
[[nodiscard]] ReplayResult replay_events_file(const std::string& path);

}  // namespace pulse::exp
