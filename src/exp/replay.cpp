#include "exp/replay.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <stdexcept>

#include "obs/trace_sink.hpp"
#include "sim/cost_model.hpp"

namespace pulse::exp {

namespace {

/// Function ids past 2^53 are not exact in a double; no catalog comes near.
constexpr double kMaxFunction = 9007199254740992.0;

/// Position just past `"key":` in `line`, or npos.
std::size_t after_key(std::string_view line, std::string_view key) {
  std::string pattern;
  pattern.reserve(key.size() + 3);
  pattern += '"';
  pattern += key;
  pattern += "\":";
  const std::size_t at = line.find(pattern);
  return at == std::string_view::npos ? std::string_view::npos : at + pattern.size();
}

/// Parses the number starting at `pos` (runs to the next ',' or '}').
/// strtod/strtoll need a NUL-terminated buffer; numbers in this schema are
/// at most 24 chars (%.17g), so a stack copy is enough.
bool parse_number(std::string_view line, std::size_t pos, double& out) {
  if (pos >= line.size()) return false;
  char buf[32];
  std::size_t n = 0;
  while (pos < line.size() && n + 1 < sizeof buf && line[pos] != ',' && line[pos] != '}') {
    buf[n++] = line[pos++];
  }
  buf[n] = '\0';
  char* end = nullptr;
  out = std::strtod(buf, &end);
  return end != buf;
}

/// Parses an integer in [lo, hi) at `pos`. A fraction, NaN or out-of-range
/// value is malformed: a cast of it would be undefined, and the replayer
/// indexes its curves by the minute.
bool parse_integer(std::string_view line, std::size_t pos, double lo, double hi,
                   double& out) {
  return parse_number(line, pos, out) && out >= lo && out < hi && std::floor(out) == out;
}

}  // namespace

bool parse_event_jsonl(std::string_view line, obs::TraceEvent& out, std::string* detail) {
  out = obs::TraceEvent{};

  // type: required, must name a known EventType.
  std::size_t pos = after_key(line, "type");
  if (pos == std::string_view::npos || pos >= line.size() || line[pos] != '"') return false;
  const std::size_t type_end = line.find('"', pos + 1);
  if (type_end == std::string_view::npos) return false;
  const std::string_view type_name = line.substr(pos + 1, type_end - pos - 1);
  bool known = false;
  for (std::size_t i = 0; i < obs::kEventTypeCount; ++i) {
    const auto type = static_cast<obs::EventType>(i);
    if (type_name == obs::to_string(type)) {
      out.type = type;
      known = true;
      break;
    }
  }
  if (!known) return false;

  // minute and value: required numerics.
  double number = 0.0;
  pos = after_key(line, "minute");
  if (pos == std::string_view::npos ||
      !parse_integer(line, pos, 0.0, static_cast<double>(trace::kMaxInvocationMinute),
                     number)) {
    return false;
  }
  out.minute = static_cast<trace::Minute>(number);
  pos = after_key(line, "value");
  if (pos == std::string_view::npos || !parse_number(line, pos, out.value)) return false;

  // function and variant: optional (the writer omits kNoFunction / -1), but
  // present ones must be in range for their types.
  pos = after_key(line, "function");
  if (pos != std::string_view::npos) {
    if (!parse_integer(line, pos, 0.0, kMaxFunction, number)) return false;
    out.function = static_cast<trace::FunctionId>(number);
  }
  pos = after_key(line, "variant");
  if (pos != std::string_view::npos) {
    if (!parse_integer(line, pos, std::numeric_limits<std::int32_t>::min(),
                       std::numeric_limits<std::int32_t>::max() + 1.0, number)) {
      return false;
    }
    out.variant = static_cast<std::int32_t>(number);
  }

  if (detail != nullptr) {
    detail->clear();
    pos = after_key(line, "detail");
    if (pos != std::string_view::npos && pos < line.size() && line[pos] == '"') {
      const std::size_t end = line.find('"', pos + 1);
      if (end != std::string_view::npos) {
        detail->assign(line.substr(pos + 1, end - pos - 1));
      }
    }
  }
  return true;
}

void replay_event(ReplayResult& result, const obs::TraceEvent& event) {
  if (result.counts_by_type.empty()) result.counts_by_type.assign(obs::kEventTypeCount, 0);
  ++result.events;
  ++result.counts_by_type[static_cast<std::size_t>(event.type)];

  if (event.minute >= result.duration) {
    result.duration = event.minute + 1;
    const auto d = static_cast<std::size_t>(result.duration);
    result.memory_mb.resize(d, 0.0);
    result.alive_containers.resize(d, 0);
    result.cold_starts_per_minute.resize(d, 0);
  }
  const auto t = static_cast<std::size_t>(event.minute);

  switch (event.type) {
    case obs::EventType::kMinuteSample:
      result.memory_mb[t] = event.value;
      result.alive_containers[t] =
          event.variant >= 0 ? static_cast<std::uint64_t>(event.variant) : 0;
      ++result.minute_samples;
      break;
    case obs::EventType::kColdStart:
      ++result.cold_starts_per_minute[t];
      break;
    default:
      break;
  }
}

double ReplayResult::total_keepalive_cost_usd() const noexcept {
  // Same accumulation the engine performs: one minute of keep-alive at each
  // minute's resident MB, summed in minute order — bit-identical to
  // RunResult::total_keepalive_cost_usd when every minute carried a sample.
  double total = 0.0;
  for (const double mb : memory_mb) total += sim::keepalive_cost_usd(mb, 1.0);
  return total;
}

double ReplayResult::peak_memory_mb() const noexcept {
  double peak = 0.0;
  for (const double mb : memory_mb) peak = std::max(peak, mb);
  return peak;
}

ReplayResult replay_events_file(const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) {
    throw std::runtime_error("replay_events_file: cannot open " + path);
  }
  ReplayResult result;
  result.counts_by_type.assign(obs::kEventTypeCount, 0);
  std::string line;
  obs::TraceEvent event;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (parse_event_jsonl(line, event)) {
      replay_event(result, event);
    } else {
      ++result.skipped_lines;
    }
  }
  return result;
}

}  // namespace pulse::exp
