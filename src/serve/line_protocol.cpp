#include "serve/line_protocol.hpp"

#include <charconv>
#include <cstdint>
#include <istream>
#include <limits>
#include <ostream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>

namespace pulse::serve {

namespace {

constexpr std::uint64_t kMaxMinute = static_cast<std::uint64_t>(
    std::numeric_limits<trace::Minute>::max());
constexpr std::uint64_t kMaxCount = std::numeric_limits<std::uint32_t>::max();

bool is_blank(char c) { return c == ' ' || c == '\t' || c == '\r'; }

void skip_blanks(const char*& p, const char* end) {
  while (p != end && is_blank(*p)) ++p;
}

/// Matches `word` at p when a blank or the end of the line follows it.
bool keyword(const char*& p, const char* end, std::string_view word) {
  if (static_cast<std::size_t>(end - p) < word.size() ||
      std::string_view(p, word.size()) != word) {
    return false;
  }
  const char* q = p + word.size();
  if (q != end && !is_blank(*q)) return false;
  p = q;
  return true;
}

/// Reads the next blank-separated cell as plain decimal digits. A sign, a
/// stray byte or a value past 2^64 - 1 makes the cell malformed.
bool next_u64(const char*& p, const char* end, std::uint64_t& value) {
  skip_blanks(p, end);
  const auto [q, ec] = std::from_chars(p, end, value);
  if (ec != std::errc() || (q != end && !is_blank(*q))) return false;
  p = q;
  skip_blanks(p, end);
  return true;
}

}  // namespace

LineProtocolSource::LineProtocolSource(std::istream& in, Options options)
    : in_(&in), options_(options) {
  line_.reserve(256);
}

bool LineProtocolSource::next(StreamEvent& out) {
  if (done_) return false;
  while (std::getline(*in_, line_)) {
    const char* p = line_.data();
    const char* const end = p + line_.size();
    skip_blanks(p, end);
    if (p == end || *p == '#') continue;

    if (keyword(p, end, "inv")) {
      std::uint64_t minute = 0;
      std::uint64_t function = 0;
      std::uint64_t count = 1;
      if (next_u64(p, end, minute) && next_u64(p, end, function) &&
          (p == end || next_u64(p, end, count)) && p == end && minute <= kMaxMinute &&
          count != 0 && count <= kMaxCount) {
        out = {EventKind::kInvocation, static_cast<trace::Minute>(minute),
               static_cast<trace::FunctionId>(function), static_cast<std::uint32_t>(count)};
        return true;
      }
      reject("bad inv line");
      continue;
    }

    if (keyword(p, end, "tick")) {
      std::uint64_t minute = 0;
      if (next_u64(p, end, minute) && p == end && minute <= kMaxMinute) {
        out = {EventKind::kTick, static_cast<trace::Minute>(minute), 0, 0};
        return true;
      }
      reject("bad tick line");
      continue;
    }

    if (keyword(p, end, "end")) {
      skip_blanks(p, end);
      if (p == end) {
        done_ = true;
        out = {EventKind::kEnd, 0, 0, 0};
        return true;
      }
      reject("bad end line");
      continue;
    }

    reject("unknown line");
  }
  // EOF without an explicit `end` still terminates the stream cleanly.
  done_ = true;
  out = {EventKind::kEnd, 0, 0, 0};
  return true;
}

void LineProtocolSource::reject(const char* what) {
  ++malformed_;
  if (options_.strict) {
    throw std::runtime_error(std::string("line protocol: ") + what + ": " + line_);
  }
}

void write_line_protocol(const trace::Trace& trace, std::ostream& out) {
  for (trace::Minute t = 0; t < trace.duration(); ++t) {
    for (trace::FunctionId f = 0; f < trace.function_count(); ++f) {
      const std::uint32_t c = trace.count(f, t);
      if (c == 0) continue;
      out << "inv " << t << ' ' << f;
      if (c != 1) out << ' ' << c;
      out << '\n';
    }
    out << "tick " << t << '\n';
  }
  out << "end\n";
}

}  // namespace pulse::serve
