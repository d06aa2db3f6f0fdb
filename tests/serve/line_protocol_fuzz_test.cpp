// Differential fuzzing of the serving line protocol: seeded streams of
// inv / tick / end / comment lines, most of them mutated (digits near 2^32,
// 2^63 and 2^64, signs, tabs, CRs, stray bytes, trailing junk), are read by
// LineProtocolSource and by a reference tokenizer written here from the
// protocol's grammar. Every stream must yield the same events and the same
// malformed_lines() count. A second test round-trips random traces through
// write_line_protocol.

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "serve/line_protocol.hpp"
#include "serve/source.hpp"
#include "util/rng.hpp"

namespace pulse::serve {
namespace {

bool same_event(const StreamEvent& a, const StreamEvent& b) {
  if (a.kind != b.kind) return false;
  if (a.kind == EventKind::kEnd) return true;  // an end carries no fields
  return a.minute == b.minute && a.function == b.function && a.count == b.count;
}

std::string describe(const StreamEvent& e) {
  switch (e.kind) {
    case EventKind::kInvocation:
      return "inv " + std::to_string(e.minute) + " " + std::to_string(e.function) + " " +
             std::to_string(e.count);
    case EventKind::kTick: return "tick " + std::to_string(e.minute);
    case EventKind::kEnd: return "end";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Reference tokenizer: split the line into words at spaces, tabs and CRs,
// then read each word as a whole.
// ---------------------------------------------------------------------------

std::vector<std::string_view> split_words(std::string_view line) {
  std::vector<std::string_view> words;
  std::size_t i = 0;
  while (i < line.size()) {
    const auto blank = [&](std::size_t k) {
      return line[k] == ' ' || line[k] == '\t' || line[k] == '\r';
    };
    while (i < line.size() && blank(i)) ++i;
    const std::size_t start = i;
    while (i < line.size() && !blank(i)) ++i;
    if (i > start) words.push_back(line.substr(start, i - start));
  }
  return words;
}

/// A word of decimal digits only, at most 2^64 - 1.
std::optional<std::uint64_t> reference_u64(std::string_view word) {
  if (word.empty()) return std::nullopt;
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t value = 0;
  for (const char c : word) {
    if (c < '0' || c > '9') return std::nullopt;
    const auto digit = static_cast<std::uint64_t>(c - '0');
    if (value > (kMax - digit) / 10) return std::nullopt;
    value = value * 10 + digit;
  }
  return value;
}

enum class Outcome { kSkip, kMalformed, kEvent };

Outcome reference_line(std::string_view line, StreamEvent& out) {
  const std::vector<std::string_view> words = split_words(line);
  if (words.empty() || words[0].front() == '#') return Outcome::kSkip;
  constexpr auto kMaxMinute =
      static_cast<std::uint64_t>(std::numeric_limits<trace::Minute>::max());
  if (words[0] == "inv" && (words.size() == 3 || words.size() == 4)) {
    const auto minute = reference_u64(words[1]);
    const auto function = reference_u64(words[2]);
    const std::optional<std::uint64_t> count =
        words.size() == 4 ? reference_u64(words[3]) : std::uint64_t{1};
    if (!minute || !function || !count || *minute > kMaxMinute || *count == 0 ||
        *count > std::numeric_limits<std::uint32_t>::max()) {
      return Outcome::kMalformed;
    }
    out = StreamEvent{EventKind::kInvocation, static_cast<trace::Minute>(*minute),
                      static_cast<trace::FunctionId>(*function),
                      static_cast<std::uint32_t>(*count)};
    return Outcome::kEvent;
  }
  if (words[0] == "tick" && words.size() == 2) {
    const auto minute = reference_u64(words[1]);
    if (!minute || *minute > kMaxMinute) return Outcome::kMalformed;
    out = {EventKind::kTick, static_cast<trace::Minute>(*minute), 0, 0};
    return Outcome::kEvent;
  }
  if (words[0] == "end" && words.size() == 1) {
    out = {EventKind::kEnd, 0, 0, 0};
    return Outcome::kEvent;
  }
  return Outcome::kMalformed;
}

// ---------------------------------------------------------------------------
// Line generator
// ---------------------------------------------------------------------------

std::string random_number(util::Pcg32& rng) {
  std::string digits;
  switch (rng.bounded(6)) {
    case 0:
    case 1:
    case 2: digits = std::to_string(rng.bounded(3000)); break;
    case 3: {  // within 100 of 2^32, 2^63 or 2^64, on either side
      const std::uint64_t offset = rng.bounded(100);
      const bool below = rng.bernoulli(0.5);
      const std::uint32_t power = rng.bounded(3);
      if (power < 2) {
        const std::uint64_t edge = power == 0 ? 1ULL << 32 : 1ULL << 63;
        digits = std::to_string(below ? edge - 1 - offset : edge + offset);
      } else {  // 2^64 = 18446744073709551616 does not fit in uint64_t
        digits = below ? std::to_string(std::numeric_limits<std::uint64_t>::max() - offset)
                       : "1844674407370955" + std::to_string(1616 + offset);
      }
      break;
    }
    case 4: {  // 10-20 random digits
      const std::uint32_t n = 10 + rng.bounded(11);
      for (std::uint32_t i = 0; i < n; ++i) digits += static_cast<char>('0' + rng.bounded(10));
      break;
    }
    default:  // leading zeros
      digits = std::string(1 + rng.bounded(5), '0') + std::to_string(rng.bounded(100));
      break;
  }
  return digits;
}

std::string random_blanks(util::Pcg32& rng, std::uint32_t min_count) {
  static constexpr char kBlanks[] = {' ', ' ', ' ', '\t', '\r'};
  std::string out;
  const std::uint32_t n = min_count + rng.bounded(3);
  for (std::uint32_t i = 0; i < n; ++i) out += kBlanks[rng.bounded(std::size(kBlanks))];
  return out;
}

std::string random_line(util::Pcg32& rng) {
  std::vector<std::string> words;
  const std::uint32_t kind = rng.bounded(100);
  if (kind < 60) {
    words = {"inv", random_number(rng), random_number(rng)};
    if (rng.bernoulli(0.5)) words.push_back(random_number(rng));
  } else if (kind < 88) {
    words = {"tick", random_number(rng)};
  } else if (kind < 91) {
    words = {"end"};
  } else if (kind < 96) {
    words = {"#", "inv", random_number(rng)};
  } else {
    words = {};
  }
  std::string line = rng.bernoulli(0.2) ? random_blanks(rng, 1) : "";
  for (std::size_t i = 0; i < words.size(); ++i) {
    if (i > 0) line += rng.bernoulli(0.8) ? std::string(" ") : random_blanks(rng, 1);
    line += words[i];
  }
  if (rng.bernoulli(0.2)) line += random_blanks(rng, 1);
  return line;
}

char random_byte(util::Pcg32& rng) {
  static constexpr char kStray[] = {' ', '\t', '\r', '\v', '\f', '+', '-', '#',
                                    'x', '.', '0', '9', '\0'};
  const char c = rng.bernoulli(0.6) ? kStray[rng.bounded(std::size(kStray))]
                                    : static_cast<char>(rng.bounded(256));
  return c == '\n' ? ' ' : c;  // one line stays one line
}

void mutate(std::string& line, util::Pcg32& rng) {
  static constexpr const char* kJunk[] = {"x", "#", "0", "junk", "1 2", "\t", "-", "inv"};
  const auto at = [&](std::size_t extra) {
    return static_cast<std::ptrdiff_t>(
        rng.bounded(static_cast<std::uint32_t>(line.size() + extra)));
  };
  switch (rng.bounded(7)) {
    case 0: {  // sign in front of a digit
      const std::size_t digit = line.find_first_of("0123456789", static_cast<std::size_t>(at(1)));
      if (digit != std::string::npos) {
        line.insert(line.begin() + static_cast<std::ptrdiff_t>(digit),
                    rng.bernoulli(0.5) ? '-' : '+');
      }
      break;
    }
    case 1:  // stray byte inserted
      line.insert(line.begin() + at(1), random_byte(rng));
      break;
    case 2:  // one byte overwritten
      if (!line.empty()) line[static_cast<std::size_t>(at(0))] = random_byte(rng);
      break;
    case 3:  // one byte deleted
      if (!line.empty()) line.erase(line.begin() + at(0));
      break;
    case 4:  // truncated
      line.resize(static_cast<std::size_t>(at(1)));
      break;
    case 5:  // trailing junk, with or without a blank before it
      line += rng.bernoulli(0.7) ? " " : "";
      line += kJunk[rng.bounded(std::size(kJunk))];
      break;
    default:  // a number replaced by a digit run near a field limit
      line = std::string(rng.bernoulli(0.5) ? "inv 0 " : "tick ") + random_number(rng);
      break;
  }
}

TEST(LineProtocolFuzz, MatchesReferenceTokenizer) {
  constexpr std::size_t kStreams = 10'000;
  constexpr std::size_t kLinesPerStream = 24;
  util::Pcg32 rng(/*seed=*/2024, /*stream=*/17);
  std::vector<std::string> lines;
  std::vector<StreamEvent> want;
  std::vector<StreamEvent> got;
  std::size_t mismatched_streams = 0;
  std::uint64_t total_lines = 0;
  std::uint64_t total_malformed = 0;
  std::uint64_t total_events = 0;

  for (std::size_t s = 0; s < kStreams; ++s) {
    lines.clear();
    std::string text;
    for (std::size_t i = 0; i < kLinesPerStream; ++i) {
      std::string line = random_line(rng);
      if (rng.bernoulli(0.5)) mutate(line, rng);
      if (rng.bernoulli(0.2)) mutate(line, rng);
      text += line;
      text += '\n';
      lines.push_back(std::move(line));
    }

    // What the reference says the stream holds, up to the first valid end.
    want.clear();
    std::uint64_t want_malformed = 0;
    std::optional<std::size_t> first_malformed;
    bool ended = false;
    for (std::size_t i = 0; i < lines.size() && !ended; ++i) {
      StreamEvent e;
      const Outcome outcome = reference_line(lines[i], e);
      ++total_lines;
      if (outcome == Outcome::kMalformed) {
        ++want_malformed;
        if (!first_malformed) first_malformed = want.size();
      } else if (outcome == Outcome::kEvent) {
        want.push_back(e);
        ended = e.kind == EventKind::kEnd;
      }
    }
    if (!ended) want.push_back({EventKind::kEnd, 0, 0, 0});  // synthesized at EOF
    total_malformed += want_malformed;
    total_events += want.size();

    std::istringstream in(text);
    LineProtocolSource source(in);
    got.clear();
    StreamEvent e;
    while (source.next(e)) got.push_back(e);

    bool same = got.size() == want.size() && source.malformed_lines() == want_malformed;
    for (std::size_t i = 0; same && i < got.size(); ++i) same = same_event(got[i], want[i]);

    // Strict mode throws exactly at the first malformed line.
    std::istringstream strict_in(text);
    LineProtocolSource strict(strict_in, {.strict = true});
    std::size_t strict_events = 0;
    bool threw = false;
    try {
      while (strict.next(e)) ++strict_events;
    } catch (const std::runtime_error&) {
      threw = true;
    }
    same = same && threw == first_malformed.has_value() &&
           strict_events == (first_malformed ? *first_malformed : want.size());

    if (!same && ++mismatched_streams <= 5) {
      std::string report = "stream " + std::to_string(s) + ": malformed " +
                           std::to_string(source.malformed_lines()) + " vs reference " +
                           std::to_string(want_malformed) + "\n";
      for (const std::string& line : lines) report += "  line '" + line + "'\n";
      for (const StreamEvent& ev : got) report += "  got  " + describe(ev) + "\n";
      for (const StreamEvent& ev : want) report += "  want " + describe(ev) + "\n";
      ADD_FAILURE() << report;
    }
  }
  EXPECT_EQ(mismatched_streams, 0u);
  // The generator must exercise both sides of the grammar.
  EXPECT_GT(total_malformed, total_lines / 10);
  EXPECT_GT(total_events, total_lines / 3);
}

// Random traces, including counts at the uint32 limit, survive
// write_line_protocol -> LineProtocolSource as the ReplaySource event order.
TEST(LineProtocolFuzz, WriterRoundTripsRandomTraces) {
  util::Pcg32 rng(/*seed=*/7, /*stream=*/3);
  for (int round = 0; round < 200; ++round) {
    const std::size_t functions = 1 + rng.bounded(12);
    const trace::Minute duration = 1 + rng.bounded(150);
    trace::Trace trace(functions, duration);
    for (trace::FunctionId f = 0; f < functions; ++f) {
      for (trace::Minute t = 0; t < duration; ++t) {
        const std::uint32_t roll = rng.bounded(100);
        if (roll < 70) continue;
        trace.set_count(f, t,
                        roll < 95 ? 1 + rng.bounded(5)
                                  : std::numeric_limits<std::uint32_t>::max() -
                                        rng.bounded(3));
      }
    }

    std::ostringstream encoded;
    write_line_protocol(trace, encoded);
    std::istringstream decoded(encoded.str());
    LineProtocolSource source(decoded, {.strict = true});
    ReplaySource replay(trace);
    StreamEvent got;
    StreamEvent want;
    std::size_t events = 0;
    while (replay.next(want)) {
      ASSERT_TRUE(source.next(got)) << "round " << round << " event " << events;
      ASSERT_TRUE(same_event(got, want))
          << "round " << round << " event " << events << ": " << describe(got) << " vs "
          << describe(want);
      ++events;
    }
    EXPECT_FALSE(source.next(got)) << "round " << round;
    EXPECT_EQ(source.malformed_lines(), 0u) << "round " << round;
  }
}

}  // namespace
}  // namespace pulse::serve
