#pragma once
// Text line protocol for feeding an OnlineServer from stdin, a FIFO, or a
// socket pipe. One event per line:
//
//   inv <minute> <function> [count]   invocation(s) of <function> at <minute>
//   tick <minute>                     minute <minute> is complete
//   end                               end of stream
//   # ...                             comment (ignored), as are blank lines
//
// Cells are separated by spaces, tabs or CRs and are plain decimal digits:
// a sign, a stray byte, a count of 0 or past 4294967295, or a minute past
// the largest trace::Minute makes the line malformed. Minutes are
// non-decreasing in a well-formed stream; the server decides what to do
// with stragglers (ServeConfig::strict). Malformed lines are counted and
// skipped by default, or throw in strict mode. The reader reuses one line
// buffer, so steady-state parsing does not allocate.

#include <cstdint>
#include <iosfwd>
#include <string>

#include "serve/source.hpp"

namespace pulse::serve {

class LineProtocolSource final : public InvocationSource {
 public:
  struct Options {
    /// Throw std::runtime_error on a malformed line instead of skipping it.
    bool strict = false;
  };

  /// The stream must outlive the source.
  explicit LineProtocolSource(std::istream& in) : LineProtocolSource(in, Options()) {}
  LineProtocolSource(std::istream& in, Options options);

  bool next(StreamEvent& out) override;

  [[nodiscard]] std::uint64_t malformed_lines() const noexcept { return malformed_; }

 private:
  /// Counts a malformed line, or throws in strict mode.
  void reject(const char* what);

  std::istream* in_;
  Options options_;
  std::string line_;
  std::uint64_t malformed_ = 0;
  bool done_ = false;
};

/// Writes `trace` as a protocol stream (inv lines per minute, a tick per
/// minute, one final `end`) — the inverse of LineProtocolSource composed
/// with an OnlineServer over the same deployment.
void write_line_protocol(const trace::Trace& trace, std::ostream& out);

}  // namespace pulse::serve
