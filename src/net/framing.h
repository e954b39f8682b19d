// Incremental JSONL framing, shared by every `ftbfs serve` front end.
//
// A transport hands the server arbitrary byte chunks: half a line, three
// lines and a fragment, one byte at a time. LineFramer reassembles
// newline-terminated request lines from that stream with bounded memory — a
// line longer than `max_line_bytes` flips the framer into discard mode (bytes
// are dropped, not buffered) until its newline arrives, then surfaces as one
// `oversized` callback so the stream can answer with a parse error instead of
// either buffering without bound or killing the stream. Whitespace-only lines
// are skipped: they are neither requests nor errors. Pure byte-level state
// machine: no allocation proportional to input beyond the one line buffer,
// no syscalls, trivially unit-testable (tests/test_protocol_fuzz.cpp).
#pragma once

#include <cstddef>
#include <string>

namespace ftbfs {

class LineFramer {
 public:
  explicit LineFramer(std::size_t max_line_bytes)
      : max_line_bytes_(max_line_bytes) {}

  // Feeds `n` bytes; invokes on_line(const std::string& line, bool oversized)
  // once per completed line, in input order. `line` has the newline (and one
  // trailing '\r', for telnet-style clients) stripped; for oversized lines it
  // is empty — the content was discarded, only the event is delivered.
  // Reentrancy: on_line must not feed this framer.
  template <typename OnLine>
  void feed(const char* data, std::size_t n, OnLine&& on_line) {
    for (std::size_t i = 0; i < n; ++i) {
      const char c = data[i];
      if (c == '\n') {
        emit(on_line);
      } else if (discarding_) {
        continue;
      } else if (buf_.size() >= max_line_bytes_) {
        // Over the cap mid-line: stop buffering, remember only the fact.
        discarding_ = true;
        buf_.clear();
      } else {
        buf_.push_back(c);
      }
    }
  }

  // End of stream: an unterminated final line is delivered as if its newline
  // had arrived, so `printf '{...}' | ftbfs serve` still gets its answer.
  template <typename OnLine>
  void finish(OnLine&& on_line) {
    if (mid_line()) emit(on_line);
  }

  // True when bytes of an unterminated line are pending (or being discarded).
  [[nodiscard]] bool mid_line() const { return !buf_.empty() || discarding_; }

  [[nodiscard]] std::size_t max_line_bytes() const { return max_line_bytes_; }

 private:
  template <typename OnLine>
  void emit(OnLine& on_line) {
    if (discarding_) {
      discarding_ = false;
      buf_.clear();
      on_line(buf_, /*oversized=*/true);
      return;
    }
    if (!buf_.empty() && buf_.back() == '\r') buf_.pop_back();
    if (buf_.find_first_not_of(" \t\r") != std::string::npos) {
      on_line(buf_, /*oversized=*/false);
    }
    buf_.clear();
  }

  std::string buf_;
  std::size_t max_line_bytes_;
  bool discarding_ = false;
};

}  // namespace ftbfs
