// In-memory spans for the traced replay. The harness opens a span around
// each call it makes into a layer; spans nest (a span's parent is the span
// open when it began) and the spans of one request share its id. Nothing is
// written until the run ends.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util.h"

namespace perfbench {

class Tracer {
 public:
  struct Record {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int32_t parent;  // index of the enclosing span, -1 for a root
    std::uint64_t req;    // request id shared by one request's spans
  };

  bool enabled = true;

  std::int32_t open(const char* name, std::uint64_t req) {
    if (!enabled) return -1;
    const auto idx = static_cast<std::int32_t>(spans_.size());
    spans_.push_back({name, now_ns(), 0, stack_.empty() ? -1 : stack_.back(), req});
    stack_.push_back(idx);
    return idx;
  }
  void close(std::int32_t idx) {
    if (idx < 0) return;
    spans_[idx].end_ns = now_ns();
    stack_.pop_back();
  }
  // Renames a span once its outcome is known (a cache hit, a repair BFS, ...).
  void rename(std::int32_t idx, const char* name) {
    if (idx >= 0) spans_[idx].name = name;
  }

  [[nodiscard]] const std::vector<Record>& spans() const { return spans_; }
  void add(const Record& r) { spans_.push_back(r); }
  // Appends another tracer's closed spans, keeping their parent links.
  void append(const Tracer& other) {
    const auto base = static_cast<std::int32_t>(spans_.size());
    for (Record r : other.spans_) {
      if (r.parent >= 0) r.parent += base;
      spans_.push_back(r);
    }
  }

  // Durations of every span named `name`, in microseconds.
  [[nodiscard]] std::vector<double> durations_us(const std::string& name) const;

  // Self time of every span: its duration minus the parts of it its child
  // spans cover (children of one parent never overlap).
  [[nodiscard]] std::vector<std::int64_t> self_ns() const;

  // Writes one JSON object per span (name, start, end, parent, request id,
  // self time) to `path`.
  void write_jsonl(const std::string& path) const;

  // Prints total and self time per span name, largest self time first.
  void print_self_table() const;

 private:
  std::vector<Record> spans_;
  std::vector<std::int32_t> stack_;
};

class Span {
 public:
  Span(Tracer& t, const char* name, std::uint64_t req = 0)
      : t_(&t), idx_(t.open(name, req)) {}
  ~Span() { t_->close(idx_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  void rename(const char* name) { t_->rename(idx_, name); }

 private:
  Tracer* t_;
  std::int32_t idx_;
};

}  // namespace perfbench
