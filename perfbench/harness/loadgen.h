// Single-threaded request generator over one or more ordered channels (a
// stdin/stdout pipe pair, or TCP connections to `serve --listen`).
//
// closed(): each channel keeps `window` requests outstanding and sends the
// next one only when an answer arrives — callers that wait for replies.
// open(): requests are due on a fixed schedule at `rate` per second, spread
// round-robin over the channels, and each is timed from its due time, so a
// stall is charged to every request it delays. The generator records how
// late it sent each request and how many requests were outstanding, and
// marks the phase invalid when it fell behind or the backlog kept growing.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct Channel {
  int wfd = -1;
  int rfd = -1;  // equal to wfd for a socket
  std::string out;
  std::size_t out_off = 0;
  std::string in;
  struct Pending {
    std::uint64_t id;
    std::int64_t due_ns;  // 0 in the closed loop
    std::int64_t sent_ns;
  };
  std::deque<Pending> pending;
  bool dead = false;
};

struct PhaseStats {
  std::string name;
  std::uint64_t sent = 0, completed = 0, bad = 0, transport_errors = 0;
  std::int64_t start_ns = 0, last_done_ns = 0;
  std::vector<double> latency_ms;   // per completed request
  std::vector<std::int64_t> from_ns;  // its due (open) or send (closed) time
  std::vector<std::int64_t> done_ns;  // when its answer arrived
  std::vector<double> lateness_ms;  // open loop: send time minus due time
  std::vector<std::uint64_t> backlog;  // open loop: outstanding, every 50 ms
  bool valid = true;
  std::string why_invalid;

  [[nodiscard]] double seconds() const;
  // Answers per second in each whole `window_s` slice of the phase.
  [[nodiscard]] std::vector<double> window_throughputs(double window_s) const;
  // The p-th latency percentile of the requests due (or sent) in each whole
  // `window_s` slice of the phase.
  [[nodiscard]] std::vector<double> window_percentiles(double window_s, double p) const;
};

// Judges an open-loop phase: invalid when the generator's p99 lateness
// exceeds `max_late_ms`, or when the mean backlog over the last third of the
// samples exceeds both twice the first third's and `min_backlog`.
void judge_open_loop(PhaseStats& st, double max_late_ms, double min_backlog);

class LoadGen {
 public:
  // make(id) returns the request line for `id` (called once per id, ids
  // increasing from `first_id`); check(id, line) judges its response line.
  using MakeFn = std::function<std::string(std::uint64_t id)>;
  using CheckFn = std::function<bool(std::uint64_t id, std::string_view line)>;

  LoadGen(std::vector<Channel>& channels, MakeFn make, CheckFn check,
          std::uint64_t first_id);

  PhaseStats closed(const std::string& name, double seconds, unsigned window);
  PhaseStats open(const std::string& name, double seconds, double rate);
  // One request on channel 0; true when it was answered and judged correct.
  bool single(double timeout_s);

 private:
  void send(Channel& ch, std::int64_t due_ns, PhaseStats& st);
  void flush(Channel& ch);
  void pump(std::int64_t until_ns, PhaseStats& st,
            const std::function<void(Channel&)>& on_done);
  void read_lines(Channel& ch, PhaseStats& st,
                  const std::function<void(Channel&)>& on_done);
  [[nodiscard]] std::size_t outstanding() const;
  void abandon(PhaseStats& st);

  std::vector<Channel>* channels_;
  MakeFn make_;
  CheckFn check_;
  std::uint64_t next_id_ = 0;
};

}  // namespace perfbench
