#include "loadgen.h"

#include <poll.h>
#include <unistd.h>

#include <cerrno>
#include <ctime>

#include "util.h"

namespace perfbench {

namespace {
constexpr std::int64_t kDrainTimeoutNs = 20'000'000'000;  // a stalled server
constexpr std::int64_t kSampleNs = 50'000'000;
}  // namespace

double PhaseStats::seconds() const {
  return last_done_ns > start_ns ? ns_to_s(last_done_ns - start_ns) : 0.0;
}

std::vector<double> PhaseStats::window_throughputs(double window_s) const {
  const auto width = static_cast<std::int64_t>(window_s * 1e9);
  const auto windows = static_cast<std::size_t>((last_done_ns - start_ns) / width);
  std::vector<double> count(windows, 0.0);
  for (const std::int64_t t : done_ns) {
    const auto w = static_cast<std::size_t>((t - start_ns) / width);
    if (t >= start_ns && w < windows) count[w] += 1;
  }
  for (double& c : count) c /= window_s;
  return count;
}

std::vector<double> PhaseStats::window_percentiles(double window_s, double p) const {
  const auto width = static_cast<std::int64_t>(window_s * 1e9);
  std::vector<std::vector<double>> by_window;
  for (std::size_t i = 0; i < from_ns.size(); ++i) {
    if (from_ns[i] < start_ns) continue;
    const auto w = static_cast<std::size_t>((from_ns[i] - start_ns) / width);
    if (w >= by_window.size()) by_window.resize(w + 1);
    by_window[w].push_back(latency_ms[i]);
  }
  std::vector<double> out;
  // The last slice is partial unless the phase length is a multiple.
  for (std::size_t w = 0; w + 1 < by_window.size(); ++w) {
    out.push_back(percentile(by_window[w], p));
  }
  if (by_window.size() == 1) out.push_back(percentile(by_window[0], p));
  return out;
}

void judge_open_loop(PhaseStats& st, double max_late_ms, double min_backlog) {
  const double late = percentile(st.lateness_ms, 99);
  if (late > max_late_ms) {
    st.valid = false;
    st.why_invalid = "generator p99 lateness " + std::to_string(late) + " ms";
    return;
  }
  const std::size_t third = st.backlog.size() / 3;
  if (third == 0) return;
  double first = 0, last = 0;
  for (std::size_t i = 0; i < third; ++i) {
    first += static_cast<double>(st.backlog[i]);
    last += static_cast<double>(st.backlog[st.backlog.size() - 1 - i]);
  }
  first /= static_cast<double>(third);
  last /= static_cast<double>(third);
  if (last > 2 * first && last > min_backlog) {
    st.valid = false;
    st.why_invalid = "backlog grew from " + std::to_string(first) + " to " +
                     std::to_string(last);
  }
}

LoadGen::LoadGen(std::vector<Channel>& channels, MakeFn make, CheckFn check,
                 std::uint64_t first_id)
    : channels_(&channels), make_(std::move(make)), check_(std::move(check)),
      next_id_(first_id) {}

std::size_t LoadGen::outstanding() const {
  std::size_t n = 0;
  for (const Channel& ch : *channels_) n += ch.pending.size();
  return n;
}

void LoadGen::send(Channel& ch, std::int64_t due_ns, PhaseStats& st) {
  const std::uint64_t id = next_id_++;
  ch.out += make_(id);
  ch.out += '\n';
  ch.pending.push_back({id, due_ns, now_ns()});
  ++st.sent;
  flush(ch);
}

void LoadGen::flush(Channel& ch) {
  while (!ch.dead && ch.out_off < ch.out.size()) {
    const ssize_t w = ::write(ch.wfd, ch.out.data() + ch.out_off,
                              ch.out.size() - ch.out_off);
    if (w > 0) {
      ch.out_off += static_cast<std::size_t>(w);
    } else if (w < 0 && errno == EINTR) {
      continue;
    } else if (w < 0 && errno == EAGAIN) {
      break;
    } else {
      ch.dead = true;
    }
  }
  if (ch.out_off == ch.out.size()) {
    ch.out.clear();
    ch.out_off = 0;
  } else if (ch.out_off > (1u << 20)) {
    ch.out.erase(0, ch.out_off);
    ch.out_off = 0;
  }
}

void LoadGen::read_lines(Channel& ch, PhaseStats& st,
                         const std::function<void(Channel&)>& on_done) {
  char buf[1 << 16];
  for (;;) {
    const ssize_t r = ::read(ch.rfd, buf, sizeof buf);
    if (r > 0) {
      const std::size_t scan_from = ch.in.size();
      ch.in.append(buf, static_cast<std::size_t>(r));
      std::size_t start = 0;
      std::size_t nl = ch.in.find('\n', scan_from);
      while (nl != std::string::npos) {
        const std::string_view line(ch.in.data() + start, nl - start);
        const std::int64_t done = now_ns();
        if (ch.pending.empty()) {
          ++st.transport_errors;  // an answer nobody asked for
        } else {
          const Channel::Pending p = ch.pending.front();
          ch.pending.pop_front();
          if (!check_(p.id, line)) ++st.bad;
          ++st.completed;
          st.last_done_ns = done;
          const std::int64_t from = p.due_ns != 0 ? p.due_ns : p.sent_ns;
          st.latency_ms.push_back(static_cast<double>(done - from) * 1e-6);
          st.from_ns.push_back(from);
          st.done_ns.push_back(done);
          on_done(ch);
        }
        start = nl + 1;
        nl = ch.in.find('\n', start);
      }
      ch.in.erase(0, start);
      continue;
    }
    if (r < 0 && errno == EINTR) continue;
    if (r < 0 && errno == EAGAIN) return;
    ch.dead = true;  // EOF or error: whatever is outstanding is lost
    st.transport_errors += ch.pending.size();
    ch.pending.clear();
    return;
  }
}

void LoadGen::pump(std::int64_t until_ns, PhaseStats& st,
                   const std::function<void(Channel&)>& on_done) {
  std::vector<pollfd> fds;
  std::vector<std::size_t> owner;
  for (std::size_t i = 0; i < channels_->size(); ++i) {
    Channel& ch = (*channels_)[i];
    if (ch.dead) continue;
    const bool want_out = ch.out_off < ch.out.size();
    if (ch.rfd == ch.wfd) {
      fds.push_back({ch.rfd, static_cast<short>(POLLIN | (want_out ? POLLOUT : 0)), 0});
      owner.push_back(i);
    } else {
      fds.push_back({ch.rfd, POLLIN, 0});
      owner.push_back(i);
      if (want_out) {
        fds.push_back({ch.wfd, POLLOUT, 0});
        owner.push_back(i);
      }
    }
  }
  const std::int64_t wait = std::max<std::int64_t>(0, until_ns - now_ns());
  const timespec ts{static_cast<time_t>(wait / 1'000'000'000),
                    static_cast<long>(wait % 1'000'000'000)};
  if (fds.empty()) return;
  const int ready = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
  if (ready <= 0) return;
  for (std::size_t k = 0; k < fds.size(); ++k) {
    Channel& ch = (*channels_)[owner[k]];
    if ((fds[k].revents & POLLOUT) != 0) flush(ch);
    if ((fds[k].revents & (POLLIN | POLLHUP | POLLERR)) != 0 && fds[k].fd == ch.rfd) {
      read_lines(ch, st, on_done);
    }
  }
}

void LoadGen::abandon(PhaseStats& st) {
  for (Channel& ch : *channels_) {
    st.transport_errors += ch.pending.size();
    ch.pending.clear();
  }
}

PhaseStats LoadGen::closed(const std::string& name, double seconds,
                           unsigned window) {
  PhaseStats st;
  st.name = name;
  st.start_ns = now_ns();
  const std::int64_t stop = st.start_ns + static_cast<std::int64_t>(seconds * 1e9);
  for (Channel& ch : *channels_) {
    for (unsigned k = 0; k < window && !ch.dead; ++k) send(ch, 0, st);
  }
  const auto refill = [&](Channel& ch) {
    if (!ch.dead && now_ns() < stop) send(ch, 0, st);
  };
  for (;;) {
    const std::int64_t now = now_ns();
    if (outstanding() == 0) break;
    if (now > stop + kDrainTimeoutNs) {
      abandon(st);
      break;
    }
    pump(now + kSampleNs, st, refill);
  }
  return st;
}

PhaseStats LoadGen::open(const std::string& name, double seconds, double rate) {
  PhaseStats st;
  st.name = name;
  const auto total = static_cast<std::uint64_t>(seconds * rate);
  const double interval = 1e9 / rate;
  st.start_ns = now_ns() + 1'000'000;
  auto due = [&](std::uint64_t i) {
    return st.start_ns + static_cast<std::int64_t>(static_cast<double>(i) * interval);
  };
  std::uint64_t i = 0;
  std::int64_t next_sample = st.start_ns;
  const auto nothing = [](Channel&) {};
  const std::size_t nch = channels_->size();
  for (;;) {
    std::int64_t now = now_ns();
    while (i < total && due(i) <= now) {
      Channel& ch = (*channels_)[i % nch];
      const std::int64_t d = due(i);
      if (!ch.dead) send(ch, d, st);
      st.lateness_ms.push_back(static_cast<double>(now_ns() - d) * 1e-6);
      ++i;
    }
    now = now_ns();
    if (i < total && now >= next_sample) {
      st.backlog.push_back(outstanding());
      next_sample += kSampleNs;
    }
    if (i == total && outstanding() == 0) break;
    if (now > due(total) + kDrainTimeoutNs) {
      abandon(st);
      break;
    }
    const std::int64_t until =
        i < total ? std::min(due(i), next_sample) : now + kSampleNs;
    pump(until, st, nothing);
  }
  return st;
}

bool LoadGen::single(double timeout_s) {
  PhaseStats st;
  Channel& ch = channels_->front();
  send(ch, 0, st);
  const std::int64_t stop = now_ns() + static_cast<std::int64_t>(timeout_s * 1e9);
  while (st.completed == 0 && !ch.dead && now_ns() < stop) {
    pump(std::min(stop, now_ns() + kSampleNs), st, [](Channel&) {});
  }
  if (st.completed == 0) abandon(st);
  return st.completed == 1 && st.bad == 0;
}

}  // namespace perfbench
