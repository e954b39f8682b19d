#include "child.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "util.h"

namespace perfbench {

void close_fd(int& fd) {
  if (fd >= 0) ::close(fd);
  fd = -1;
}

Child spawn_child(const std::vector<std::string>& argv, bool pipe_in,
                  bool pipe_out, const std::string& out_path,
                  const std::string& err_path) {
  int in_pipe[2] = {-1, -1};
  int out_pipe[2] = {-1, -1};
  if (pipe_in && ::pipe2(in_pipe, O_CLOEXEC) != 0) {
    throw std::runtime_error("pipe failed");
  }
  if (pipe_out && ::pipe2(out_pipe, O_CLOEXEC) != 0) {
    throw std::runtime_error("pipe failed");
  }
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  // A stale file of the same name must not be read as this child's output.
  ::unlink(err_path.c_str());
  const pid_t parent = ::getpid();
  Child c;
  c.spawn_ns = now_ns();
  c.pid = ::fork();
  if (c.pid < 0) throw std::runtime_error("fork failed");
  if (c.pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    ::prctl(PR_SET_TIMERSLACK, kDefaultTimerSlackNs);  // not the generator's
    if (::getppid() != parent) ::_exit(127);
    const int in = pipe_in ? in_pipe[0] : ::open("/dev/null", O_RDONLY);
    const int out = pipe_out ? out_pipe[1]
                             : ::open(out_path.c_str(),
                                      O_WRONLY | O_CREAT | O_TRUNC, 0644);
    const int err = ::open(err_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (in < 0 || out < 0 || err < 0) ::_exit(127);
    ::dup2(in, 0);
    ::dup2(out, 1);
    ::dup2(err, 2);
    ::execv(args[0], args.data());
    ::_exit(127);
  }
  if (pipe_in) {
    ::close(in_pipe[0]);
    c.in_fd = in_pipe[1];
  }
  if (pipe_out) {
    ::close(out_pipe[1]);
    c.out_fd = out_pipe[0];
  }
  return c;
}

ExitInfo reap_child(Child& c, double timeout_s) {
  ExitInfo info;
  close_fd(c.in_fd);
  if (c.pid <= 0) return info;
  const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(timeout_s * 1e9);
  int status = 0;
  struct rusage ru = {};
  bool killed = false;
  for (;;) {
    const pid_t r = ::wait4(c.pid, &status, WNOHANG, &ru);
    if (r == c.pid) break;
    if (r < 0 && errno != EINTR) break;
    if (!killed && now_ns() > deadline) {
      ::kill(c.pid, SIGKILL);
      killed = true;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  info.wall_s = ns_to_s(now_ns() - c.spawn_ns);
  info.code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  info.clean = !killed && WIFEXITED(status) && WEXITSTATUS(status) == 0;
  info.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
               static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
  info.maxrss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  c.pid = -1;
  close_fd(c.out_fd);
  return info;
}

double proc_cpu_s(pid_t pid) {
  const std::string stat = read_file("/proc/" + std::to_string(pid) + "/stat");
  const std::size_t close = stat.rfind(')');
  if (close == std::string::npos) return 0;
  std::istringstream in(stat.substr(close + 2));
  std::string field;
  unsigned long long utime = 0, stime = 0;
  // Fields after the command name start at #3 (state); utime/stime are #14/#15.
  for (int i = 3; i <= 15 && in >> field; ++i) {
    if (i == 14) utime = std::stoull(field);
    if (i == 15) stime = std::stoull(field);
  }
  return static_cast<double>(utime + stime) / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

std::uint64_t steal_jiffies() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  std::uint64_t v[8] = {};
  in >> cpu;
  for (auto& x : v) in >> x;
  return v[7];
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string wait_for_line(const std::string& path, const std::string& needle,
                          double timeout_s) {
  const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(timeout_s * 1e9);
  while (now_ns() < deadline) {
    const std::string text = read_file(path);
    const std::size_t at = text.find(needle);
    if (at != std::string::npos) {
      const std::size_t start = text.rfind('\n', at);
      const std::size_t end = text.find('\n', at);
      if (end != std::string::npos) {
        return text.substr(start == std::string::npos ? 0 : start + 1,
                           end - (start == std::string::npos ? 0 : start + 1));
      }
    }
    std::this_thread::sleep_for(std::chrono::microseconds(250));
  }
  return {};
}

ServeSummary parse_serve_summary(const std::string& text) {
  ServeSummary s;
  const std::size_t at = text.find("served ");
  if (at == std::string::npos) return s;
  unsigned long long req = 0, ok = 0, refused = 0, perr = 0, hits = 0, look = 0,
                     lines = 0, lazy = 0, fast = 0, repair = 0, full = 0;
  double pct = 0, bpl = 0;
  std::size_t pool = 0;
  const int got = std::sscanf(
      text.c_str() + at,
      "served %llu requests (%llu ok, %llu refused); %llu parse errors; cache "
      "%llu/%llu hits (%lf%%), %llu lines, %lf B/line; %llu lazy builds, pool "
      "size %zu; query paths %llu fast / %llu repair / %llu full",
      &req, &ok, &refused, &perr, &hits, &look, &pct, &lines, &bpl, &lazy, &pool,
      &fast, &repair, &full);
  if (got != 14) return s;
  s.found = true;
  s.requests = req;
  s.ok = ok;
  s.refused = refused;
  s.parse_errors = perr;
  s.cache_hits = hits;
  s.cache_lookups = look;
  s.cache_lines = lines;
  s.bytes_per_line = bpl;
  s.lazy_builds = lazy;
  s.fast = fast;
  s.repair = repair;
  s.full = full;
  const std::size_t deg = text.find("degraded: ");
  if (deg != std::string::npos) {
    unsigned long long rate = 0, dl = 0, shed = 0;
    if (std::sscanf(text.c_str() + deg,
                    "degraded: %llu rate-limited, %llu deadline-exceeded, %llu "
                    "overload-shed",
                    &rate, &dl, &shed) == 3) {
      s.overload_sheds = shed;
    }
  }
  return s;
}

int connect_loopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

}  // namespace perfbench
