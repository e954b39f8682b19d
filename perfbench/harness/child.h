// Child processes of the binary under test: spawn, reap with rusage, read
// their /proc counters, and parse the `serve` summary they print at drain.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// Linux's default timer slack. The open-loop generator runs with 1 ns so its
// sleeps end on time; children get the default back.
inline constexpr unsigned long kDefaultTimerSlackNs = 50'000;

struct Child {
  pid_t pid = -1;
  int in_fd = -1;   // write end of the child's stdin (when piped)
  int out_fd = -1;  // read end of the child's stdout (when piped)
  std::int64_t spawn_ns = 0;
};

// Starts argv[0] with argv. stdin/stdout are pipes when requested, otherwise
// /dev/null and `out_path`; stderr always goes to `err_path`. The child is
// killed if the harness dies first.
Child spawn_child(const std::vector<std::string>& argv, bool pipe_in,
                  bool pipe_out, const std::string& out_path,
                  const std::string& err_path);

struct ExitInfo {
  bool clean = false;  // exited with code 0
  int code = -1;
  double wall_s = 0;   // spawn to exit
  double cpu_s = 0;    // user + system
  double maxrss_mb = 0;
};

// Waits for the child (wait4), killing it after `timeout_s`. Closes its pipes.
ExitInfo reap_child(Child& c, double timeout_s);

void close_fd(int& fd);

// User + system CPU of a live process, in seconds (from /proc/<pid>/stat).
double proc_cpu_s(pid_t pid);
// Steal jiffies summed over all CPUs (/proc/stat).
std::uint64_t steal_jiffies();
std::string cpu_model();

std::string read_file(const std::string& path);
// Polls `path` until a line containing `needle` appears; returns that line,
// or "" on timeout.
std::string wait_for_line(const std::string& path, const std::string& needle,
                          double timeout_s);

// Fields of the `ftbfs serve` drain summary.
struct ServeSummary {
  bool found = false;
  std::uint64_t requests = 0, ok = 0, refused = 0, parse_errors = 0;
  std::uint64_t cache_hits = 0, cache_lookups = 0, cache_lines = 0;
  double bytes_per_line = 0;
  std::uint64_t lazy_builds = 0, fast = 0, repair = 0, full = 0;
  std::uint64_t overload_sheds = 0;
};
ServeSummary parse_serve_summary(const std::string& stderr_text);

// Connects to 127.0.0.1:port with TCP_NODELAY; returns -1 on failure.
int connect_loopback(int port);

}  // namespace perfbench
