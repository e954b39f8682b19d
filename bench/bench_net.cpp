// Loopback throughput sweep for the socket front-end (src/net/): how much
// does the epoll transport cost relative to the in-process serving pipeline,
// and how does it scale from one connection to a thousand? The sweep crosses
// connection counts {1, 64, 1024} ({1, 64, 256} under --small) with the two
// admission modes (ordered: one worker at a time per connection, so responses
// keep request order; relaxed: completion order, correlation by id). Clients
// are windowed pipeliners (window 32) — the same discipline real clients need,
// since a client that floods requests without reading responses deadlocks
// against the server's write backpressure by design.
//
// Every response is validated against the analytic cycle distance, so a row
// with mismatches > 0 means the transport garbled or misordered something —
// the bench doubles as a stress check. --json emits one machine-readable
// summary line (CI uploads it as BENCH_net.json, next to BENCH_e8.json).
#include <sys/resource.h>
#include <sys/socket.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "graph/generators.h"
#include "net/net_server.h"
#include "service/tenant.h"
#include "util/concurrency.h"
#include "util/timer.h"

namespace {

using namespace ftbfs;

constexpr unsigned kCycleN = 512;
constexpr unsigned kWindow = 32;

// 1024 concurrent client + server fds outgrow the common 1024 soft limit.
void raise_nofile_limit() {
  rlimit lim{};
  if (getrlimit(RLIMIT_NOFILE, &lim) != 0) return;
  const rlim_t want = 8192;
  if (lim.rlim_cur >= want) return;
  lim.rlim_cur = lim.rlim_max == RLIM_INFINITY
                     ? want
                     : std::min<rlim_t>(want, lim.rlim_max);
  setrlimit(RLIMIT_NOFILE, &lim);
}

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  // Without this the client's Nagle algorithm holds each small request back
  // until the previous segment is ACKed, and the sweep measures the TCP
  // delayed-ACK timer instead of the server.
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

bool send_all(int fd, const char* data, std::size_t n) {
  std::size_t off = 0;
  while (off < n) {
    const ssize_t sent = ::send(fd, data + off, n - off, MSG_NOSIGNAL);
    if (sent <= 0) return false;
    off += static_cast<std::size_t>(sent);
  }
  return true;
}

struct CellResult {
  unsigned conns = 0;
  std::string mode;
  std::uint64_t requests = 0;
  double seconds = 0.0;
  std::uint64_t mismatches = 0;
  std::uint64_t transport_errors = 0;
};

// One client thread drives `conns` connections with windowed pipelining,
// round-robin so all of them stay concurrently in flight. Responses are
// checked against the analytic distance min(t, N-t) on the cycle. In relaxed
// mode responses may arrive out of request order, so the expected target is
// recovered from the echoed id (id = seq * 1000 + target) instead of being
// predicted from the receive position.
void client_main(std::uint16_t port, unsigned conns, unsigned per_conn,
                 bool ordered, std::atomic<std::uint64_t>& mismatches,
                 std::atomic<std::uint64_t>& transport_errors) {
  struct ConnState {
    int fd = -1;
    unsigned sent = 0;
    unsigned received = 0;
    std::string buf;
  };
  std::vector<ConnState> cs(conns);
  for (ConnState& c : cs) {
    c.fd = connect_loopback(port);
    if (c.fd < 0) {
      ++transport_errors;
      c.sent = c.received = per_conn;  // skip this connection
    }
  }
  auto check_line = [&](const std::string& line, unsigned expect_seq) {
    // Cheap field scrape — the bench must not bottleneck on its own parser.
    const std::size_t idp = line.find("\"id\":");
    if (idp == std::string::npos) return false;
    const long id = std::strtol(line.c_str() + idp + 5, nullptr, 10);
    const unsigned target = static_cast<unsigned>(id % 1000);
    const unsigned seq = static_cast<unsigned>(id / 1000);
    if (ordered && seq != expect_seq) return false;
    const unsigned dist = std::min(target, kCycleN - target);
    return line.find("\"distances\":[" + std::to_string(dist) + "]") !=
           std::string::npos;
  };
  bool work_left = true;
  char chunk[8192];
  std::string req;
  while (work_left) {
    work_left = false;
    for (unsigned i = 0; i < conns; ++i) {
      ConnState& c = cs[i];
      req.clear();
      while (c.sent < per_conn && c.sent - c.received < kWindow) {
        const unsigned target = 1 + (i * 37 + c.sent * 11) % (kCycleN - 1);
        req += "{\"id\":" + std::to_string(c.sent * 1000 + target) +
               ",\"source\":0,\"structure\":\"identity\",\"targets\":[" +
               std::to_string(target) + "]}\n";
        ++c.sent;
      }
      if (!req.empty() && !send_all(c.fd, req.data(), req.size())) {
        ++transport_errors;
        c.sent = c.received = per_conn;
        continue;
      }
      if (c.received < c.sent) {
        const ssize_t n = ::recv(c.fd, chunk, sizeof chunk, 0);
        if (n <= 0) {
          ++transport_errors;
          c.sent = c.received = per_conn;
          continue;
        }
        c.buf.append(chunk, static_cast<std::size_t>(n));
        std::size_t nl;
        while ((nl = c.buf.find('\n')) != std::string::npos) {
          if (!check_line(c.buf.substr(0, nl), c.received)) ++mismatches;
          c.buf.erase(0, nl + 1);
          ++c.received;
        }
      }
      if (c.received < per_conn) work_left = true;
    }
  }
  for (ConnState& c : cs) {
    if (c.fd >= 0) ::close(c.fd);
  }
}

CellResult run_cell(unsigned conns, bool ordered, unsigned total_requests,
                    unsigned server_threads) {
  TenantRegistry registry;
  registry.add("default", cycle_graph(kCycleN));
  // Requests pin the identity engine: fault-free, they take its baseline
  // fast path, so the sweep measures the transport, not a BFS (and not a
  // lazy structure build, which would dwarf everything).
  NetServerConfig config;
  config.threads = server_threads;
  config.ordered = ordered;
  NetServer server(registry, config);
  std::thread server_thread([&server] { server.run(); });

  const unsigned per_conn = std::max(1u, total_requests / conns);
  const unsigned client_threads = std::min(16u, conns);
  const unsigned conns_per_thread = conns / client_threads;
  std::atomic<std::uint64_t> mismatches{0};
  std::atomic<std::uint64_t> transport_errors{0};

  Timer timer;
  std::vector<std::thread> clients;
  for (unsigned t = 0; t < client_threads; ++t) {
    clients.emplace_back(client_main, server.port(), conns_per_thread,
                         per_conn, ordered, std::ref(mismatches),
                         std::ref(transport_errors));
  }
  for (std::thread& t : clients) t.join();
  const double elapsed = timer.seconds();

  server.request_shutdown();
  server_thread.join();

  CellResult cell;
  cell.conns = conns;
  cell.mode = ordered ? "ordered" : "relaxed";
  cell.requests = std::uint64_t{per_conn} * conns_per_thread * client_threads;
  cell.seconds = elapsed;
  cell.mismatches = mismatches.load();
  cell.transport_errors = transport_errors.load();
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  bool small = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--small") == 0) {
      small = true;
    } else {
      std::fprintf(stderr, "usage: %s [--json] [--small]\n", argv[0]);
      return 2;
    }
  }
  raise_nofile_limit();

  const std::vector<unsigned> conn_counts =
      small ? std::vector<unsigned>{1, 64, 256}
            : std::vector<unsigned>{1, 64, 1024};
  const unsigned total_requests = small ? 16384 : 65536;
  const unsigned server_threads =
      std::max(2u, std::min(8u, hardware_workers() / 2));

  std::vector<CellResult> cells;
  for (const unsigned conns : conn_counts) {
    for (const bool ordered : {true, false}) {
      cells.push_back(run_cell(conns, ordered, total_requests, server_threads));
    }
  }

  if (!json) {
    std::printf("bench_net: loopback sweep, cycle n=%u, window=%u, "
                "server threads=%u\n",
                kCycleN, kWindow, server_threads);
    std::printf("%8s %8s %10s %10s %12s %8s %8s\n", "conns", "mode",
                "requests", "us/req", "req/s", "bad", "ioerr");
  }
  std::string rows_json;
  for (const CellResult& c : cells) {
    const double us = 1e6 * c.seconds / std::max<std::uint64_t>(1, c.requests);
    const double rps = c.requests / std::max(c.seconds, 1e-12);
    if (json) {
      char row[256];
      std::snprintf(row, sizeof row,
                    "%s{\"conns\":%u,\"mode\":\"%s\",\"requests\":%llu,"
                    "\"us_per_request\":%.2f,\"requests_per_sec\":%.0f,"
                    "\"mismatches\":%llu,\"transport_errors\":%llu}",
                    rows_json.empty() ? "" : ",", c.conns, c.mode.c_str(),
                    static_cast<unsigned long long>(c.requests), us, rps,
                    static_cast<unsigned long long>(c.mismatches),
                    static_cast<unsigned long long>(c.transport_errors));
      rows_json += row;
    } else {
      std::printf("%8u %8s %10llu %10.2f %12.0f %8llu %8llu\n", c.conns,
                  c.mode.c_str(),
                  static_cast<unsigned long long>(c.requests), us, rps,
                  static_cast<unsigned long long>(c.mismatches),
                  static_cast<unsigned long long>(c.transport_errors));
    }
  }
  if (json) {
    std::printf("{\"bench\":\"net\",\"cycle_n\":%u,\"window\":%u,"
                "\"server_threads\":%u,\"rows\":[%s]}\n",
                kCycleN, kWindow, server_threads, rows_json.c_str());
  }

  std::uint64_t bad = 0;
  for (const CellResult& c : cells) bad += c.mismatches + c.transport_errors;
  return bad == 0 ? 0 : 1;
}
