// End-to-end tests for the epoll socket front-end (src/net/): socket serving
// must be answer-identical to stdin serving, survive hostile framing, route
// between tenants, enforce quotas without perturbing the innocent tenant, and
// hold up under hundreds of concurrent pipelined connections (the stress test
// also runs under TSan in CI). Clients here are plain blocking sockets with
// *windowed* pipelining — a client that pipelines an unbounded number of
// requests without reading responses can deadlock against the server's write
// backpressure by design, so the clients behave like real ones.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "graph/generators.h"
#include "graph/io.h"
#include "net/net_server.h"
#include "reference_json.h"
#include "service/tenant.h"
#include "util/failpoint.h"

namespace ftbfs {
namespace {

// --- tiny blocking client --------------------------------------------------

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0)
      << std::strerror(errno);
  return fd;
}

void send_all(int fd, const std::string& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    ASSERT_GT(n, 0) << std::strerror(errno);
    off += static_cast<std::size_t>(n);
  }
}

// Reads exactly `count` newline-terminated lines (newline stripped).
std::vector<std::string> recv_lines(int fd, std::size_t count) {
  std::vector<std::string> lines;
  std::string buf;
  char chunk[4096];
  while (lines.size() < count) {
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n <= 0) break;  // EOF/error: return what we have; caller asserts
    buf.append(chunk, static_cast<std::size_t>(n));
    std::size_t nl;
    while (lines.size() < count &&
           (nl = buf.find('\n')) != std::string::npos) {
      lines.push_back(buf.substr(0, nl));
      buf.erase(0, nl + 1);
    }
  }
  return lines;
}

// Reads to EOF, asserting no further bytes beyond complete lines.
bool recv_eof(int fd) {
  char c;
  return ::recv(fd, &c, 1, 0) == 0;
}

std::string field(const std::string& line, const char* key) {
  JsonValue v;
  std::string err;
  if (!JsonReader(line).parse(v, err)) return "<unparseable: " + err + ">";
  const JsonValue* f = v.find(key);
  if (f == nullptr) return "<absent>";
  if (f->kind == JsonValue::Kind::kString) return f->str;
  if (f->kind == JsonValue::Kind::kNumber) {
    return std::to_string(static_cast<long long>(f->number));
  }
  return "<other>";
}

// A server running on its own thread for the duration of one test.
struct RunningServer {
  RunningServer(TenantRegistry& registry, NetServerConfig config)
      : server(registry, config), thread([this] { server.run(); }) {}
  ~RunningServer() { shutdown_and_join(); }
  void shutdown_and_join() {
    server.request_shutdown();
    if (thread.joinable()) thread.join();
  }
  NetServer server;
  std::thread thread;
};

std::string distance_request(int id, unsigned target,
                             const std::string& tenant = "") {
  std::string line = "{\"id\":" + std::to_string(id) +
                     ",\"source\":0,\"targets\":[" + std::to_string(target) +
                     "]";
  if (!tenant.empty()) line += ",\"tenant\":\"" + tenant + "\"";
  line += "}\n";
  return line;
}

// --- answer-identity against the in-process pipeline -----------------------

// Reference answers to `stream` (one request per line) from the same
// pipeline, run sequentially in-process on a fresh registry.
std::vector<std::string> sequential_answers(const Graph& g,
                                            const std::string& stream) {
  TenantRegistry reference;
  reference.add("default", g);
  WireCounters counters;
  std::vector<std::string> out;
  std::size_t at = 0;
  while (at < stream.size()) {
    const std::size_t nl = stream.find('\n', at);
    const std::string line = stream.substr(at, nl - at);
    at = nl + 1;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    LineJob job(reference, line, static_cast<std::int64_t>(out.size()), false,
                counters);
    job.admit();
    out.push_back(job.finish());
  }
  return out;
}

// Requests that mix cache misses, cache hits and a lazy build. Fault
// requests (two targets, so a miss fills a cache line) come in pairs on one
// scenario, the first padded with an unknown key that is slow to parse: two
// workers taking a pair at once would admit the second first, and the miss
// would move to it, unless admissions are ordered.
std::string mixed_stream() {
  std::string stream;
  for (int i = 0; i < 40; ++i) stream += distance_request(i, 1 + (i * 7) % 23);
  const std::string pad = ",\"pad\":\"" + std::string(20000, 'x') + "\"";
  for (int i = 0; i < 60; ++i) {
    const int u = (i / 2) % 23;
    stream += "{\"id\":" + std::to_string(100 + i) +
              ",\"source\":0,\"targets\":[6,12],\"fault_edges\":[[" +
              std::to_string(u) + "," + std::to_string(u + 1) + "]]" +
              (i % 2 == 0 ? pad : "") + "}\n";
  }
  return stream;
}

TEST(NetServer, OrderedSocketMatchesInProcessServing) {
  const std::string stream = mixed_stream();
  const std::vector<std::string> expected =
      sequential_answers(cycle_graph(24), stream);
  for (const unsigned threads : {1u, 4u}) {
    TenantRegistry registry;
    registry.add("default", cycle_graph(24));
    NetServerConfig config;
    config.threads = threads;
    RunningServer rs(registry, config);
    const int fd = connect_loopback(rs.server.port());
    send_all(fd, stream);
    const std::vector<std::string> got = recv_lines(fd, expected.size());
    // Byte-identical, cache_hit flags included, at any worker count: the
    // connection's admissions run in its request order, exactly like the
    // sequential stdin loop.
    EXPECT_EQ(got, expected) << threads << " workers";
    ::close(fd);
  }
}

TEST(NetServer, AdoptedConnectionServesUntilItCloses) {
  const std::string stream =
      "  \t\n" + mixed_stream() + "\n" + distance_request(500, 7);
  const std::vector<std::string> expected =
      sequential_answers(cycle_graph(24), stream);
  TenantRegistry registry;
  registry.add("default", cycle_graph(24));
  int pair[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, pair), 0);
  NetServerConfig config;
  config.threads = 4;
  NetServer server(registry, config, pair[1]);
  // No request_shutdown(): run() returns once the adopted connection closes.
  std::thread loop([&] { server.run(); });
  // Without its newline the last request is answered at end of stream.
  send_all(pair[0], stream.substr(0, stream.size() - 1));
  ::shutdown(pair[0], SHUT_WR);
  const std::vector<std::string> got = recv_lines(pair[0], expected.size() + 1);
  loop.join();
  EXPECT_EQ(got, expected);  // whitespace-only lines skipped, not answered
  EXPECT_EQ(server.connections_accepted(), 1u);
  EXPECT_EQ(server.wire_counters().parse_errors.load(), 0u);
  ::close(pair[0]);
}

TEST(NetServer, ByteAtATimeFramingAndHalfCloseDrain) {
  TenantRegistry registry;
  registry.add("default", cycle_graph(12));
  NetServerConfig config;
  config.threads = 2;
  RunningServer rs(registry, config);
  const int fd = connect_loopback(rs.server.port());

  const std::string stream =
      distance_request(1, 3) + "{\"id\":2,\"source\":0,\"targets\":[6]}\r\n";
  for (const char c : stream) send_all(fd, std::string(1, c));
  // Half-close: the tail (all fully framed lines) must still be answered,
  // then the server closes its side — the per-connection drain contract.
  ::shutdown(fd, SHUT_WR);
  const std::vector<std::string> got = recv_lines(fd, 2);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(field(got[0], "id"), "1");
  EXPECT_EQ(field(got[1], "id"), "2");
  EXPECT_EQ(field(got[0], "status"), "ok");
  EXPECT_EQ(field(got[1], "status"), "ok");
  EXPECT_TRUE(recv_eof(fd));
  ::close(fd);
}

TEST(NetServer, OversizedLineAnsweredWithoutKillingTheConnection) {
  TenantRegistry registry;
  registry.add("default", cycle_graph(8));
  NetServerConfig config;
  config.threads = 1;
  config.max_line_bytes = 128;
  RunningServer rs(registry, config);
  const int fd = connect_loopback(rs.server.port());

  // A 1 MB line: server must answer with a parse error using O(128) memory,
  // and the next request on the same connection must still be served.
  std::string bomb(1u << 20, 'x');
  bomb += '\n';
  send_all(fd, bomb);
  send_all(fd, distance_request(7, 3));
  const std::vector<std::string> got = recv_lines(fd, 2);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(field(got[0], "status"), "parse_error");
  EXPECT_NE(got[0].find("exceeds"), std::string::npos) << got[0];
  EXPECT_EQ(field(got[1], "id"), "7");
  EXPECT_EQ(field(got[1], "status"), "ok");
  ::close(fd);
}

TEST(NetServer, RelaxedModeStampsSeqAndAnswersEveryRequest) {
  TenantRegistry registry;
  registry.add("default", cycle_graph(16));
  NetServerConfig config;
  config.threads = 4;
  config.ordered = false;
  RunningServer rs(registry, config);
  const int fd = connect_loopback(rs.server.port());

  std::string stream;
  for (int i = 0; i < 20; ++i) stream += distance_request(100 + i, 1 + i % 15);
  stream += "{\"source\":0,\"targets\":[2]}\n";  // id-less: must carry seq
  send_all(fd, stream);
  ::shutdown(fd, SHUT_WR);
  const std::vector<std::string> got = recv_lines(fd, 21);
  ASSERT_EQ(got.size(), 21u);
  std::vector<bool> seen(20, false);
  bool seq_line = false;
  for (const std::string& line : got) {
    const std::string id = field(line, "id");
    if (id == "<absent>") {
      // The id-less request is correlated by its connection-local seq (20:
      // it was the 21st line on this connection).
      EXPECT_EQ(field(line, "seq"), "20") << line;
      seq_line = true;
      continue;
    }
    const int idx = std::stoi(id) - 100;
    ASSERT_GE(idx, 0);
    ASSERT_LT(idx, 20);
    EXPECT_FALSE(seen[idx]) << "duplicate response " << line;
    seen[idx] = true;
    EXPECT_EQ(field(line, "status"), "ok") << line;
  }
  EXPECT_TRUE(seq_line);
  for (const bool s : seen) EXPECT_TRUE(s);
  EXPECT_TRUE(recv_eof(fd));
  ::close(fd);
}

// --- tenancy ---------------------------------------------------------------

TEST(NetServer, RoutesBetweenTenantsAndRefusesUnknownOnes) {
  TenantRegistry registry;
  registry.add("rings", cycle_graph(10));   // dist(0,5) = 5
  registry.add("lines", path_graph(10));    // dist(0,5) = 5, but faults differ
  NetServerConfig config;
  config.threads = 2;
  RunningServer rs(registry, config);
  const int fd = connect_loopback(rs.server.port());

  std::string stream;
  stream += distance_request(1, 5, "rings");
  stream += distance_request(2, 5, "lines");
  stream += distance_request(3, 5);  // no tenant: default = first registered
  stream +=
      "{\"id\":4,\"source\":0,\"targets\":[5],\"tenant\":\"ghost\"}\n";
  // Fault edge (0,9) exists in the 10-cycle but not the 10-path: the same
  // line must succeed on one tenant and fail resolution on the other.
  stream +=
      "{\"id\":5,\"source\":0,\"targets\":[5],\"tenant\":\"rings\","
      "\"fault_edges\":[[0,9]]}\n";
  stream +=
      "{\"id\":6,\"source\":0,\"targets\":[5],\"tenant\":\"lines\","
      "\"fault_edges\":[[0,9]]}\n";
  send_all(fd, stream);
  ::shutdown(fd, SHUT_WR);
  const std::vector<std::string> got = recv_lines(fd, 6);
  ASSERT_EQ(got.size(), 6u);
  EXPECT_EQ(field(got[0], "status"), "ok");
  EXPECT_EQ(field(got[1], "status"), "ok");
  EXPECT_EQ(field(got[2], "status"), "ok");
  EXPECT_EQ(field(got[3], "status"), "unknown_tenant");
  EXPECT_EQ(field(got[4], "status"), "ok");
  EXPECT_NE(got[4].find("\"distances\":[5]"), std::string::npos) << got[4];
  EXPECT_EQ(field(got[5], "status"), "unknown_source");
  ::close(fd);

  rs.shutdown_and_join();
  const std::vector<TenantStats> stats = registry.stats();
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats[0].name, "rings");
  EXPECT_EQ(stats[0].service.requests, 3u);  // ids 1, 3 (default), 5
  EXPECT_EQ(stats[1].service.requests, 1u);  // id 2; 6 failed resolution
  const TenantStats total = registry.global_stats();
  EXPECT_EQ(total.service.requests,
            stats[0].service.requests + stats[1].service.requests);
}

TEST(NetServer, QuotaRefusalsDoNotPerturbTheOtherTenant) {
  TenantRegistry registry;
  registry.add("big", cycle_graph(12));
  TenantQuotas small_quota;
  small_quota.max_requests = 3;
  registry.add("small", cycle_graph(12), {}, small_quota);
  NetServerConfig config;
  config.threads = 2;
  RunningServer rs(registry, config);
  const int fd = connect_loopback(rs.server.port());

  std::string stream;
  for (int i = 0; i < 6; ++i) {
    stream += distance_request(10 + i, 1 + i, "small");
    stream += distance_request(20 + i, 1 + i, "big");
  }
  send_all(fd, stream);
  ::shutdown(fd, SHUT_WR);
  const std::vector<std::string> got = recv_lines(fd, 12);
  ASSERT_EQ(got.size(), 12u);
  int small_ok = 0, small_quota_refused = 0;
  for (const std::string& line : got) {
    const int id = std::stoi(field(line, "id"));
    if (id >= 20) {
      EXPECT_EQ(field(line, "status"), "ok") << line;  // big is unperturbed
    } else if (field(line, "status") == "ok") {
      ++small_ok;
    } else {
      EXPECT_EQ(field(line, "status"), "quota_exceeded") << line;
      ++small_quota_refused;
    }
  }
  EXPECT_EQ(small_ok, 3);
  EXPECT_EQ(small_quota_refused, 3);
  ::close(fd);

  rs.shutdown_and_join();
  const std::vector<TenantStats> stats = registry.stats();
  EXPECT_EQ(stats[0].quota_refused, 0u);
  EXPECT_EQ(stats[1].quota_refused, 3u);
  EXPECT_EQ(stats[1].service.requests, 3u);  // refusals never reached it
  EXPECT_EQ(stats[0].service.requests, 6u);
  const TenantStats total = registry.global_stats();
  EXPECT_EQ(total.quota_refused, 3u);
  EXPECT_EQ(total.service.requests, 9u);
  EXPECT_EQ(rs.server.wire_counters().quota_refusals.load(), 3u);
}

// --- drain -----------------------------------------------------------------

TEST(NetServer, GracefulShutdownFlushesInFlightAndCloses) {
  TenantRegistry registry;
  registry.add("default", cycle_graph(16));
  NetServerConfig config;
  config.threads = 2;
  RunningServer rs(registry, config);
  const int fd = connect_loopback(rs.server.port());

  std::string stream;
  for (int i = 0; i < 8; ++i) stream += distance_request(i, 1 + i);
  send_all(fd, stream);
  // Read every response first so the requests are provably in flight, then
  // trigger the drain with the connection still open and idle.
  const std::vector<std::string> got = recv_lines(fd, 8);
  ASSERT_EQ(got.size(), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(field(got[i], "id"), std::to_string(i));
  rs.server.request_shutdown();
  EXPECT_TRUE(recv_eof(fd));  // drain closed the idle connection
  ::close(fd);
  rs.shutdown_and_join();  // run() must have returned (join would hang)
  EXPECT_EQ(rs.server.responses_sent(), 8u);
}

// --- concurrency stress (runs under TSan in CI) ----------------------------

TEST(NetServer, HammerManyConcurrentPipelinedConnectionsAcrossTenants) {
  constexpr unsigned kClientThreads = 16;
  constexpr unsigned kConnsPerThread = 16;  // 256 concurrent connections
  constexpr unsigned kRequestsPerConn = 12;
  constexpr unsigned kWindow = 6;
  constexpr unsigned kN = 64;

  TenantRegistry registry;
  registry.add("alpha", cycle_graph(kN));
  registry.add("beta", cycle_graph(kN));
  NetServerConfig config;
  config.threads = 4;
  RunningServer rs(registry, config);
  const std::uint16_t port = rs.server.port();

  std::atomic<std::uint64_t> ok_responses{0};
  std::atomic<int> failures{0};
  auto client_thread = [&](unsigned tid) {
    struct ConnState {
      int fd;
      unsigned sent = 0;
      unsigned received = 0;
      std::string buf;
      std::string tenant;
    };
    std::vector<ConnState> conns(kConnsPerThread);
    for (unsigned c = 0; c < kConnsPerThread; ++c) {
      conns[c].fd = connect_loopback(port);
      conns[c].tenant = (tid + c) % 2 == 0 ? "alpha" : "beta";
    }
    // Windowed pipelining per connection, round-robin across connections so
    // all of this thread's 16 connections are concurrently in flight.
    bool work_left = true;
    while (work_left) {
      work_left = false;
      for (unsigned c = 0; c < kConnsPerThread; ++c) {
        ConnState& cs = conns[c];
        while (cs.sent < kRequestsPerConn && cs.sent - cs.received < kWindow) {
          const unsigned target = 1 + (tid * 31 + c * 7 + cs.sent) % (kN - 1);
          const int id = static_cast<int>(cs.sent * 1000 + target);
          send_all(cs.fd, distance_request(id, target, cs.tenant));
          ++cs.sent;
        }
        if (cs.received < cs.sent) {
          char chunk[4096];
          const ssize_t n = ::recv(cs.fd, chunk, sizeof chunk, 0);
          if (n <= 0) {
            ++failures;
            cs.received = cs.sent = kRequestsPerConn;
            continue;
          }
          cs.buf.append(chunk, static_cast<std::size_t>(n));
          std::size_t nl;
          while ((nl = cs.buf.find('\n')) != std::string::npos) {
            const std::string line = cs.buf.substr(0, nl);
            cs.buf.erase(0, nl + 1);
            // Ordered mode: responses arrive in request order; the id's
            // encoded target must match the analytic cycle distance.
            const unsigned expect_target =
                1 + (tid * 31 + c * 7 + cs.received) % (kN - 1);
            const int expect_id =
                static_cast<int>(cs.received * 1000 + expect_target);
            const unsigned expect_dist =
                std::min(expect_target, kN - expect_target);
            if (field(line, "id") != std::to_string(expect_id) ||
                line.find("\"distances\":[" + std::to_string(expect_dist) +
                          "]") == std::string::npos) {
              ++failures;
            } else {
              ok_responses.fetch_add(1, std::memory_order_relaxed);
            }
            ++cs.received;
          }
        }
        if (cs.received < kRequestsPerConn) work_left = true;
      }
    }
    for (ConnState& cs : conns) ::close(cs.fd);
  };

  std::vector<std::thread> clients;
  for (unsigned t = 0; t < kClientThreads; ++t) {
    clients.emplace_back(client_thread, t);
  }
  for (std::thread& t : clients) t.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(ok_responses.load(),
            std::uint64_t{kClientThreads} * kConnsPerThread * kRequestsPerConn);
  rs.shutdown_and_join();
  EXPECT_EQ(rs.server.connections_accepted(),
            std::uint64_t{kClientThreads} * kConnsPerThread);
  EXPECT_EQ(rs.server.responses_sent(),
            std::uint64_t{kClientThreads} * kConnsPerThread * kRequestsPerConn);
  // Per-tenant accounting never loses a request: the two tenants' stats sum
  // to the global picture, and every request reached a tenant.
  const TenantStats total = registry.global_stats();
  EXPECT_EQ(total.service.requests,
            std::uint64_t{kClientThreads} * kConnsPerThread * kRequestsPerConn);
  const std::vector<TenantStats> per = registry.stats();
  EXPECT_EQ(per[0].service.requests + per[1].service.requests,
            total.service.requests);
  EXPECT_GT(per[0].service.requests, 0u);
  EXPECT_GT(per[1].service.requests, 0u);
}

// --- robustness: failpoints, degradation, reload (docs/robustness.md) ------

// Failpoint state is process-global; every armed test must disarm on exit.
struct DisarmOnExit {
  ~DisarmOnExit() { fp::disarm_all(); }
};

TEST(NetRobustness, SurvivesInjectedReadAndWriteFaults) {
  DisarmOnExit guard;
  // Transient read errors and truncated writes at 30% each: every request
  // must still be answered correctly — the syscall loops absorb the faults.
  std::string err;
  ASSERT_TRUE(fp::arm(
      "net.read=err(EAGAIN,p=0.3,seed=7);net.write=shortwrite(p=0.3,seed=9)",
      &err))
      << err;

  TenantRegistry registry;
  registry.add("default", cycle_graph(24));
  NetServerConfig config;
  config.threads = 2;
  RunningServer rs(registry, config);
  const int fd = connect_loopback(rs.server.port());

  std::string stream;
  for (int i = 0; i < 40; ++i) stream += distance_request(i, 1 + (i * 5) % 23);
  send_all(fd, stream);
  ::shutdown(fd, SHUT_WR);
  const std::vector<std::string> got = recv_lines(fd, 40);
  ASSERT_EQ(got.size(), 40u);
  for (int i = 0; i < 40; ++i) {
    EXPECT_EQ(field(got[i], "id"), std::to_string(i));
    EXPECT_EQ(field(got[i], "status"), "ok") << got[i];
  }
  EXPECT_TRUE(recv_eof(fd));
  ::close(fd);
}

TEST(NetRobustness, EmfileOnAcceptShedsViaSpareFdInsteadOfSpinning) {
  DisarmOnExit guard;
  // One injected EMFILE: the server must release its reserved fd, accept the
  // pending connection, and close it cleanly (the client sees EOF) — then the
  // next connection is served normally.
  ASSERT_TRUE(fp::arm("net.accept=err(EMFILE,count=1)"));

  TenantRegistry registry;
  registry.add("default", cycle_graph(12));
  NetServerConfig config;
  config.threads = 1;
  RunningServer rs(registry, config);

  const int shed = connect_loopback(rs.server.port());
  EXPECT_TRUE(recv_eof(shed));  // shed: clean close, not a hung connect
  ::close(shed);

  const int fd = connect_loopback(rs.server.port());
  send_all(fd, distance_request(1, 3));
  const std::vector<std::string> got = recv_lines(fd, 1);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(field(got[0], "status"), "ok");
  ::close(fd);
  rs.shutdown_and_join();
  EXPECT_EQ(rs.server.connections_shed_fd_limit(), 1u);
}

TEST(NetRobustness, QueuePressureShedsOverloadedInsteadOfParkingForever) {
  DisarmOnExit guard;
  for (const bool ordered : {true, false}) {
    // One worker, a 2-slot queue, and a 100 ms execution sleep: pipelining
    // 12 requests parks the backlog past the 50 ms shed budget — on the
    // connection's in-flight cap (ordered) or on the full admission FIFO
    // (relaxed). Every line must still be answered — some ok, the parked
    // tail `overloaded` — and the connection must survive.
    ASSERT_TRUE(fp::arm("service.execute=sleep(ms=100,count=3)"));

    TenantRegistry registry;
    registry.add("default", cycle_graph(16));
    NetServerConfig config;
    config.threads = 1;
    config.ordered = ordered;
    config.queue_capacity = 2;
    config.shed_after_ms = 50;
    RunningServer rs(registry, config);
    const int fd = connect_loopback(rs.server.port());

    std::string stream;
    for (int i = 0; i < 12; ++i) stream += distance_request(i, 1 + i);
    send_all(fd, stream);
    ::shutdown(fd, SHUT_WR);
    const std::vector<std::string> got = recv_lines(fd, 12);
    ASSERT_EQ(got.size(), 12u);
    int ok = 0, overloaded = 0;
    std::vector<bool> seen(12, false);
    for (int i = 0; i < 12; ++i) {
      const std::string id = field(got[i], "id");
      if (ordered) {
        EXPECT_EQ(id, std::to_string(i)) << got[i];
      }
      const int k = std::atoi(id.c_str());
      ASSERT_TRUE(k >= 0 && k < 12 && !seen[k]) << got[i];
      seen[k] = true;
      const std::string status = field(got[i], "status");
      if (status == "ok") ++ok;
      else if (status == "overloaded") ++overloaded;
      else ADD_FAILURE() << "unexpected status: " << got[i];
    }
    EXPECT_GT(ok, 0) << "ordered=" << ordered;
    EXPECT_GT(overloaded, 0) << "ordered=" << ordered;
    EXPECT_EQ(ok + overloaded, 12);
    EXPECT_TRUE(recv_eof(fd));
    ::close(fd);
    rs.shutdown_and_join();
    EXPECT_EQ(rs.server.wire_counters().overload_sheds.load(),
              static_cast<std::uint64_t>(overloaded));
    fp::disarm_all();
  }
}

TEST(NetRobustness, ShedAnswersEchoTheIdsServedAnswersWould) {
  DisarmOnExit guard;
  // Served answers echo the last "id" and take ids up to int64 max; a shed
  // line's `overloaded` answer must carry the same id. Alternate a line with
  // duplicate ids and one with an id past 2^62 (and past 2^53, so a double
  // would round it), then park the tail past the shed budget as above.
  const std::string big = "4611686018427387905";  // 2^62 + 1
  for (const bool ordered : {true, false}) {
    ASSERT_TRUE(fp::arm("service.execute=sleep(ms=100,count=3)"));
    TenantRegistry registry;
    registry.add("default", cycle_graph(16));
    NetServerConfig config;
    config.threads = 1;
    config.ordered = ordered;
    config.queue_capacity = 2;
    config.shed_after_ms = 50;
    RunningServer rs(registry, config);
    const int fd = connect_loopback(rs.server.port());

    std::string stream;
    for (int i = 0; i < 12; ++i) {
      stream += i % 2 == 0
                    ? "{\"id\":1,\"id\":2,\"source\":0,\"targets\":[1]}\n"
                    : "{\"id\":" + big + ",\"source\":0,\"targets\":[2]}\n";
    }
    send_all(fd, stream);
    ::shutdown(fd, SHUT_WR);
    const std::vector<std::string> got = recv_lines(fd, 12);
    ASSERT_EQ(got.size(), 12u);
    int shed_dup = 0, shed_big = 0, dup = 0, wide = 0;
    for (int i = 0; i < 12; ++i) {
      const bool is_dup = got[i].rfind("{\"id\":2,", 0) == 0;
      const bool is_big = got[i].rfind("{\"id\":" + big + ",", 0) == 0;
      ASSERT_TRUE(is_dup || is_big) << got[i];
      if (ordered) {
        EXPECT_EQ(is_dup, i % 2 == 0) << got[i];
      }
      (is_dup ? dup : wide) += 1;
      if (field(got[i], "status") == "overloaded") {
        (is_dup ? shed_dup : shed_big) += 1;
      } else {
        EXPECT_EQ(field(got[i], "status"), "ok") << got[i];
      }
    }
    EXPECT_EQ(dup, 6);
    EXPECT_EQ(wide, 6);
    EXPECT_GT(shed_dup, 0) << "ordered=" << ordered;
    EXPECT_GT(shed_big, 0) << "ordered=" << ordered;
    ::close(fd);
    rs.shutdown_and_join();
    fp::disarm_all();
  }
}

TEST(NetRobustness, SlowAdmissionHoldsUpOnlyItsOwnConnection) {
  DisarmOnExit guard;
  TenantRegistry registry;
  registry.add("default", cycle_graph(24));
  NetServerConfig config;
  config.threads = 4;
  config.queue_capacity = 8;
  config.shed_after_ms = 200;
  RunningServer rs(registry, config);

  // Build source 0's structure first, so that only A's build sleeps.
  const int b = connect_loopback(rs.server.port());
  send_all(b, distance_request(0, 5));
  ASSERT_EQ(recv_lines(b, 1).size(), 1u);
  ASSERT_TRUE(fp::arm("service.build_alloc=sleep(ms=1500,count=1)"));

  // A's first line starts a lazy build of source 3 (admission sleeps 1.5 s)
  // and 39 more lines queue behind it. Workers that pop A's later lines set
  // them aside instead of waiting for A's turn, so A holds one worker, not
  // the pool.
  const int a = connect_loopback(rs.server.port());
  std::string a_stream;
  for (int i = 0; i < 40; ++i) {
    a_stream += "{\"id\":" + std::to_string(100 + i) +
                ",\"source\":3,\"targets\":[" + std::to_string(1 + i % 23) +
                "]}\n";
  }
  send_all(a, a_stream);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  // B must be answered by the other workers while A's build runs, not shed.
  const auto start = std::chrono::steady_clock::now();
  std::string b_stream;
  for (int i = 1; i <= 8; ++i) b_stream += distance_request(i, 1 + i);
  send_all(b, b_stream);
  const std::vector<std::string> got_b = recv_lines(b, 8);
  const auto waited = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  ASSERT_EQ(got_b.size(), 8u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(field(got_b[i], "id"), std::to_string(i + 1));
    EXPECT_EQ(field(got_b[i], "status"), "ok") << got_b[i];
  }
  EXPECT_LT(waited.count(), 1000) << "B waited on A's build";

  // A's later lines waited past the shed budget behind its own build: each
  // is answered, in order, `ok` or `overloaded`.
  ::shutdown(a, SHUT_WR);
  const std::vector<std::string> got_a = recv_lines(a, 40);
  ASSERT_EQ(got_a.size(), 40u);
  EXPECT_EQ(field(got_a[0], "status"), "ok") << got_a[0];
  std::uint64_t overloaded = 0;
  for (int i = 0; i < 40; ++i) {
    EXPECT_EQ(field(got_a[i], "id"), std::to_string(100 + i));
    const std::string status = field(got_a[i], "status");
    if (status == "overloaded") ++overloaded;
    else EXPECT_EQ(status, "ok") << got_a[i];
  }
  ::close(a);
  ::close(b);
  rs.shutdown_and_join();
  EXPECT_EQ(rs.server.wire_counters().overload_sheds.load(), overloaded);
}

TEST(NetRobustness, APipelinedConnectionDoesNotHoldTheOnlyWorker) {
  DisarmOnExit guard;
  // One worker, a 2-line admission ring, no shedding, 5 ms per execution:
  // A's 40 pipelined lines take about 200 ms. B's lines, sent shortly
  // after, must be answered between A's batches, not after all of them.
  // Either A sends all at once and B sends 4 lines, so that both park and
  // must share the freed ring slots; or A sends a line every 4 ms and B one
  // line, so that more of A's lines keep reaching its inbox while the
  // worker serves it.
  for (const bool paced : {false, true}) {
    for (const bool ordered : {true, false}) {
      ASSERT_TRUE(fp::arm("service.execute=sleep(ms=5)"));
      TenantRegistry registry;
      registry.add("default", cycle_graph(16));
      NetServerConfig config;
      config.threads = 1;
      config.ordered = ordered;
      config.queue_capacity = 2;
      config.shed_after_ms = 0;
      RunningServer rs(registry, config);
      const int a = connect_loopback(rs.server.port());
      const int b = connect_loopback(rs.server.port());

      std::chrono::steady_clock::time_point a_last{};
      std::size_t a_answers = 0;
      std::thread a_reader([&] {
        a_answers = recv_lines(a, 40).size();
        a_last = std::chrono::steady_clock::now();
      });
      std::thread a_writer([&] {
        std::string burst;
        for (int i = 0; i < 40; ++i) {
          burst += distance_request(i, 1 + i % 15);
          if (!paced) continue;
          send_all(a, burst);
          burst.clear();
          std::this_thread::sleep_for(std::chrono::milliseconds(4));
        }
        send_all(a, burst);
      });
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      const std::size_t b_lines = paced ? 1 : 4;
      std::string b_stream;
      for (std::size_t i = 0; i < b_lines; ++i) {
        b_stream += distance_request(100 + static_cast<int>(i), 3);
      }
      send_all(b, b_stream);
      const std::vector<std::string> got_b = recv_lines(b, b_lines);
      const auto b_at = std::chrono::steady_clock::now();
      a_writer.join();
      a_reader.join();
      ASSERT_EQ(got_b.size(), b_lines);
      for (const std::string& line : got_b) {
        EXPECT_EQ(field(line, "status"), "ok") << line;
      }
      ASSERT_EQ(a_answers, 40u);
      EXPECT_LT(b_at, a_last) << "B waited for all of A, paced=" << paced
                              << " ordered=" << ordered;
      ::close(a);
      ::close(b);
      rs.shutdown_and_join();
      fp::disarm_all();
    }
  }
}

TEST(NetRobustness, AbruptCloseMidBatchLeavesTheServerServing) {
  DisarmOnExit guard;
  for (const bool ordered : {true, false}) {
    // A pipelines slow lines and resets the connection, unread, while a
    // worker is serving its batch. B must still be answered, and the drain
    // must reap A's connection once the worker lets go of it.
    ASSERT_TRUE(fp::arm("service.execute=sleep(ms=20)"));
    TenantRegistry registry;
    registry.add("default", cycle_graph(16));
    NetServerConfig config;
    config.threads = 2;
    config.ordered = ordered;
    RunningServer rs(registry, config);

    const int a = connect_loopback(rs.server.port());
    std::string a_stream;
    for (int i = 0; i < 10; ++i) a_stream += distance_request(i, 1 + i);
    send_all(a, a_stream);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    const linger reset{1, 0};  // close with an RST, not a FIN
    ::setsockopt(a, SOL_SOCKET, SO_LINGER, &reset, sizeof reset);
    ::close(a);

    const int b = connect_loopback(rs.server.port());
    send_all(b, distance_request(77, 5));
    const std::vector<std::string> got = recv_lines(b, 1);
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(field(got[0], "id"), "77");
    EXPECT_EQ(field(got[0], "status"), "ok") << got[0];
    ::close(b);
    rs.shutdown_and_join();  // returns only once every connection is reaped
    EXPECT_LT(rs.server.responses_sent(), 11u) << "ordered=" << ordered;
    fp::disarm_all();
  }
}

TEST(NetRobustness, DeadlineExceededIsTypedAndPerRequest) {
  DisarmOnExit guard;
  // The first execution sleeps 100 ms; the request carries deadline_ms=40, so
  // the pre-execution recheck must refuse it as deadline_exceeded. The second
  // request (no deadline, no sleep left) must be served normally.
  ASSERT_TRUE(fp::arm("service.execute=sleep(ms=100,count=1)"));

  TenantRegistry registry;
  registry.add("default", cycle_graph(16));
  NetServerConfig config;
  config.threads = 1;
  RunningServer rs(registry, config);
  const int fd = connect_loopback(rs.server.port());

  send_all(fd,
           "{\"id\":1,\"source\":0,\"targets\":[5],\"deadline_ms\":40}\n");
  send_all(fd, distance_request(2, 5));
  ::shutdown(fd, SHUT_WR);
  const std::vector<std::string> got = recv_lines(fd, 2);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(field(got[0], "status"), "deadline_exceeded") << got[0];
  EXPECT_EQ(field(got[1], "status"), "ok") << got[1];
  ::close(fd);
  rs.shutdown_and_join();
  EXPECT_EQ(rs.server.wire_counters().deadline_refusals.load(), 1u);
}

TEST(NetRobustness, RateLimitRefusesBeyondBurstWithTypedStatus) {
  TenantRegistry registry;
  TenantQuotas quotas;
  quotas.rate_limit_rps = 0.001;  // refill ~1 token per 1000 s: burst only
  registry.add("default", cycle_graph(12), {}, quotas);
  NetServerConfig config;
  config.threads = 1;
  RunningServer rs(registry, config);
  const int fd = connect_loopback(rs.server.port());

  std::string stream;
  for (int i = 0; i < 3; ++i) stream += distance_request(i, 2 + i);
  send_all(fd, stream);
  ::shutdown(fd, SHUT_WR);
  const std::vector<std::string> got = recv_lines(fd, 3);
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(field(got[0], "status"), "ok");  // burst = max(1, ceil(rps)) = 1
  EXPECT_EQ(field(got[1], "status"), "rate_limited") << got[1];
  EXPECT_EQ(field(got[2], "status"), "rate_limited") << got[2];
  ::close(fd);
  rs.shutdown_and_join();
  EXPECT_EQ(rs.server.wire_counters().rate_limit_refusals.load(), 2u);
}

TEST(NetRobustness, WriteStallEvictsTheClientThatStoppedReading) {
  // A client that pipelines heavy requests and never reads: once the kernel
  // buffers fill, the server's writes make no progress and the connection
  // must be evicted after write_stall_ms — instead of holding its output
  // buffer forever.
  TenantRegistry registry;
  registry.add("default", cycle_graph(128));
  NetServerConfig config;
  config.threads = 2;
  config.write_stall_ms = 200;
  RunningServer rs(registry, config);

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  const int tiny = 4096;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &tiny, sizeof tiny);
  // If the server parks our reads under backpressure, a blocking send() would
  // hang this test; a send timeout turns that into a clean loop exit.
  const timeval tv{5, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(rs.server.port());
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);

  // Every request repeats one cached scenario (source 0, no faults) over a
  // deliberately repetitive 2048-entry target list, so responses are cheap
  // to compute (~7 KB of distances each) but their aggregate ~10 MB
  // overflows the kernel's send-buffer autotuning ceiling
  // (net.ipv4.tcp_wmem max, typically 4 MB) — the server's flushes are
  // guaranteed to hit EAGAIN with bytes still pending, a true stall, not
  // just a slow drain. The graph stays small because the first query pays
  // the per-source structure build, which grows steeply with n.
  std::string many_targets;
  for (unsigned t = 0; t < 2048; ++t) {
    many_targets += (t == 0 ? "" : ",") + std::to_string(1 + t % 127);
  }
  for (int i = 0; i < 1500; ++i) {
    const std::string line = "{\"id\":" + std::to_string(i) +
                             ",\"source\":0,\"targets\":[" + many_targets +
                             "]}\n";
    const ssize_t n = ::send(fd, line.data(), line.size(), MSG_NOSIGNAL);
    if (n <= 0) break;  // server already parked reads or evicted us
  }
  // Never read. The server must evict this connection on its own.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(30);
  while (rs.server.connections_evicted_stalled() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_EQ(rs.server.connections_evicted_stalled(), 1u);
  ::close(fd);
  rs.shutdown_and_join();  // and the drain must not hang on the evicted conn
}

TEST(NetRobustness, HotReloadAddsRemovesAndRequotasTenants) {
  // Manifest-driven registry + on_reload wired exactly like the CLI does it:
  // SIGHUP's request_reload() must add/retire/re-quota tenants while the
  // server keeps answering on an open connection.
  const std::string dir = ::testing::TempDir();
  const std::string graph_a = dir + "net_reload_a.txt";
  const std::string graph_b = dir + "net_reload_b.txt";
  const std::string manifest = dir + "net_reload_manifest.json";
  save_graph(graph_a, cycle_graph(10));
  save_graph(graph_b, cycle_graph(20));
  const auto write_manifest = [&](const std::string& body) {
    std::FILE* f = std::fopen(manifest.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fwrite(body.data(), 1, body.size(), f);
    std::fclose(f);
  };
  write_manifest("{\"schema\": 2, \"tenants\": ["
                 "{\"name\": \"alpha\", \"graph\": \"" + graph_a + "\"},"
                 "{\"name\": \"beta\", \"graph\": \"" + graph_b + "\"}]}");

  TenantRegistry registry;
  registry.load_manifest(manifest);
  NetServerConfig config;
  config.threads = 1;
  config.on_reload = [&registry, manifest] { registry.reload(manifest); };
  RunningServer rs(registry, config);
  const int fd = connect_loopback(rs.server.port());

  send_all(fd, distance_request(1, 5, "alpha"));
  send_all(fd, distance_request(2, 5, "beta"));
  std::vector<std::string> got = recv_lines(fd, 2);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(field(got[0], "status"), "ok");
  EXPECT_EQ(field(got[1], "status"), "ok");

  // New manifest: beta gone, gamma added, alpha re-quota'd to 1 more request.
  write_manifest("{\"schema\": 2, \"tenants\": ["
                 "{\"name\": \"alpha\", \"graph\": \"" + graph_a + "\","
                 " \"max_requests\": 2},"
                 "{\"name\": \"gamma\", \"graph\": \"" + graph_b + "\"}]}");
  rs.server.request_reload();
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(10);
  while (rs.server.reloads_completed() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(rs.server.reloads_completed(), 1u);

  // Same connection, no reconnect: gamma routable, beta now unknown, alpha's
  // tightened lifetime quota (2, of which 1 is already spent) bites on its
  // second post-reload request.
  send_all(fd, distance_request(3, 7, "gamma"));
  send_all(fd, distance_request(4, 5, "beta"));
  send_all(fd, distance_request(5, 5, "alpha"));
  send_all(fd, distance_request(6, 5, "alpha"));
  ::shutdown(fd, SHUT_WR);
  got = recv_lines(fd, 4);
  ASSERT_EQ(got.size(), 4u);
  EXPECT_EQ(field(got[0], "status"), "ok") << got[0];
  EXPECT_NE(got[0].find("\"distances\":[7]"), std::string::npos) << got[0];
  EXPECT_EQ(field(got[1], "status"), "unknown_tenant") << got[1];
  EXPECT_EQ(field(got[2], "status"), "ok") << got[2];
  EXPECT_EQ(field(got[3], "status"), "quota_exceeded") << got[3];
  EXPECT_TRUE(recv_eof(fd));
  ::close(fd);
}

}  // namespace
}  // namespace ftbfs
