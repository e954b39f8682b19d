// Non-blocking socket front-end: the threaded pipeline of `ftbfs serve`.
// It serves TCP clients (`--listen`), or one adopted connection — the
// socketpair `serve --threads N` pumps stdin and stdout through.
//
// One epoll event loop (the thread that calls run()) owns every socket:
// it accepts connections, reassembles JSONL request lines (net/framing.h),
// and writes response bytes. A pool of worker threads owns every answer:
// lines flow loop → BoundedQueue → workers, each worker runs the same
// LineJob parse/admit/finish pipeline the inline stdin loop uses
// (service/tenant.h), and finished response lines flow back worker → loop
// through per-connection buffers plus an eventfd wakeup. The loop never
// computes and the workers never touch a socket.
//
// Ordering. With `ordered` set, a line takes its connection's next admission
// ticket when it enters the FIFO admission queue, admissions run in ticket
// order, and a per-connection resequencer emits responses in request order:
// the answer stream, `cache_hit` included, is byte-identical at any worker
// count while no other connection interleaves admissions. No worker waits
// for a turn: a line popped early is set aside, and the worker whose
// admission makes it the turn admits it next, handing its own line's
// execution on. So a slow admission (a lazy build) holds one worker and its
// own connection's later lines, never the pool. Relaxed mode emits in
// completion order and stamps `seq` (the connection-local request index)
// into responses to id-less requests. Cross-connection order is undefined.
//
// Backpressure, two rings of it, both by *parking the connection* (dropping
// its EPOLLIN interest so the kernel's TCP window does the rest):
//   * admission ring — the BoundedQueue is full, or (ordered) the
//     connection has `queue_capacity` lines in flight: parsed lines wait in
//     the connection's backlog and the loop retries on the next worker
//     wakeup;
//   * write ring — the peer is not reading: once the connection's pending
//     output exceeds `write_park_bytes`, reading stops until it drains.
// A slow or malicious client therefore costs O(its own buffers), never
// unbounded server memory, and never stalls other connections.
//
// Graceful drain: request_shutdown() (async-signal-safe — one write to a
// self-pipe) stops the listener, keeps serving every fully received line,
// flushes every response, then run() returns. Bytes of half-received lines
// are dropped; the client that wants its tail answered half-closes (shutdown
// SHUT_WR) and reads to EOF.
//
// Degradation (docs/robustness.md). Parking is bounded: a connection whose
// backlog has waited at the admission ring past `shed_after_ms` gets its
// backlog answered `overloaded` from the loop thread instead of parking
// forever; a connection whose write buffer has made no progress for
// `write_stall_ms` (the peer stopped reading) is evicted. Both timers run on
// a coarse epoll-timeout sweep that only ticks while some connection is
// parked or stalled — an idle or healthy server still blocks indefinitely.
//
// Reload: request_reload() (async-signal-safe, the SIGHUP path) runs
// `on_reload` on the loop thread — the CLI points it at
// TenantRegistry::reload, so tenants appear/retire/re-quota without a
// restart while workers keep serving; in-flight requests pin their tenant
// until they finish (service/tenant.h).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "net/framing.h"
#include "service/tenant.h"
#include "service/work_queue.h"

namespace ftbfs {

struct NetServerConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  // 0 = ephemeral; NetServer::port() has the result
  unsigned threads = 1;
  bool ordered = true;  // per-connection response order (see file comment)
  std::size_t max_line_bytes = 1u << 20;
  std::size_t write_park_bytes = 1u << 20;
  std::size_t queue_capacity = 0;  // admission queue slots; 0 = 16 * threads
  // Queue-pressure budget: a backlog parked at the admission ring longer
  // than this is answered `overloaded` instead of waiting. 0 = park forever
  // (the pre-PR-9 behavior).
  std::int64_t shed_after_ms = 2000;
  // Slow-client eviction: a connection whose pending output makes no progress
  // for this long is dropped. 0 = never evict.
  std::int64_t write_stall_ms = 30000;
  // Invoked on the loop thread when request_reload() fires (the SIGHUP path).
  // Exceptions are caught and logged; the server keeps serving either way.
  std::function<void()> on_reload;
};

class NetServer {
 public:
  // Binds and listens immediately (so callers can print the port before
  // run()); throws std::runtime_error with errno context on failure.
  NetServer(TenantRegistry& registry, NetServerConfig config);

  // Serves the already-connected stream socket `fd` (ownership passes to the
  // server) and binds nothing; run() drains and returns once that connection
  // closes. config.host/port are ignored.
  NetServer(TenantRegistry& registry, NetServerConfig config, int fd);
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  // The bound port (resolves config.port == 0).
  [[nodiscard]] std::uint16_t port() const { return port_; }

  // Runs the event loop until request_shutdown() (or, without a listener,
  // the last connection's close) and the drain completes.
  // Call from exactly one thread; worker threads are spawned and joined
  // inside.
  void run();

  // Async-signal-safe shutdown trigger (callable from a signal handler).
  void request_shutdown();

  // Async-signal-safe reload trigger: schedules config_.on_reload on the
  // loop thread (callable from a SIGHUP handler).
  void request_reload();

  // --- stats (valid while running and after run() returns) -----------------
  [[nodiscard]] const WireCounters& wire_counters() const { return counters_; }
  [[nodiscard]] std::uint64_t connections_accepted() const {
    return conns_accepted_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t responses_sent() const {
    return responses_sent_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t connections_shed_fd_limit() const {
    return conns_shed_fdlimit_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t connections_evicted_stalled() const {
    return conns_evicted_stalled_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t reloads_completed() const {
    return reloads_completed_.load(std::memory_order_relaxed);
  }

 private:
  // One queued request line. `conn` stays valid until the job's deliver():
  // the connection's inflight count pins it through the zombie list.
  struct Conn;
  struct NetJob {
    Conn* conn = nullptr;
    std::uint64_t seq = 0;     // connection-local request index
    std::uint64_t ticket = 0;  // ordered mode: connection admission ticket
    std::optional<LineJob> admitted;  // set once admitted (ordered mode)
    bool oversized = false;
    std::string line;
    // When the bytes arrived — the moment the request's deadline clock
    // started, covering queue wait as well as execution.
    std::chrono::steady_clock::time_point arrival{};
  };

  struct Conn {
    explicit Conn(int fd_, std::size_t max_line)
        : fd(fd_), framer(max_line) {}

    int fd;
    LineFramer framer;

    // --- loop-thread-only state ---------------------------------------------
    std::uint64_t next_seq = 0;        // next request index to assign
    std::uint64_t next_ticket = 0;     // next admission ticket to hand out
    std::deque<NetJob> backlog;        // parsed lines the queue refused
    bool read_closed = false;          // peer sent EOF
    bool reading = true;               // EPOLLIN currently armed
    bool writing = false;              // EPOLLOUT currently armed
    bool parked_for_queue = false;     // in queue_waiters_
    bool stalled = false;              // pending output, no write progress
    std::chrono::steady_clock::time_point park_since{};   // parked_for_queue
    std::chrono::steady_clock::time_point stall_since{};  // stalled

    // --- worker/loop shared state (out_mutex) -------------------------------
    std::mutex out_mutex;
    std::string out;                       // bytes awaiting write()
    std::size_t out_off = 0;               // prefix of `out` already sent
    std::uint64_t next_out = 0;            // ordered mode: next seq to emit
    std::map<std::uint64_t, std::string> reorder;  // ordered mode holdback

    // --- cross-thread flags -------------------------------------------------
    std::atomic<bool> dead{false};           // error/hangup: drop everything
    std::atomic<std::uint64_t> inflight{0};  // jobs queued or being served
    std::atomic<bool> in_ready{false};       // already on the ready list

    // --- ordered mode: admission turns (turn_mutex) -------------------------
    std::mutex turn_mutex;
    std::uint64_t turn = 0;                   // ticket admitted next
    std::map<std::uint64_t, NetJob> early;  // popped before their turn
  };

  void setup_loop();           // epoll + wakeup fd + signal self-pipe
  bool watch(int fd);          // add fd to epoll for EPOLLIN
  bool add_conn(int fd);       // serve a connected, non-blocking socket
  void worker_main();
  void admit_in_turn(NetJob job);  // ordered mode, see the file comment
  void complete(NetJob& job);       // answer, deliver, wake the loop
  void deliver(Conn& c, std::uint64_t seq, std::string line);

  void handle_accept();
  void shed_via_spare_fd();     // EMFILE/ENFILE: accept+close one connection
  void handle_readable(Conn& c);
  bool flush_writes(Conn& c);   // false: peer gone, caller must drop
  bool park(Conn& c);           // wait in queue_waiters_; returns false
  bool drain_backlog(Conn& c);  // false: connection parked
  void shed_backlog(Conn& c);   // answer the backlog `overloaded`, unpark
  void update_interest(Conn& c, bool want_read, bool want_write);
  void refresh_after_io(Conn& c);  // flush + recompute interest + finish
  void drop_conn(Conn& c);      // error path: discard state, close socket
  void retire_conn(Conn& c);    // clean path: close once fully flushed
  void maybe_finish_conn(Conn& c);
  void process_wakeups();
  void reap_zombies();
  void begin_drain();
  void do_reload();
  void sweep_timers();          // shed overdue parks, evict stalled writers
  [[nodiscard]] int loop_timeout_ms() const;
  [[nodiscard]] bool drained() const;

  TenantRegistry* registry_;
  NetServerConfig config_;
  WireCounters counters_;

  int epoll_fd_ = -1;
  int listen_fd_ = -1;    // < 0: no listener (adopted fd, or draining)
  int wake_fd_ = -1;      // eventfd: workers → loop
  int sig_pipe_[2] = {-1, -1};  // self-pipe: shutdown/reload signals → loop
  // Reserved fd: released under EMFILE/ENFILE so the pending connection can
  // be accepted and closed (shed) instead of spinning at the fd limit.
  int spare_fd_ = -1;
  std::uint16_t port_ = 0;

  std::unique_ptr<BoundedQueue<NetJob>> queue_;
  std::map<int, std::unique_ptr<Conn>> conns_;        // fd → live connection
  std::vector<std::unique_ptr<Conn>> zombies_;        // closed, jobs inflight
  std::vector<Conn*> queue_waiters_;                  // parked: queue was full
  std::vector<int> pending_close_;  // close deferred past the event batch:
                                    // the kernel must not reuse an fd while
                                    // stale events for it are still queued

  std::mutex ready_mutex_;
  std::vector<Conn*> ready_;  // conns with fresh output (workers append)

  bool draining_ = false;
  bool reload_happened_ = false;  // enables retired-tenant reaping in sweeps
  std::size_t stalled_conns_ = 0;  // conns with `stalled` set (loop-only)
  std::atomic<std::uint64_t> jobs_outstanding_{0};  // framed but not delivered
  std::atomic<std::uint64_t> conns_accepted_{0};
  std::atomic<std::uint64_t> responses_sent_{0};
  std::atomic<std::uint64_t> conns_shed_fdlimit_{0};
  std::atomic<std::uint64_t> conns_evicted_stalled_{0};
  std::atomic<std::uint64_t> reloads_completed_{0};
};

}  // namespace ftbfs
