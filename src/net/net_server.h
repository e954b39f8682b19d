// Non-blocking socket front-end: the threaded pipeline of `ftbfs serve`.
// It serves TCP clients (`--listen`), or one adopted connection — the
// socketpair `serve --threads N` pumps stdin and stdout through.
//
// One epoll event loop (the thread that calls run()) owns every socket:
// it accepts connections, reassembles JSONL request lines (net/framing.h),
// and writes response bytes. A pool of worker threads owns every answer.
// The loop appends a connection's framed lines to its inbox and queues the
// connection for the workers, unless it is already queued; a worker takes
// the inbox, runs each line through the same LineJob parse/admit/finish
// pipeline the inline stdin loop uses (service/tenant.h), appends the
// batch's answers to the connection's output in one step, and wakes the
// loop with an eventfd. The loop never computes and the workers never touch
// a socket.
//
// Ordering. The mode sets how many workers may serve one connection at
// once. Ordered: one, so its lines are admitted, executed and answered in
// request order — the answer stream, `cache_hit` included, is
// byte-identical at any worker count while no other connection interleaves
// admissions. A slow admission (a lazy build) therefore holds one worker
// and its own connection's later lines, never the pool; the flip side is
// that one ordered connection never runs its lines in parallel. Relaxed:
// up to `threads` workers, each taking a share of the inbox, answer in
// completion order and stamp `seq` (the connection-local request index)
// into responses to id-less requests. Cross-connection order is undefined.
// A worker that finishes a batch while its connection has more lines keeps
// it only if no other connection is waiting; otherwise the connection goes
// to the back of the queue.
//
// Backpressure, two rings of it, both by *parking the connection* (dropping
// its EPOLLIN interest so the kernel's TCP window does the rest):
//   * admission ring — `queue_capacity` lines in all inboxes together are
//     waiting for a worker, or (ordered) the connection has `queue_capacity`
//     lines in its inbox and its worker's batch: framed lines wait in the
//     connection's backlog and the loop retries when a worker ends a batch;
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
// backlog answered `overloaded` by the loop thread instead of parking
// forever (while earlier lines are still in flight, those answers pass
// through the inbox, so they follow the earlier answers); a connection whose
// write buffer has made no progress for `write_stall_ms` (the peer stopped
// reading) is evicted. Both timers run on a coarse epoll-timeout sweep that
// only ticks while some connection is parked or stalled — an idle or healthy
// server still blocks indefinitely.
//
// Reload: request_reload() (async-signal-safe, the SIGHUP path) runs
// `on_reload` on the loop thread — the CLI points it at
// TenantRegistry::reload, so tenants appear/retire/re-quota without a
// restart while workers keep serving; in-flight requests pin their tenant
// until they finish (service/tenant.h).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "net/framing.h"
#include "service/tenant.h"

namespace ftbfs {

struct NetServerConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  // 0 = ephemeral; NetServer::port() has the result
  unsigned threads = 1;
  bool ordered = true;  // per-connection response order (see file comment)
  std::size_t max_line_bytes = 1u << 20;
  std::size_t write_park_bytes = 1u << 20;
  // Admission ring: lines waiting for a worker, over all connections, and
  // (ordered) lines in flight on one connection. 0 = 16 * threads.
  std::size_t queue_capacity = 0;
  // Queue-pressure budget: a backlog parked at the admission ring longer
  // than this is answered `overloaded` instead of waiting. 0 = park forever.
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
  // One framed request line, from the loop to the worker that answers it.
  struct NetJob {
    std::uint64_t seq = 0;  // connection-local request index
    bool oversized = false;
    // `line` already holds the answer: a backlog line shed `overloaded`
    // while earlier lines were in flight, emitted after their answers.
    bool shed = false;
    std::string line;
    // When the bytes arrived — the moment the request's deadline clock
    // started, covering the wait for a worker as well as execution.
    std::chrono::steady_clock::time_point arrival{};
  };

  struct Conn {
    explicit Conn(int fd_, std::size_t max_line)
        : fd(fd_), framer(max_line) {}

    int fd;
    LineFramer framer;

    // --- loop-thread-only state ---------------------------------------------
    std::uint64_t next_seq = 0;        // next request index to assign
    std::deque<NetJob> backlog;        // framed lines the admission ring refused
    std::string sending;               // output taken from `out`, being sent
    std::size_t sent = 0;              // prefix of `sending` already sent
    bool read_closed = false;          // peer sent EOF
    bool reading = true;               // EPOLLIN currently armed
    bool writing = false;              // EPOLLOUT currently armed
    bool parked_for_queue = false;     // in queue_waiters_
    bool stalled = false;              // pending output, no write progress
    std::chrono::steady_clock::time_point park_since{};   // parked_for_queue
    std::chrono::steady_clock::time_point stall_since{};  // stalled

    // --- appended by workers, taken by the loop (out_mutex) -----------------
    std::mutex out_mutex;
    std::string out;

    // --- scheduling state (NetServer::mutex_) -------------------------------
    std::vector<NetJob> inbox;  // lines for the next worker, in request order
    std::size_t inflight = 0;   // lines in `inbox` or in a worker's batch
    unsigned serving = 0;       // workers holding this connection
    bool queued = false;        // on runnable_
    bool in_ready = false;      // on ready_

    std::atomic<bool> dead{false};  // error/hangup: drop everything
  };

  void setup_loop();           // epoll + wakeup fd + signal self-pipe
  bool watch(int fd);          // add fd to epoll for EPOLLIN
  bool add_conn(int fd);       // serve a connected, non-blocking socket

  // Worker side. Helpers marked "under mutex_" need it held.
  void worker_main();
  void take_batch(Conn& c, std::vector<NetJob>& batch);  // under mutex_
  void answer_batch(Conn& c, std::vector<NetJob>& batch,
                    ParsedRequest& parsed, std::string& answers);
  void publish(Conn& c, std::string& answers, std::size_t lines);
  void schedule(Conn& c);   // under mutex_: queue c if a worker may take it
  bool mark_ready(Conn& c);  // under mutex_: true = the loop needs a wakeup
  void wake_loop();

  // Loop side.
  void handle_accept();
  void shed_via_spare_fd();     // EMFILE/ENFILE: accept+close one connection
  void handle_readable(Conn& c);
  bool flush_writes(Conn& c);   // false: peer gone, caller must drop
  [[nodiscard]] std::size_t pending_output(Conn& c);  // bytes not yet sent
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

  std::map<int, std::unique_ptr<Conn>> conns_;        // fd → live connection
  std::vector<std::unique_ptr<Conn>> zombies_;        // closed, still served
  std::vector<Conn*> queue_waiters_;                  // parked: ring was full
  std::vector<int> pending_close_;  // close deferred past the event batch:
                                    // the kernel must not reuse an fd while
                                    // stale events for it are still queued

  // Scheduling: guards every Conn's inbox/inflight/serving/queued/in_ready
  // and runnable_, ready_, waiting_ and stopping_. A worker holds a Conn only between taking
  // it off runnable_ and dropping `serving`; the loop frees a Conn only
  // when no worker holds it and it is on neither list.
  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::deque<Conn*> runnable_;  // conns with lines a worker may take
  std::vector<Conn*> ready_;    // conns with fresh output (loop drains)
  std::size_t waiting_ = 0;     // request lines in inboxes (not shed ones)
  bool stopping_ = false;
  unsigned per_conn_workers_ = 1;  // ordered 1, relaxed `threads`

  bool draining_ = false;
  bool reload_happened_ = false;  // enables retired-tenant reaping in sweeps
  std::size_t stalled_conns_ = 0;  // conns with `stalled` set (loop-only)
  std::atomic<std::uint64_t> conns_accepted_{0};
  std::atomic<std::uint64_t> responses_sent_{0};
  std::atomic<std::uint64_t> conns_shed_fdlimit_{0};
  std::atomic<std::uint64_t> conns_evicted_stalled_{0};
  std::atomic<std::uint64_t> reloads_completed_{0};
};

}  // namespace ftbfs
