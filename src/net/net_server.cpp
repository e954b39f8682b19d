#include "net/net_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <fcntl.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <stdexcept>
#include <thread>
#include <utility>

#include "service/protocol.h"
#include "util/failpoint.h"

namespace ftbfs {

namespace {

[[noreturn]] void die(const char* what) {
  throw std::runtime_error(std::string(what) + ": " + std::strerror(errno));
}

void close_quiet(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

std::int64_t ms_since(std::chrono::steady_clock::time_point since,
                      std::chrono::steady_clock::time_point now) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(now - since)
      .count();
}

// The "id" a served answer to `line` would echo, for a line the server is
// about to shed without serving: parse_request_into's rules (the last "id"
// wins, up to int64 max; -1 when the line would be a parse error), with no
// tenant resolved, so no fault edge is looked up.
std::int64_t peek_request_id(const std::string& line) {
  ParsedRequest parsed;
  parse_request_into(
      line, [](const std::string&) -> const Graph* { return nullptr; },
      parsed);
  return parsed.request.id;
}

}  // namespace

void NetServer::setup_loop() {
  if (config_.threads == 0) config_.threads = 1;
  if (config_.queue_capacity == 0) {
    config_.queue_capacity = 16u * config_.threads;
  }
  per_conn_workers_ = config_.ordered ? 1u : config_.threads;

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) die("epoll_create1");
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wake_fd_ < 0) die("eventfd");
  if (::pipe2(sig_pipe_, O_NONBLOCK | O_CLOEXEC) != 0) die("pipe2");
  if (!watch(wake_fd_) || !watch(sig_pipe_[0])) die("epoll_ctl");
}

bool NetServer::watch(int fd) {
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = fd;
  return ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) == 0;
}

bool NetServer::add_conn(int fd) {
  if (!watch(fd)) return false;
  conns_.emplace(fd, std::make_unique<Conn>(fd, config_.max_line_bytes));
  conns_accepted_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

NetServer::NetServer(TenantRegistry& registry, NetServerConfig config)
    : registry_(&registry), config_(std::move(config)) {
  setup_loop();
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) die("socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) != 1) {
    throw std::runtime_error("invalid listen address '" + config_.host +
                             "' (IPv4 dotted quad expected)");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
      0) {
    die("bind");
  }
  if (::listen(listen_fd_, 512) != 0) die("listen");
  sockaddr_in bound{};
  socklen_t bound_len = sizeof bound;
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) != 0) {
    die("getsockname");
  }
  port_ = ntohs(bound.sin_port);
  if (!watch(listen_fd_)) die("epoll_ctl");

  // The EMFILE escape hatch (see shed_via_spare_fd). Failing to reserve it is
  // survivable — the server just loses the shedding behavior at the limit.
  spare_fd_ = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
}

NetServer::NetServer(TenantRegistry& registry, NetServerConfig config, int fd)
    : registry_(&registry), config_(std::move(config)) {
  setup_loop();
  if (::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK) != 0 ||
      !add_conn(fd)) {
    const int err = errno;
    ::close(fd);
    errno = err;
    die("adopting connection");
  }
}

NetServer::~NetServer() {
  for (auto& [fd, conn] : conns_) close_quiet(conn->fd);
  close_quiet(listen_fd_);
  close_quiet(wake_fd_);
  close_quiet(sig_pipe_[0]);
  close_quiet(sig_pipe_[1]);
  close_quiet(spare_fd_);
  close_quiet(epoll_fd_);
}

void NetServer::request_shutdown() {
  const char byte = 'q';
  // Async-signal-safe; a full pipe means a shutdown is already pending.
  [[maybe_unused]] const ssize_t n = ::write(sig_pipe_[1], &byte, 1);
}

void NetServer::request_reload() {
  const char byte = 'r';
  [[maybe_unused]] const ssize_t n = ::write(sig_pipe_[1], &byte, 1);
}

// ---------------------------------------------------------------------------
// Worker side: a connection's inbox → LineJob → its output buffer.

namespace {
// A batch's answers reach the connection at the latest once they pass this
// size, so a batch of large answers (all_distances) is not held in full.
constexpr std::size_t kPublishBytes = 64 * 1024;
}  // namespace

void NetServer::worker_main() {
  ParsedRequest parsed;  // every line this worker answers parses into it
  std::string answers;
  std::vector<NetJob> batch;
  std::unique_lock lock(mutex_);
  while (true) {
    if (runnable_.empty()) {
      if (stopping_) return;
      work_cv_.wait(lock, [&] { return stopping_ || !runnable_.empty(); });
      continue;
    }
    Conn& c = *runnable_.front();
    runnable_.pop_front();
    c.queued = false;
    ++c.serving;
    bool keep = true;
    while (keep) {
      take_batch(c, batch);
      lock.unlock();
      answer_batch(c, batch, parsed, answers);
      lock.lock();
      c.inflight -= batch.size();
      // More lines, and nobody else waiting: keep the connection. Otherwise
      // let go of it (to the back of the queue if it has more lines).
      keep = !c.inbox.empty() && runnable_.empty();
      if (!keep) {
        --c.serving;
        schedule(c);
      }
      // Once `serving` has dropped, `c` may be freed as soon as the lock is.
      if (mark_ready(c)) {
        lock.unlock();
        wake_loop();
        lock.lock();
      }
    }
  }
}

void NetServer::take_batch(Conn& c, std::vector<NetJob>& batch) {
  batch.clear();
  // Ordered: the whole inbox. Relaxed: an even share with the workers that
  // may still join this connection.
  const std::size_t share = per_conn_workers_ - c.serving + 1;
  const std::size_t take = (c.inbox.size() + share - 1) / share;
  if (take == c.inbox.size()) {
    batch.swap(c.inbox);
  } else {
    const auto end = c.inbox.begin() + static_cast<std::ptrdiff_t>(take);
    batch.assign(std::make_move_iterator(c.inbox.begin()),
                 std::make_move_iterator(end));
    c.inbox.erase(c.inbox.begin(), end);
    schedule(c);  // the rest is another worker's share
  }
  for (const NetJob& job : batch) waiting_ -= job.shed ? 0 : 1;
}

void NetServer::answer_batch(Conn& c, std::vector<NetJob>& batch,
                             ParsedRequest& parsed, std::string& answers) {
  const bool stamp_seq = !config_.ordered;
  answers.clear();
  std::size_t lines = 0;
  for (const NetJob& job : batch) {
    if (c.dead.load(std::memory_order_acquire)) return;  // nobody to answer
    const auto seq = static_cast<std::int64_t>(job.seq);
    if (job.shed) {
      answers += job.line;
    } else if (job.oversized) {
      answers += oversized_line_answer(config_.max_line_bytes, seq, stamp_seq,
                                       counters_);
    } else {
      LineJob request(*registry_, job.line, seq, stamp_seq, counters_,
                      parsed, job.arrival);
      request.admit();
      request.finish(answers);
    }
    answers += '\n';
    ++lines;
    if (answers.size() >= kPublishBytes) {
      publish(c, answers, lines);
      lines = 0;
      bool wake;
      {
        const std::lock_guard lock(mutex_);
        wake = mark_ready(c);
      }
      if (wake) wake_loop();
    }
  }
  publish(c, answers, lines);
}

void NetServer::publish(Conn& c, std::string& answers, std::size_t lines) {
  if (lines != 0) {
    const std::lock_guard lock(c.out_mutex);
    if (!c.dead.load(std::memory_order_acquire)) {
      if (c.out.empty()) {
        c.out.swap(answers);  // the worker keeps the loop's spent buffer
      } else {
        c.out += answers;
      }
      responses_sent_.fetch_add(lines, std::memory_order_relaxed);
    }
  }
  answers.clear();
}

void NetServer::schedule(Conn& c) {
  if (c.inbox.empty() || c.queued || c.serving >= per_conn_workers_) return;
  c.queued = true;
  runnable_.push_back(&c);
  work_cv_.notify_one();  // no system call unless a worker sleeps
}

bool NetServer::mark_ready(Conn& c) {
  if (c.in_ready) return false;
  c.in_ready = true;
  ready_.push_back(&c);
  // A non-empty list already has a wakeup on its way: the loop takes the
  // list under mutex_ after it reads the eventfd, so it sees `c` too.
  return ready_.size() == 1;
}

void NetServer::wake_loop() {
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof one);
}

// ---------------------------------------------------------------------------
// Loop side.

void NetServer::update_interest(Conn& c, bool want_read, bool want_write) {
  if (c.fd < 0 || (want_read == c.reading && want_write == c.writing)) return;
  epoll_event ev{};
  ev.events = (want_read ? EPOLLIN : 0u) | (want_write ? EPOLLOUT : 0u);
  ev.data.fd = c.fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, c.fd, &ev) == 0) {
    c.reading = want_read;
    c.writing = want_write;
  }
}

void NetServer::shed_via_spare_fd() {
  // At the fd limit, accept() fails without consuming the pending connection,
  // so a level-triggered loop would spin on EPOLLIN forever. Releasing the
  // reserved fd makes room to accept the connection — then we close it
  // immediately (shed: the client sees a clean RST/EOF, not a dead server)
  // and re-reserve.
  if (spare_fd_ < 0) return;  // reserve failed at startup: nothing to shed with
  close_quiet(spare_fd_);
  const int pending =
      ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
  if (pending >= 0) {
    ::close(pending);
    conns_shed_fdlimit_.fetch_add(1, std::memory_order_relaxed);
  }
  spare_fd_ = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
}

void NetServer::handle_accept() {
  static fp::Failpoint& fp_accept = fp::site("net.accept");
  while (listen_fd_ >= 0) {
    int fd;
    if (const int e = fp::fail_errno(fp_accept); e != 0) {
      fd = -1;
      errno = e;
    } else {
      fd = ::accept4(listen_fd_, nullptr, nullptr,
                     SOCK_NONBLOCK | SOCK_CLOEXEC);
    }
    if (fd < 0) {
      if (errno == EINTR) continue;
      if (errno == EMFILE || errno == ENFILE) {
        shed_via_spare_fd();
        continue;
      }
      break;  // EAGAIN, or a transient error (ECONNABORTED, ...)
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    if (!add_conn(fd)) ::close(fd);
  }
}

bool NetServer::park(Conn& c) {
  if (!c.parked_for_queue) {
    c.parked_for_queue = true;
    c.park_since = std::chrono::steady_clock::now();
    queue_waiters_.push_back(&c);
  }
  return false;
}

bool NetServer::drain_backlog(Conn& c) {
  if (!c.backlog.empty()) {
    const std::lock_guard lock(mutex_);
    while (!c.backlog.empty() && waiting_ < config_.queue_capacity &&
           (!config_.ordered || c.inflight < config_.queue_capacity)) {
      c.inbox.push_back(std::move(c.backlog.front()));
      c.backlog.pop_front();
      ++waiting_;
      ++c.inflight;
    }
    schedule(c);
  }
  if (!c.backlog.empty()) return park(c);
  c.parked_for_queue = false;
  return true;
}

void NetServer::shed_backlog(Conn& c) {
  // The admission ring has been full past the shed budget: parking longer
  // only converts load into queueing latency the client never asked for.
  // Answer every parked line `overloaded` from the loop thread.
  for (NetJob& job : c.backlog) {
    counters_.overload_sheds.fetch_add(1, std::memory_order_relaxed);
    QueryResponse resp;
    resp.status = StatusCode::kOverloaded;
    resp.error = "server overloaded: admission queue full past shed budget";
    resp.id = job.oversized ? -1 : peek_request_id(job.line);
    if (resp.id < 0 && !config_.ordered) {
      resp.seq = static_cast<std::int64_t>(job.seq);
    }
    job.line = format_response_line(resp);
    job.shed = true;
  }
  {
    // Ordered, with earlier lines in flight: their answers come first, so
    // these follow them through the inbox. Otherwise they go out directly
    // (with none in flight none can start: only the loop adds lines).
    std::unique_lock lock(mutex_);
    if (config_.ordered && c.inflight > 0) {
      for (NetJob& job : c.backlog) c.inbox.push_back(std::move(job));
      c.inflight += c.backlog.size();
      schedule(c);
    } else {
      lock.unlock();
      const std::lock_guard out_lock(c.out_mutex);
      for (const NetJob& job : c.backlog) {
        c.out += job.line;
        c.out += '\n';
      }
      responses_sent_.fetch_add(c.backlog.size(), std::memory_order_relaxed);
    }
  }
  c.backlog.clear();
  if (c.parked_for_queue) {
    c.parked_for_queue = false;
    std::erase(queue_waiters_, &c);
  }
  refresh_after_io(c);
}

void NetServer::handle_readable(Conn& c) {
  // A parked connection can still see level-triggered EPOLLIN events that
  // were queued before its interest was dropped; never read past a backlog.
  if (!c.backlog.empty()) return;
  static fp::Failpoint& fp_read = fp::site("net.read");
  const auto now = std::chrono::steady_clock::now();
  const auto frame = [&](const std::string& line, bool oversized) {
    NetJob& job = c.backlog.emplace_back();
    job.seq = c.next_seq++;
    job.oversized = oversized;
    job.line = line;
    job.arrival = now;
  };
  char buf[65536];
  while (true) {
    ssize_t n;
    if (const int e = fp::fail_errno(fp_read); e != 0) {
      n = -1;
      errno = e;
    } else {
      n = ::read(c.fd, buf, sizeof buf);
    }
    if (n > 0) {
      c.framer.feed(buf, static_cast<std::size_t>(n), frame);
      if (!drain_backlog(c)) break;  // admission ring full: park
      // Peer not reading its answers: park.
      if (pending_output(c) > config_.write_park_bytes) break;
      continue;
    }
    if (n == 0) {
      c.read_closed = true;
      c.framer.finish(frame);  // an unterminated last line is still a request
      drain_backlog(c);
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    drop_conn(c);
    return;
  }
  refresh_after_io(c);
}

bool NetServer::flush_writes(Conn& c) {
  if (c.dead.load(std::memory_order_acquire) || c.fd < 0) return true;
  static fp::Failpoint& fp_write = fp::site("net.write");
  bool progressed = false;
  while (true) {
    if (c.sent == c.sending.size()) {
      // Take what the workers appended; send it outside their lock.
      c.sending.clear();
      c.sent = 0;
      {
        const std::lock_guard lock(c.out_mutex);
        c.sending.swap(c.out);
      }
      if (c.sending.empty()) break;
    }
    std::size_t want = c.sending.size() - c.sent;
    ssize_t n;
    const fp::Outcome o = fp::eval(fp_write);
    if (o.kind == fp::Outcome::Kind::kErr) {
      n = -1;
      errno = o.err;
    } else {
      if (o.kind == fp::Outcome::Kind::kShortWrite) want = (want + 1) / 2;
      if (o.kind == fp::Outcome::Kind::kSleep) {
        std::this_thread::sleep_for(std::chrono::milliseconds(o.ms));
      }
      n = ::send(c.fd, c.sending.data() + c.sent, want, MSG_NOSIGNAL);
    }
    if (n > 0) {
      c.sent += static_cast<std::size_t>(n);
      progressed = true;
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    return false;  // peer gone; caller drops the connection
  }
  // Stall bookkeeping: "stalled" means this flush left bytes pending — the peer's receive
  // window cannot take everything we owe it. The clock resets on any
  // progress, so a merely slow reader never accumulates toward eviction.
  // The conn must stay in the stalled set as long as bytes are pending, even
  // across a flush that progressed: a peer that stops reading entirely
  // generates no further epoll events, so sweep_timers() (driven by the
  // 20ms loop timeout that `stalled_conns_ > 0` keeps alive) is the only
  // thing left that can notice the deadline passing.
  const bool blocked = c.sent < c.sending.size();
  if (!blocked) {
    if (c.stalled) {
      c.stalled = false;
      --stalled_conns_;
    }
  } else if (!c.stalled) {
    c.stalled = true;
    c.stall_since = std::chrono::steady_clock::now();
    ++stalled_conns_;
  } else if (progressed) {
    c.stall_since = std::chrono::steady_clock::now();
  }
  return true;
}

std::size_t NetServer::pending_output(Conn& c) {
  const std::lock_guard lock(c.out_mutex);
  return c.sending.size() - c.sent + c.out.size();
}

void NetServer::refresh_after_io(Conn& c) {
  if (c.dead.load(std::memory_order_relaxed) || c.fd < 0) return;
  if (!flush_writes(c)) {
    drop_conn(c);
    return;
  }
  const std::size_t pending = pending_output(c);
  const bool want_read = !draining_ && !c.read_closed && c.backlog.empty() &&
                         !c.parked_for_queue &&
                         pending <= config_.write_park_bytes;
  update_interest(c, want_read, pending > 0);
  maybe_finish_conn(c);
}

void NetServer::maybe_finish_conn(Conn& c) {
  if (c.dead.load(std::memory_order_relaxed) || c.fd < 0) return;
  if (!c.read_closed && !draining_) return;
  if (!c.backlog.empty()) return;
  {
    // Workers append a batch's answers before they drop `inflight`, so with
    // it at zero every answer is in `out`.
    const std::lock_guard lock(mutex_);
    if (c.inflight != 0 || c.serving != 0 || c.in_ready) return;
  }
  if (pending_output(c) != 0) return;
  retire_conn(c);
}

void NetServer::retire_conn(Conn& c) {
  if (c.stalled) {
    c.stalled = false;
    --stalled_conns_;
  }
  const int fd = c.fd;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  c.fd = -1;
  pending_close_.push_back(fd);
  conns_.erase(fd);  // frees the Conn: nothing references it anymore
}

void NetServer::drop_conn(Conn& c) {
  if (c.dead.load(std::memory_order_relaxed)) return;
  c.dead.store(true, std::memory_order_release);
  c.backlog.clear();
  {
    const std::lock_guard lock(mutex_);
    // Lines no worker took free their ring slots, and no batch end will
    // report it: a wakeup makes the loop retry the parked connections.
    if (!c.inbox.empty()) wake_loop();
    for (const NetJob& job : c.inbox) waiting_ -= job.shed ? 0 : 1;
    c.inflight -= c.inbox.size();
    c.inbox.clear();
    if (c.queued) {
      c.queued = false;
      std::erase(runnable_, &c);
    }
  }
  if (c.stalled) {
    c.stalled = false;
    --stalled_conns_;
  }
  if (c.parked_for_queue) {
    c.parked_for_queue = false;
    std::erase(queue_waiters_, &c);
  }
  const int fd = c.fd;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  c.fd = -1;
  pending_close_.push_back(fd);
  // A worker may still hold a batch of this connection: park it on the
  // zombie list until no worker does, then reap.
  auto it = conns_.find(fd);
  zombies_.push_back(std::move(it->second));
  conns_.erase(it);
}

void NetServer::reap_zombies() {
  if (!zombies_.empty()) {
    const std::lock_guard lock(mutex_);
    std::erase_if(zombies_, [](const std::unique_ptr<Conn>& z) {
      return z->serving == 0 && !z->in_ready;
    });
  }
  // After a reload, tenants the new manifest dropped sit retired until their
  // last pinned request finishes; sweep them out alongside zombie conns.
  if (reload_happened_) registry_->reap_retired();
}

void NetServer::process_wakeups() {
  std::uint64_t count = 0;
  [[maybe_unused]] const ssize_t n = ::read(wake_fd_, &count, sizeof count);
  std::vector<Conn*> batch;
  {
    const std::lock_guard lock(mutex_);
    batch.swap(ready_);
    for (Conn* c : batch) c->in_ready = false;
  }
  for (Conn* c : batch) {
    if (c->dead.load(std::memory_order_relaxed)) continue;
    refresh_after_io(*c);
  }
  // A finished batch freed admission room: give parked connections another
  // shot at admission, in park order. One that got lines in and parks again
  // goes behind those that got none, so a heavy client cannot take every
  // freed slot.
  std::vector<Conn*> waiters;
  waiters.swap(queue_waiters_);
  std::vector<Conn*> admitted_some;
  for (Conn* c : waiters) {
    if (c->dead.load(std::memory_order_relaxed)) continue;
    c->parked_for_queue = false;
    const std::size_t before = c->backlog.size();
    if (drain_backlog(*c)) {
      refresh_after_io(*c);
    } else if (c->backlog.size() != before) {
      queue_waiters_.pop_back();  // park() just put it there
      admitted_some.push_back(c);
    }
  }
  queue_waiters_.insert(queue_waiters_.end(), admitted_some.begin(),
                        admitted_some.end());
  reap_zombies();
}

void NetServer::begin_drain() {
  if (draining_) return;
  draining_ = true;
  if (listen_fd_ >= 0) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
    close_quiet(listen_fd_);
  }
  // Stop reading everywhere; serve what was already framed, flush, close.
  // Iterate over fds (not iterators): maybe_finish_conn erases from conns_.
  std::vector<int> fds;
  fds.reserve(conns_.size());
  for (const auto& [fd, conn] : conns_) fds.push_back(fd);
  for (const int fd : fds) {
    auto it = conns_.find(fd);
    if (it != conns_.end()) refresh_after_io(*it->second);
  }
}

bool NetServer::drained() const {
  // Every line belongs to a connection, so with none left none is pending.
  return draining_ && conns_.empty() && zombies_.empty();
}

void NetServer::do_reload() {
  if (!config_.on_reload) return;
  try {
    config_.on_reload();
    reload_happened_ = true;
    reloads_completed_.fetch_add(1, std::memory_order_relaxed);
  } catch (const std::exception& ex) {
    // A bad manifest must not take the server down: keep serving under the
    // previous configuration (TenantRegistry::reload is all-or-nothing).
    std::fprintf(stderr, "ftbfs serve: manifest reload failed: %s\n",
                 ex.what());
  }
}

void NetServer::sweep_timers() {
  const bool any_parked = !queue_waiters_.empty() && config_.shed_after_ms > 0;
  const bool any_stalled = stalled_conns_ > 0 && config_.write_stall_ms > 0;
  if (!any_parked && !any_stalled) return;
  const auto now = std::chrono::steady_clock::now();
  if (any_parked) {
    // Copy: shed_backlog unparks (mutates queue_waiters_).
    const std::vector<Conn*> waiters = queue_waiters_;
    for (Conn* c : waiters) {
      if (c->dead.load(std::memory_order_relaxed) || !c->parked_for_queue) {
        continue;
      }
      if (ms_since(c->park_since, now) >= config_.shed_after_ms) {
        shed_backlog(*c);
      }
    }
  }
  if (any_stalled) {
    std::vector<Conn*> victims;
    for (const auto& [fd, conn] : conns_) {
      if (conn->stalled &&
          ms_since(conn->stall_since, now) >= config_.write_stall_ms) {
        victims.push_back(conn.get());
      }
    }
    for (Conn* c : victims) {
      conns_evicted_stalled_.fetch_add(1, std::memory_order_relaxed);
      drop_conn(*c);
    }
  }
}

int NetServer::loop_timeout_ms() const {
  // Block indefinitely unless some connection's degradation timer is running:
  // a healthy or idle server never wakes up just to look at a clock.
  const bool parked = !queue_waiters_.empty() && config_.shed_after_ms > 0;
  const bool stalled = stalled_conns_ > 0 && config_.write_stall_ms > 0;
  return (parked || stalled) ? 20 : -1;
}

void NetServer::run() {
  std::vector<std::thread> workers;
  workers.reserve(config_.threads);
  for (unsigned i = 0; i < config_.threads; ++i) {
    workers.emplace_back([this] { worker_main(); });
  }

  epoll_event events[64];
  while (!drained()) {
    const int n = ::epoll_wait(epoll_fd_, events, 64, loop_timeout_ms());
    if (n < 0) {
      if (errno == EINTR) continue;
      die("epoll_wait");
    }
    bool wake = false;
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      const std::uint32_t ev = events[i].events;
      if (fd == wake_fd_) {
        wake = true;
        continue;
      }
      if (fd == sig_pipe_[0]) {
        char sink[16];
        bool want_drain = false;
        bool want_reload = false;
        ssize_t got;
        while ((got = ::read(sig_pipe_[0], sink, sizeof sink)) > 0) {
          for (ssize_t j = 0; j < got; ++j) {
            if (sink[j] == 'r') {
              want_reload = true;
            } else {
              want_drain = true;
            }
          }
        }
        if (want_reload && !draining_) do_reload();
        if (want_drain) begin_drain();
        continue;
      }
      if (fd == listen_fd_) {
        handle_accept();
        continue;
      }
      auto it = conns_.find(fd);
      if (it == conns_.end()) continue;  // dropped earlier in this batch
      Conn& c = *it->second;
      if ((ev & EPOLLERR) != 0) {
        drop_conn(c);
        continue;
      }
      if ((ev & (EPOLLIN | EPOLLHUP)) != 0) handle_readable(c);
      // handle_readable may have dropped or retired the connection.
      auto again = conns_.find(fd);
      if (again == conns_.end() || again->second->fd < 0) continue;
      if ((ev & EPOLLOUT) != 0) refresh_after_io(*again->second);
    }
    if (wake) process_wakeups();
    sweep_timers();
    reap_zombies();
    for (const int fd : pending_close_) ::close(fd);
    pending_close_.clear();
    // Without a listener nothing new can arrive: the adopted connection's
    // close ends the run.
    if (listen_fd_ < 0 && conns_.empty()) begin_drain();
  }

  {
    const std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& w : workers) w.join();
}

}  // namespace ftbfs
