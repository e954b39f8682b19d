// Concurrency plumbing for the serving layer: a bounded FIFO work queue, a
// ticket lock that orders the service's admission sections, and a resequencer
// that restores request order on the output side.
//
// Together they form an ordered threaded pipeline:
//
//   reader ──► BoundedQueue ──► workers (serve concurrently) ──► Resequencer
//                (FIFO)           │ admission ordered by            (emits in
//                                 │ RequestSequencer tickets         request
//                                 ▼                                  order)
//                            OracleService
//
// The FIFO pop order is load-bearing, not a convenience: because workers pop
// the oldest queued item first, the smallest in-flight ticket is always held
// by some worker, so the worker whose admission turn it is can always run and
// the ticket lock cannot deadlock against the queue's backpressure. The
// resequencer bounds its reorder buffer explicitly: when one slow
// head-of-line request holds up the flush while cheap successors keep
// completing, emitters of later sequence numbers block at the cap — which
// stops those workers popping, fills the queue, and parks the reader — so
// memory stays bounded end to end instead of buffering the whole backlog.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace ftbfs {

// Bounded multi-producer/multi-consumer FIFO. push() blocks while the queue
// is full, pop() blocks while it is empty; close() wakes everyone, after
// which push() is refused and pop() drains the remaining items before
// returning nullopt.
template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity) : capacity_(capacity) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  // False iff the queue was closed before the item could be enqueued.
  bool push(T item) {
    std::unique_lock lock(mutex_);
    if (!closed_ && items_.size() >= capacity_) {
      ++not_full_waiters_;
      not_full_.wait(lock,
                     [&] { return closed_ || items_.size() < capacity_; });
      --not_full_waiters_;
    }
    if (closed_) return false;
    items_.push_back(std::move(item));
    // Targeted wakeup, and only when someone is actually parked: the
    // uncontended steady state pays no notify syscall at all.
    if (not_empty_waiters_ > 0) not_empty_.notify_one();
    return true;
  }

  // Oldest item, or nullopt once the queue is closed and drained.
  std::optional<T> pop() {
    std::unique_lock lock(mutex_);
    wait_not_empty(lock);
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    if (not_full_waiters_ > 0) not_full_.notify_one();
    return item;
  }

  // Drains up to `max` oldest items under ONE lock acquisition into `out`
  // (cleared first); blocks like pop() while the queue is empty. Returns the
  // number taken — 0 only once the queue is closed and drained. Because the
  // queue is FIFO, a batch is always a dense run of consecutively pushed
  // items, so a batch of ticketed items holds consecutive tickets.
  std::size_t pop_batch(std::vector<T>& out, std::size_t max) {
    out.clear();
    std::unique_lock lock(mutex_);
    wait_not_empty(lock);
    const std::size_t take = std::min(max, items_.size());
    for (std::size_t i = 0; i < take; ++i) {
      out.push_back(std::move(items_.front()));
      items_.pop_front();
    }
    if (not_full_waiters_ > 0) {
      // A batch frees `take` slots; one producer per slot may proceed.
      if (take > 1) {
        not_full_.notify_all();
      } else if (take == 1) {
        not_full_.notify_one();
      }
    }
    return take;
  }

  void close() {
    {
      const std::lock_guard lock(mutex_);
      closed_ = true;
    }
    not_full_.notify_all();
    not_empty_.notify_all();
  }

 private:
  void wait_not_empty(std::unique_lock<std::mutex>& lock) {
    if (!closed_ && items_.empty()) {
      ++not_empty_waiters_;
      not_empty_.wait(lock, [&] { return closed_ || !items_.empty(); });
      --not_empty_waiters_;
    }
  }

  std::mutex mutex_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<T> items_;
  std::size_t capacity_;
  std::size_t not_full_waiters_ = 0;
  std::size_t not_empty_waiters_ = 0;
  bool closed_ = false;
};

// Ticket lock over a dense ticket sequence 0, 1, 2, …: wait_for(t) blocks
// until every ticket below t has advanced. A caller that runs
// OracleService::admit() (routing, lazy-build trigger, cache probe) inside
// its turn admits in strict request order, which is what makes threaded
// serving byte-identical to sequential serving. Every ticket MUST eventually
// advance exactly once — including the ticket of a request that never
// reaches the service (e.g. because it failed to parse).
class RequestSequencer {
 public:
  void wait_for(std::uint64_t ticket) {
    std::unique_lock lock(mutex_);
    cv_.wait(lock, [&] { return turn_ == ticket; });
  }

  // Releases `n` consecutive tickets in one step: the worker waits for its
  // first ticket, runs all n admission sections back-to-back, then advances
  // past the whole run under one lock handoff (n = 1 is one ticket).
  void advance_n(std::uint64_t n) {
    if (n == 0) return;
    {
      const std::lock_guard lock(mutex_);
      turn_ += n;
    }
    cv_.notify_all();
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::uint64_t turn_ = 0;
};

// Restores sequence order on the output side: workers emit(seq, line) as they
// finish, in any order; lines are handed to the sink in strictly increasing
// seq order with no gaps. Sequence numbers must be dense from 0.
//
// The reorder buffer holds at most `max_pending` lines: an emitter whose turn
// is not next blocks at the cap until the flush catches up. The emitter whose
// seq IS next is never blocked (it unblocks everyone else), so the smallest
// outstanding seq always makes progress and the cap cannot deadlock.
class Resequencer {
 public:
  explicit Resequencer(std::function<void(const std::string&)> sink,
                       std::size_t max_pending = 1024)
      : sink_(std::move(sink)), max_pending_(std::max<std::size_t>(1, max_pending)) {}

  void emit(std::uint64_t seq, std::string line) {
    std::unique_lock lock(mutex_);
    drained_.wait(lock, [&] {
      return seq == next_ || pending_.size() < max_pending_;
    });
    pending_.emplace(seq, std::move(line));
    // Flush the contiguous prefix. Holding the lock across the sink keeps
    // output ordered; the sink is a line write, not a slow consumer.
    bool flushed = false;
    while (!pending_.empty() && pending_.begin()->first == next_) {
      sink_(pending_.begin()->second);
      pending_.erase(pending_.begin());
      ++next_;
      flushed = true;
    }
    if (flushed) {
      lock.unlock();
      drained_.notify_all();
    }
  }

 private:
  std::mutex mutex_;
  std::condition_variable drained_;
  std::function<void(const std::string&)> sink_;
  std::map<std::uint64_t, std::string> pending_;
  std::size_t max_pending_;
  std::uint64_t next_ = 0;
};

}  // namespace ftbfs
