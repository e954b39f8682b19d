#include "core/build_parallel.h"

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <queue>
#include <thread>

#include "util/assert.h"

namespace ftbfs {
namespace {

// Runs body(worker) on `workers` threads, the caller's as worker 0.
void run_crew(unsigned workers, const std::function<void(unsigned)>& body) {
  std::vector<std::thread> crew;
  crew.reserve(workers > 0 ? workers - 1 : 0);
  for (unsigned t = 1; t < workers; ++t) crew.emplace_back(body, t);
  body(0);
  for (std::thread& th : crew) th.join();
}

}  // namespace

void run_claimed(
    std::size_t count, unsigned workers,
    const std::function<void(unsigned worker, std::size_t idx)>& work) {
  if (workers <= 1) {
    for (std::size_t idx = 0; idx < count; ++idx) work(0, idx);
    return;
  }
  std::atomic<std::size_t> cursor{0};
  run_crew(workers, [&](unsigned worker) {
    for (;;) {
      const std::size_t idx = cursor.fetch_add(1, std::memory_order_relaxed);
      if (idx >= count) break;
      work(worker, idx);
    }
  });
}

void run_in_dependency_order(
    std::vector<std::uint32_t> pending, unsigned workers,
    const std::function<void(unsigned worker, std::size_t idx)>& run,
    const std::function<void(unsigned worker, std::size_t idx,
                             const ReleaseFn& release)>& commit) {
  const std::size_t count = pending.size();
  std::mutex mu;
  std::condition_variable cv;
  std::priority_queue<std::size_t, std::vector<std::size_t>, std::greater<>>
      ready;  // guarded by mu, as are pending, running and committed
  std::size_t running = 0;
  std::size_t committed = 0;
  for (std::size_t idx = 0; idx < count; ++idx) {
    if (pending[idx] == 0) ready.push(idx);
  }
  const ReleaseFn release = [&](std::size_t j) {
    FTBFS_ENSURES(j < count && pending[j] > 0);
    if (--pending[j] == 0) {
      ready.push(j);
      cv.notify_one();
    }
  };
  run_crew(workers, [&](unsigned worker) {
    std::unique_lock lock(mu);
    for (;;) {
      cv.wait(lock, [&] { return !ready.empty() || running == 0; });
      if (ready.empty()) {
        // Nothing runs, so nothing can become ready: every index must have
        // committed, or some pending count was never released.
        FTBFS_ENSURES(committed == count);
        break;
      }
      const std::size_t idx = ready.top();
      ready.pop();
      ++running;
      lock.unlock();
      run(worker, idx);
      lock.lock();
      commit(worker, idx, release);
      ++committed;
      if (--running == 0) cv.notify_all();
    }
  });
}

}  // namespace ftbfs
