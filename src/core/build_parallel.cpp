#include "core/build_parallel.h"

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "util/assert.h"

namespace ftbfs {

std::size_t speculative_block_size(unsigned workers) {
  // Large enough to amortize the per-block crew spawn and keep every worker
  // fed, small enough to keep the conflict tax (~ additions * block / m) and
  // the in-flight outcome memory bounded.
  return std::min<std::size_t>(
      1024, std::max<std::size_t>(64, std::size_t{workers} * 32));
}

void run_claimed(
    std::size_t count, unsigned workers,
    const std::function<void(unsigned worker, std::size_t idx)>& work) {
  if (workers <= 1) {
    for (std::size_t idx = 0; idx < count; ++idx) work(0, idx);
    return;
  }
  std::atomic<std::size_t> cursor{0};
  auto claim = [&](unsigned worker) {
    for (;;) {
      const std::size_t idx = cursor.fetch_add(1, std::memory_order_relaxed);
      if (idx >= count) break;
      work(worker, idx);
    }
  };
  std::vector<std::thread> crew;
  crew.reserve(workers - 1);
  for (unsigned t = 1; t < workers; ++t) crew.emplace_back(claim, t);
  claim(0);
  for (std::thread& th : crew) th.join();
}

void run_speculate_commit(
    std::size_t count, unsigned workers,
    const std::function<void()>& on_block_start,
    const std::function<void(unsigned worker, std::size_t idx,
                             std::size_t slot)>& speculate,
    const std::function<void(std::size_t idx, std::size_t slot)>& commit,
    ParallelBuildReport* report) {
  FTBFS_EXPECTS(workers >= 2);
  const std::size_t block = speculative_block_size(workers);
  for (std::size_t b0 = 0; b0 < count; b0 += block) {
    const std::size_t b1 = std::min(count, b0 + block);
    on_block_start();
    run_claimed(b1 - b0, workers, [&](unsigned worker, std::size_t slot) {
      speculate(worker, b0 + slot, slot);
    });
    for (std::size_t idx = b0; idx < b1; ++idx) commit(idx, idx - b0);
    if (report != nullptr) {
      ++report->blocks;
      report->speculated += b1 - b0;
    }
  }
  if (report != nullptr) report->workers = workers;
}

}  // namespace ftbfs
