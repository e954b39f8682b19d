// Deterministic parallel executors for construction: run_claimed hands out
// independent work items (the tree edges of the batched single-fault phase,
// core/selector.h), and the speculate-and-commit schedule below runs the
// per-target steps (2) and (3) of Cons2FTBFS.
//
// The per-target work of the FT-BFS constructions is almost independent: the
// only cross-target coupling is through the shared kept-edge set H, and every
// read or write a target v performs on H touches only edges *incident to v*
// (the candidate last edges of replacement paths ending at v, and v's kept
// edges E_τ(v)). That locality makes the following schedule
// produce output bit-identical to the sequential target loop at any worker
// count (the determinism invariant the property tests enforce):
//
//   for each block of targets, in order:
//     1. speculate — workers run the per-target body in parallel against the
//        committed state frozen at block start (thread-local scratch, no
//        writes to shared state; work is claimed from an atomic cursor since
//        per-target cost varies by orders of magnitude);
//     2. commit — the main thread replays the recorded outcomes strictly in
//        target order. A target is *conflicted* iff an earlier commit in the
//        same block added an edge incident to it; conflicted targets discard
//        the speculative outcome and re-run against the true state, which is
//        exactly the sequential semantics. Non-conflicted speculative runs
//        saw a state identical (on every edge they can observe) to the
//        sequential state, so their outcomes are already exact.
//
// Conflicts are rare — additions per block are few and each hits a later
// in-block target with probability ~ block/m — so the re-run tax is a few
// percent while the expensive speculation scales with cores. Blocks are a
// barrier: speculation never overlaps a commit, so the committed state needs
// no synchronization at all. docs/perf.md § "Parallel construction" has the
// full argument and measured speedups.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>

namespace ftbfs {

// Filled by the parallel constructions; surfaced as registry counters so the
// CLI and benches can report the schedule (workers, conflict tax).
struct ParallelBuildReport {
  unsigned workers = 1;          // effective worker count after clamping
  std::uint64_t blocks = 0;      // speculation blocks executed
  std::uint64_t speculated = 0;  // targets run in a speculation phase
  std::uint64_t conflicts = 0;   // speculative outcomes discarded and re-run
};

// Runs work(worker, idx) once for every idx < count on `workers` threads, the
// caller's among them (worker 0), claiming indices in ascending order from an
// atomic cursor. workers <= 1 is a plain loop on the caller's thread.
void run_claimed(
    std::size_t count, unsigned workers,
    const std::function<void(unsigned worker, std::size_t idx)>& work);

// Targets speculated per block before the ordered commit barrier. Callers
// size their outcome slot arrays with this; `slot` arguments below are always
// < speculative_block_size(workers).
[[nodiscard]] std::size_t speculative_block_size(unsigned workers);

// Runs the schedule above over `count` targets with `workers` >= 2 threads
// (callers keep the plain sequential loop for workers <= 1).
//   on_block_start()            — before each block's speculation phase (the
//                                 constructions bump their conflict epoch);
//   speculate(worker, idx, slot) — thread `worker` runs target `idx` against
//                                 the frozen state, recording into `slot`;
//   commit(idx, slot)           — main thread, ascending idx; detects
//                                 conflicts, re-runs if needed, applies.
// Fills report->{workers, blocks, speculated}; the caller owns `conflicts`.
void run_speculate_commit(
    std::size_t count, unsigned workers,
    const std::function<void()>& on_block_start,
    const std::function<void(unsigned worker, std::size_t idx,
                             std::size_t slot)>& speculate,
    const std::function<void(std::size_t idx, std::size_t slot)>& commit,
    ParallelBuildReport* report);

}  // namespace ftbfs
