// Deterministic parallel executors for construction: run_claimed hands out
// independent work items (the tree edges of the batched single-fault phase,
// core/selector.h), and run_in_dependency_order runs the per-target steps (2)
// and (3) of Cons2FTBFS.
//
// The per-target work of Cons2FTBFS is almost independent: the only
// cross-target coupling is through the shared kept-edge set H, and target v
// reads or writes only edges *incident to v* (the last edges of replacement
// paths ending at v, and v's kept edges E_τ(v)). An edge (u, v) of H outside
// the tree T0 is written only by u's run or v's run, so v can observe another
// target's work only through a non-tree edge to a lower-numbered target u.
// Running v once every such u has committed, and before any such higher
// neighbour starts, gives v exactly the H-view of the sequential target loop:
// the output is bit-identical at any worker count (the determinism invariant
// the property tests enforce).
// docs/perf.md § "Parallel construction" has the argument and measurements.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace ftbfs {

// Runs work(worker, idx) once for every idx < count on `workers` threads, the
// caller's among them (worker 0), claiming indices in ascending order from an
// atomic cursor. workers <= 1 is a plain loop on the caller's thread.
void run_claimed(
    std::size_t count, unsigned workers,
    const std::function<void(unsigned worker, std::size_t idx)>& work);

// Called by a commit once per (predecessor, successor) relation it ends.
using ReleaseFn = std::function<void(std::size_t successor)>;

// Runs every idx < pending.size() once on `workers` threads, the caller's
// among them (worker 0). Index idx is ready once pending[idx] predecessors
// have committed, and every predecessor of idx must be lower than idx. A
// worker takes the lowest ready index, runs run(worker, idx) outside any
// lock, then commit(worker, idx, release) under the one commit mutex; the
// commit calls release(j) once for each successor j of idx. With one worker
// the indices run in ascending order.
void run_in_dependency_order(
    std::vector<std::uint32_t> pending, unsigned workers,
    const std::function<void(unsigned worker, std::size_t idx)>& run,
    const std::function<void(unsigned worker, std::size_t idx,
                             const ReleaseFn& release)>& commit);

}  // namespace ftbfs
