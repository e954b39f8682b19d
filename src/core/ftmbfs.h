// Multi-source FT-MBFS structures (the σ-source axis of generalization the
// paper develops lower bounds for, §1 and §4): the union of per-source
// structures is an FT-MBFS for the source set, with size at most σ times the
// single-source bound — and Ω(σ^{1/(f+1)} n^{2-1/(f+1)}) in the worst case by
// Theorem 1.2, so the union is within O(σ^{f/(f+1)}) of optimal and much
// closer on benign inputs (shared edges collapse in the union).
#pragma once

#include <atomic>
#include <cstdint>
#include <span>

#include "core/ftbfs_common.h"
#include "graph/graph.h"

namespace ftbfs {

struct FtMbfsOptions {
  std::uint64_t weight_seed = 1;
  // Worker threads forwarded into each per-source build; the outer union loop
  // stays sequential in source order, so the union is byte-identical at any
  // job count (each inner build already is — single_ftbfs.h / cons2ftbfs.h).
  unsigned jobs = 1;
  // Optional: grows by the finished fault pairs of every per-source build
  // (single_ftbfs.h / cons2ftbfs.h semantics).
  std::atomic<std::uint64_t>* progress = nullptr;
};

struct FtMbfsResult {
  FtStructure structure;       // the union
  std::vector<std::uint64_t> per_source_size;  // |H(s_k)| before the union
};

// Dual-failure FT-MBFS: union of Cons2FTBFS structures, one per source.
[[nodiscard]] FtMbfsResult build_cons2ftmbfs(const Graph& g,
                                             std::span<const Vertex> sources,
                                             const FtMbfsOptions& opt = {});

// Single-failure FT-MBFS (the [10] baseline, multi-source form).
[[nodiscard]] FtMbfsResult build_single_ftmbfs(const Graph& g,
                                               std::span<const Vertex> sources,
                                               const FtMbfsOptions& opt = {});

}  // namespace ftbfs
