// Generic f-failure FT-BFS structure via last edges of all replacement paths
// (Observation 1.6 of the paper): for graphs of f-FT-diameter D_f the result
// has O(D_f^f · n) edges.
//
// For each target v the relevant fault sets form *chains*: starting from the
// fault-free path, each additional fault is chosen on the replacement path of
// the previous fault set (a fault set that misses the current path does not
// change the replacement path, so only chains matter). The structure keeps the
// last edge of the W-unique replacement path of every chain of length <= f.
// One enumerator serves both fault models: a fault set blocks edges or
// vertices on a PathSelector's mask (core/selector.h), whose w_path gives the
// replacement path, and the next fault is one of that path's edges or one of
// its interior vertices. Fault sets reached through different chain orders
// are visited once.
//
// For f = 1 this coincides with the last-edge single-failure structure except
// for the divergence-point preference; for f = 2 it is an ablation baseline
// for Cons2FTBFS (same guarantees, no selection rules); for f >= 3 it is the
// only exact construction in this library (the paper leaves tight f >= 3
// bounds open).
#pragma once

#include <cstdint>

#include "core/ftbfs_common.h"
#include "graph/graph.h"

namespace ftbfs {

struct KFailOptions {
  std::uint64_t weight_seed = 1;
  // Safety valve: chains per target vertex grow like depth^f; construction
  // aborts the affected vertex's enumeration (and reports it) past this many
  // chains. Default is high enough for all library workloads.
  std::uint64_t max_chains_per_vertex = 1u << 22;
};

struct KFailStats {
  std::uint64_t chains_enumerated = 0;
  std::uint64_t chain_cap_hits = 0;  // vertices whose enumeration was truncated
};

struct KFailResult {
  FtStructure structure;
  KFailStats kstats;
};

// Builds an f-failure FT-BFS structure rooted at s (f >= 0; f = 0 gives the
// BFS tree itself).
[[nodiscard]] KFailResult build_kfail_ftbfs(const Graph& g, Vertex s,
                                            unsigned f,
                                            const KFailOptions& opt = {});

// Vertex-failure variant (the FT-MBFS definition of [10] also covers vertex
// faults; the dual-failure paper treats edges, so this is the library's
// extension along that axis): H preserves dist(s, v, G∖F) for every vertex
// fault set F ⊆ V∖{s,v}, |F| <= f. Chains pick interior vertices of the
// current replacement path.
[[nodiscard]] KFailResult build_kfail_ftbfs_vertex(const Graph& g, Vertex s,
                                                   unsigned f,
                                                   const KFailOptions& opt = {});

}  // namespace ftbfs
