// Single-failure FT-BFS structure of Parter & Peleg (ESA'13) — reference [10]
// of the paper and the baseline the dual-failure result is measured against.
//
// Construction: the BFS tree T0(s) plus, for every vertex v and every edge e_i
// on π(s,v), the last edge of the replacement path P_{s,v,{e_i}} chosen with
// the earliest possible divergence point from π(s,v) (the same preference rule
// step (1) of Cons2FTBFS uses), selected one tree edge at a time for every v
// below it. Size: O(n^{3/2}), tight in the worst case.
#pragma once

#include <atomic>
#include <cstdint>

#include "core/ftbfs_common.h"
#include "graph/graph.h"

namespace ftbfs {

struct SingleFtbfsOptions {
  std::uint64_t weight_seed = 1;  // seed for the tie-breaking assignment W
  // Worker threads; 0 = auto (hardware), 1 = sequential. Workers take the
  // tree edges one at a time (select_single_faults_below), and the result
  // is byte-identical at any value: candidate last edges never depend on H,
  // and each one is credited to the target the sequential loop would have
  // added it at.
  unsigned jobs = 1;
  // Optional: grows by the fault pairs (v, e) of each tree edge e as its
  // batch finishes; its final value is stats.fault_pairs_considered. Lets
  // long builds report throughput (the bench_e13 n=10^5 jobs sweep samples
  // it from a forked child).
  std::atomic<std::uint64_t>* progress = nullptr;
};

// Builds a single-edge-failure FT-BFS structure rooted at s.
// Requires s < g.num_vertices(). Unreachable vertices are simply not covered
// (they have no BFS path to preserve).
[[nodiscard]] FtStructure build_single_ftbfs(const Graph& g, Vertex s,
                                             const SingleFtbfsOptions& opt = {});

}  // namespace ftbfs
