// Algorithm Cons2FTBFS (§3 of the paper): constructs a dual-failure FT-BFS
// structure H ⊆ G rooted at s with O(n^{5/3}) edges (Theorem 1.1).
//
// For every target v the algorithm selects one replacement path P_{s,v,F} per
// relevant fault set F and keeps only its last edge:
//   step (1): F = {e_i}, e_i ∈ π(s,v)          — earliest π-divergence,
//             selected per tree edge for all targets below it at once;
//   step (2): F = {e_i, e_j} ⊆ π(s,v)          — prefer composing the two
//             detours D_i, D_j when they intersect;
//   step (3): F = {e_i, t_j}, t_j ∈ D_i        — processed in decreasing
//             (e, t) order; a pair is *satisfied* if G_{τ−1}(v) (v's incident
//             edges restricted to those already kept) still contains an
//             optimal path, otherwise the new-ending path with the earliest
//             π-divergence (and, when it diverges at x_τ, the earliest
//             D-divergence) contributes one new edge at v.
// H is the union of the BFS tree T0(s) and all kept last edges.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

#include "core/ftbfs_common.h"
#include "graph/graph.h"
#include "spath/path.h"

namespace ftbfs {

struct NewEndingRecord;

struct Cons2Options {
  std::uint64_t weight_seed = 1;  // seed of the tie-breaking assignment W
  // When true, new-ending paths are recorded per target vertex and classified
  // into the paper's five classes (Fig. 7); counts land in stats.classes.
  bool classify_paths = true;
  // Optional instrumentation sink: called once per covered target vertex with
  // π(s,v) and the new-ending records of that vertex (valid only during the
  // call). Requires classify_paths. Used by the property tests and the
  // structural experiments; has no effect on the constructed structure.
  // Invoked in ascending target order at jobs 1; at higher job counts in
  // commit order, one call at a time (no caller uses it there).
  std::function<void(Vertex v, const Path& pi,
                     const std::vector<NewEndingRecord>& records)>
      record_sink;
  // Worker threads; 0 = auto (hardware), 1 = sequential. Step (1) runs
  // first, one tree edge at a time for every target below it, and keeps
  // each edge's batch (selections never read H). Steps (2) and (3) then run per target, each
  // once every lower-numbered target joined to it by a non-tree edge has
  // committed — the only targets whose work it can observe — so the
  // structure and every stats field are byte-identical at any value
  // (build_parallel.h).
  unsigned jobs = 1;
  // Optional: grows by fault pairs as their work finishes — step (1)'s per
  // tree edge, steps (2) and (3)'s per target at commit — so its final value
  // is stats.fault_pairs_considered. Lets long builds report throughput (the
  // bench_e13 n=10^5 jobs sweep samples it from a forked child).
  std::atomic<std::uint64_t>* progress = nullptr;
};

// Builds a dual-failure FT-BFS structure rooted at s. Vertices unreachable
// from s are not covered (they have no distance to preserve).
// Postcondition (Lemma 3.2, checked by the test suite's verifier):
//   dist(s, v, H∖F) = dist(s, v, G∖F) for all v and all |F| <= 2.
[[nodiscard]] FtStructure build_cons2ftbfs(const Graph& g, Vertex s,
                                           const Cons2Options& opt = {});

}  // namespace ftbfs
