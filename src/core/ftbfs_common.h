// Shared result types for the fault-tolerant structure constructions.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace ftbfs {

// Which kind of component a fault set removes. The paper's constructions are
// stated for edge faults; the kfail chain construction also supports the
// vertex-fault FT-MBFS definition of [10].
enum class FaultModel { kEdge, kVertex };

[[nodiscard]] constexpr const char* to_string(FaultModel m) {
  return m == FaultModel::kEdge ? "edge" : "vertex";
}

// Per-class counts of the new-ending replacement paths, following the paper's
// classification (Fig. 7):
//   A  — (π,π) paths (two faults on π(s,v)),
//   B  — (π,D) paths that do not intersect their detour (P_nodet),
//   C  — independent (π,D) paths (P_indep),
//   D  — π-interfering paths (I_π),
//   E  — D-interfering paths (I_D).
// `single` counts new last edges from single-fault replacement paths (E1(π)).
struct PathClassCounts {
  std::uint64_t single = 0;
  std::uint64_t a_pi_pi = 0;
  std::uint64_t b_nodet = 0;
  std::uint64_t c_indep = 0;
  std::uint64_t d_pi_interf = 0;
  std::uint64_t e_d_interf = 0;

  [[nodiscard]] std::uint64_t total() const {
    return single + a_pi_pi + b_nodet + c_indep + d_pi_interf + e_d_interf;
  }
};

// How the construction kernels (core/selector.h) answered their calls: hop
// probes and W-sweeps, each either read off the fault-free baseline (target
// outside the cut region, or cut off outright), searched backward from the
// target through the cut region, repaired over the cut region, or searched
// from the source with an early exit. A backward pass that gives up is
// counted in backward_abandoned and again by the route that then answered;
// backward_vertices counts the cut vertices every backward pass expanded.
struct KernelCounts {
  std::uint64_t probe_baseline = 0;
  std::uint64_t probe_backward = 0;
  std::uint64_t probe_repair = 0;
  std::uint64_t probe_search = 0;
  std::uint64_t sweep_baseline = 0;
  std::uint64_t sweep_backward = 0;
  std::uint64_t sweep_repair = 0;
  std::uint64_t sweep_search = 0;
  std::uint64_t backward_abandoned = 0;
  std::uint64_t backward_vertices = 0;

  [[nodiscard]] std::uint64_t sweeps() const {
    return sweep_baseline + sweep_backward + sweep_repair + sweep_search;
  }

  KernelCounts& operator+=(const KernelCounts& o) {
    probe_baseline += o.probe_baseline;
    probe_backward += o.probe_backward;
    probe_repair += o.probe_repair;
    probe_search += o.probe_search;
    sweep_baseline += o.sweep_baseline;
    sweep_backward += o.sweep_backward;
    sweep_repair += o.sweep_repair;
    sweep_search += o.sweep_search;
    backward_abandoned += o.backward_abandoned;
    backward_vertices += o.backward_vertices;
    return *this;
  }
  [[nodiscard]] KernelCounts operator-(const KernelCounts& o) const {
    KernelCounts d;
    d.probe_baseline = probe_baseline - o.probe_baseline;
    d.probe_backward = probe_backward - o.probe_backward;
    d.probe_repair = probe_repair - o.probe_repair;
    d.probe_search = probe_search - o.probe_search;
    d.sweep_baseline = sweep_baseline - o.sweep_baseline;
    d.sweep_backward = sweep_backward - o.sweep_backward;
    d.sweep_repair = sweep_repair - o.sweep_repair;
    d.sweep_search = sweep_search - o.sweep_search;
    d.backward_abandoned = backward_abandoned - o.backward_abandoned;
    d.backward_vertices = backward_vertices - o.backward_vertices;
    return d;
  }
  friend bool operator==(const KernelCounts&, const KernelCounts&) = default;
};

struct FtBfsStats {
  std::uint64_t tree_edges = 0;        // |E(T0)|
  std::uint64_t new_edges = 0;         // |E(H)| - |E(T0)|
  std::uint64_t max_new_per_vertex = 0;  // max_v |New(v)|
  std::uint64_t fault_pairs_considered = 0;
  std::uint64_t dijkstra_runs = 0;
  std::uint64_t divergence_fallbacks = 0;  // defensive-path fallbacks (expect 0)
  // Cons2FTBFS: bytes of the step-(1) selections it keeps for steps 2–3 —
  // 24 per (v, e) with e on π(s,v) and not a bridge, plus 4 per detour
  // vertex — O(Σ_v depth(v) + Σ|D|), which is at most a constant times
  // fault_pairs_considered. Below a bridge nothing is kept.
  std::uint64_t selection_table_bytes = 0;
  KernelCounts kernels;  // how the selection kernels answered (no tree SSSP)
  // Parallel builds: the crew size actually used, after clamping (for a
  // multi-source union, the largest crew of any source). Not a result: it
  // follows the job count.
  unsigned build_workers = 1;
  // Cons2FTBFS: wall seconds of step (1)'s batches and of steps (2)–(3).
  // Timings, not results: unlike every other field they vary run to run.
  double step1_seconds = 0.0;
  double steps23_seconds = 0.0;
  PathClassCounts classes;             // filled when instrumentation is on
  // Per-vertex maxima of each class (the quantities the per-class O(√n) and
  // O(n^{2/3}) lemmas bound); filled when instrumentation is on.
  PathClassCounts max_classes_per_vertex;
};

// A fault-tolerant BFS structure: a set of edge ids of the host graph.
struct FtStructure {
  std::vector<EdgeId> edges;  // sorted, unique
  FtBfsStats stats;

  [[nodiscard]] std::uint64_t size() const { return edges.size(); }
};

// Materializes the structure as a standalone Graph (same vertex set).
[[nodiscard]] inline Graph materialize(const Graph& g, const FtStructure& h) {
  return subgraph_from_edges(g, h.edges);
}

}  // namespace ftbfs
