// Tie-broken single-source shortest paths under the weight assignment W.
//
// Every edge weighs 1 + ε·r_e, so the shortest paths under W are exactly the
// BFS layers, and within a layer the W-unique representative is the one with
// the smallest perturbation sum. The engine is therefore a layered sweep, not
// a priority queue: layer L is relaxed into layer L+1, keeping the smallest
// lexicographic (hops, perturbation) key per vertex. The result is exactly
// SP(s, ·, G', W) of the paper for any masked subgraph G'.
#pragma once

#include <vector>

#include "graph/graph.h"
#include "graph/mask.h"
#include "spath/weights.h"

namespace ftbfs {

struct SpResult {
  std::vector<DistKey> dist;        // kUnreachable if not reached
  std::vector<Vertex> parent;       // kInvalidVertex for source/unreached
  std::vector<EdgeId> parent_edge;  // kInvalidEdge likewise

  [[nodiscard]] bool reached(Vertex v) const {
    return dist[v] != kUnreachable;
  }
  [[nodiscard]] std::uint32_t hops(Vertex v) const { return dist[v].hops; }
};

// Reusable engine; all buffers persist between runs.
class Dijkstra {
 public:
  Dijkstra(const Graph& g, const WeightAssignment& w);

  // Full SSSP from `source` under `mask` (may be null). A vertex's parent is
  // the predecessor on the previous layer giving the strictly smallest key; on
  // an exact key tie, the predecessor with the smaller key wins. If `target`
  // is a valid vertex, the sweep stops before expanding the target's own
  // layer: entries on layers up to the target's are exact (the target and all
  // its ancestors included), deeper entries are missing — callers wanting
  // full SSSP pass kInvalidVertex.
  const SpResult& run(Vertex source, const GraphMask* mask = nullptr,
                      Vertex target = kInvalidVertex);

  [[nodiscard]] const SpResult& result() const { return result_; }
  [[nodiscard]] const Graph& graph() const { return *graph_; }
  [[nodiscard]] const WeightAssignment& weights() const { return *weights_; }

 private:
  const Graph* graph_;
  const WeightAssignment* weights_;
  SpResult result_;
  std::vector<Vertex> layer_;  // the layer being expanded, reused across runs
  std::vector<Vertex> next_;   // the layer being discovered
};

// Extracts the s→t vertex path from an SSSP result (s implied by the run).
// Returns empty vector if t was not reached.
[[nodiscard]] std::vector<Vertex> extract_path(const SpResult& r, Vertex t);

}  // namespace ftbfs
