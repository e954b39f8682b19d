// Test-only reference for the layered W-sweep of spath/dijkstra.h.
#pragma once

#include <algorithm>
#include <functional>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "graph/mask.h"
#include "spath/dijkstra.h"
#include "spath/weights.h"

namespace ftbfs {

// The binary-heap Dijkstra over (hops, perturbation) keys that the layered
// sweep replaced: settle vertices in key order, update a tentative key (and
// its parent) only on strict improvement. The sweep must reproduce its output
// bit for bit.
inline SpResult reference_dijkstra(const Graph& g, const WeightAssignment& w,
                                   Vertex source, const GraphMask* mask) {
  SpResult r;
  r.dist.assign(g.num_vertices(), kUnreachable);
  r.parent.assign(g.num_vertices(), kInvalidVertex);
  r.parent_edge.assign(g.num_vertices(), kInvalidEdge);
  if (mask != nullptr && mask->vertex_blocked(source)) return r;
  using Entry = std::pair<DistKey, Vertex>;
  std::vector<Entry> heap;
  auto push = [&](DistKey key, Vertex v) {
    heap.emplace_back(key, v);
    std::push_heap(heap.begin(), heap.end(), std::greater<>{});
  };
  r.dist[source] = DistKey{0, 0};
  push(DistKey{0, 0}, source);
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
    const auto [key, u] = heap.back();
    heap.pop_back();
    if (key != r.dist[u]) continue;  // stale entry
    for (const Arc& arc : g.neighbors(u)) {
      if (mask != nullptr && !mask->edge_usable(arc.id, u, arc.to)) continue;
      const DistKey cand = w.extend(key, arc.id);
      if (cand < r.dist[arc.to]) {
        r.dist[arc.to] = cand;
        r.parent[arc.to] = u;
        r.parent_edge[arc.to] = arc.id;
        push(cand, arc.to);
      }
    }
  }
  return r;
}

}  // namespace ftbfs
