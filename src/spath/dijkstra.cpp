#include "spath/dijkstra.h"

#include <algorithm>

namespace ftbfs {

Dijkstra::Dijkstra(const Graph& g, const WeightAssignment& w)
    : graph_(&g), weights_(&w) {
  result_.dist.resize(g.num_vertices());
  result_.parent.resize(g.num_vertices());
  result_.parent_edge.resize(g.num_vertices());
}

const SpResult& Dijkstra::run(Vertex source, const GraphMask* mask,
                              Vertex target) {
  const Graph& g = *graph_;
  FTBFS_EXPECTS(source < g.num_vertices());
  FTBFS_EXPECTS(target == kInvalidVertex || target < g.num_vertices());
  std::fill(result_.dist.begin(), result_.dist.end(), kUnreachable);
  std::fill(result_.parent.begin(), result_.parent.end(), kInvalidVertex);
  std::fill(result_.parent_edge.begin(), result_.parent_edge.end(),
            kInvalidEdge);
  layer_.clear();

  if (mask != nullptr && mask->vertex_blocked(source)) return result_;

  // As in Bfs::run_until: every vertex on a layer is unblocked, so each arc
  // needs only the edge-block and head-vertex tests.
  result_.dist[source] = DistKey{0, 0};
  layer_.push_back(source);
  for (std::uint32_t hops = 0; !layer_.empty(); ++hops) {
    // Every key on this layer is final once the previous layer is expanded.
    if (target != kInvalidVertex && result_.dist[target].hops == hops) break;
    // All candidates of the next layer share its hop count, so only their
    // perturbation sums compete.
    const std::uint32_t next_hops = hops + 1;
    next_.clear();
    for (const Vertex u : layer_) {
      const std::uint64_t pu = result_.dist[u].pert;
      for (const Arc& arc : g.neighbors(u)) {
        DistKey& dv = result_.dist[arc.to];
        if (dv.hops <= hops) continue;  // on this layer or an earlier one
        if (mask != nullptr && mask->arc_blocked(arc.id, arc.to)) continue;
        const std::uint64_t cand = pu + weights_->perturbation(arc.id);
        if (dv.hops != next_hops) {
          dv.hops = next_hops;
          next_.push_back(arc.to);
        } else if (cand > dv.pert ||
                   (cand == dv.pert &&
                    pu >= result_.dist[result_.parent[arc.to]].pert)) {
          // Keep the incumbent: a heap pops the smaller predecessor key
          // first and updates only on strict improvement.
          continue;
        }
        dv.pert = cand;
        result_.parent[arc.to] = u;
        result_.parent_edge[arc.to] = arc.id;
      }
    }
    layer_.swap(next_);
  }
  return result_;
}

std::vector<Vertex> extract_path(const SpResult& r, Vertex t) {
  if (!r.reached(t)) return {};
  std::vector<Vertex> path;
  Vertex cur = t;
  path.push_back(cur);
  while (r.parent[cur] != kInvalidVertex) {
    cur = r.parent[cur];
    path.push_back(cur);
  }
  std::reverse(path.begin(), path.end());
  return path;
}

}  // namespace ftbfs
