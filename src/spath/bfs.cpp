#include "spath/bfs.h"

#include <algorithm>

namespace ftbfs {

const BfsResult& Bfs::run(Vertex source, const GraphMask* mask) {
  return run_until(source, {}, mask);
}

const BfsResult& Bfs::run_until(Vertex source, std::span<const Vertex> targets,
                                const GraphMask* mask) {
  const Graph& g = *graph_;
  FTBFS_EXPECTS(source < g.num_vertices());
  std::fill(result_.hops.begin(), result_.hops.end(), kInfHops);
  std::fill(result_.parent.begin(), result_.parent.end(), kInvalidVertex);
  std::fill(result_.parent_edge.begin(), result_.parent_edge.end(),
            kInvalidEdge);
  queue_.clear();

  // Stamp the targets; `remaining` counts distinct unsettled ones. The search
  // stops as soon as it hits zero.
  std::size_t remaining = 0;
  if (!targets.empty()) {
    if (target_epoch_.empty()) target_epoch_.resize(g.num_vertices(), 0);
    ++epoch_;
    for (const Vertex t : targets) {
      FTBFS_EXPECTS(t < g.num_vertices());
      if (target_epoch_[t] != epoch_) {
        target_epoch_[t] = epoch_;
        ++remaining;
      }
    }
  }
  const bool early_exit = !targets.empty();

  if (mask != nullptr && mask->vertex_blocked(source)) return result_;
  result_.hops[source] = 0;
  queue_.push_back(source);
  if (early_exit && target_epoch_[source] == epoch_ && --remaining == 0) {
    return result_;
  }
  // Every vertex popped from the queue is unblocked (its discovery checked
  // it), so each arc needs only the edge-block and head-vertex tests.
  for (std::size_t head = 0; head < queue_.size(); ++head) {
    const Vertex v = queue_[head];
    const std::uint32_t dv = result_.hops[v];
    for (const Arc& arc : g.neighbors(v)) {
      if (result_.hops[arc.to] != kInfHops) continue;
      if (mask != nullptr && mask->arc_blocked(arc.id, arc.to)) continue;
      result_.hops[arc.to] = dv + 1;
      result_.parent[arc.to] = v;
      result_.parent_edge[arc.to] = arc.id;
      if (early_exit && target_epoch_[arc.to] == epoch_ && --remaining == 0) {
        return result_;
      }
      queue_.push_back(arc.to);
    }
  }
  return result_;
}

std::uint32_t bfs_distance(const Graph& g, Vertex s, Vertex t,
                           const GraphMask* mask) {
  Bfs bfs(g);
  return bfs.run(s, mask).hops[t];
}

std::uint32_t bfs_eccentricity(const Graph& g, Vertex source) {
  Bfs bfs(g);
  const BfsResult& r = bfs.run(source);
  std::uint32_t ecc = 0;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    if (r.hops[v] == kInfHops) return kInfHops;
    ecc = std::max(ecc, r.hops[v]);
  }
  return ecc;
}

}  // namespace ftbfs
