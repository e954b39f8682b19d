#include "core/sensitivity_oracle.h"

#include "graph/mask.h"
#include "spath/dijkstra.h"

namespace ftbfs {

SingleFaultOracle::SingleFaultOracle(const Graph& g, Vertex s,
                                     std::uint64_t weight_seed)
    : g_(&g),
      source_(s),
      sssp_([&] {
        const WeightAssignment w(g, weight_seed);
        Dijkstra dij(g, w);
        return dij.run(s);
      }()),
      tree_index_(g, sssp_, s) {
  // Row layout: depth(v) entries per reached vertex.
  row_offset_.assign(g.num_vertices() + 1, 0);
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    const std::uint64_t len =
        (v != s && tree_index_.reached(v)) ? tree_index_.depth(v) : 0;
    row_offset_[v + 1] = row_offset_[v] + len;
  }
  table_.assign(row_offset_.back(), kInfHops);

  // One masked BFS per tree edge; scatter distances into the rows of the
  // subtree below the failed edge (only those rows mention this edge).
  Bfs bfs(g);
  GraphMask mask(g);
  for (const Vertex child : tree_index_.preorder()) {
    if (child == s) continue;
    const EdgeId e = tree_index_.parent_edge(child);
    mask.clear();
    mask.block_edge(e);
    const BfsResult& r = bfs.run(s, &mask);
    const std::uint32_t slot = tree_index_.depth(child) - 1;
    for (const Vertex v : tree_index_.subtree_span(child)) {
      table_[row_offset_[v] + slot] = r.hops[v];
    }
  }
}

std::uint32_t SingleFaultOracle::distance(Vertex v) const {
  FTBFS_EXPECTS(v < g_->num_vertices());
  return sssp_.reached(v) ? sssp_.hops(v) : kInfHops;
}

std::uint32_t SingleFaultOracle::distance_avoiding(Vertex v, EdgeId e) const {
  FTBFS_EXPECTS(v < g_->num_vertices());
  FTBFS_EXPECTS(e < g_->num_edges());
  if (v == source_) return 0;
  if (!tree_index_.reached(v)) return kInfHops;  // removal cannot help
  // Identify whether e is the parent edge of its deeper endpoint; only then
  // can it lie on any tree path.
  const Edge& ed = g_->edge(e);
  Vertex child = kInvalidVertex;
  if (tree_index_.parent_edge(ed.u) == e) {
    child = ed.u;
  } else if (tree_index_.parent_edge(ed.v) == e) {
    child = ed.v;
  } else {
    return sssp_.hops(v);  // non-tree edge: π(s,v) is untouched
  }
  if (!tree_index_.edge_on_path_to(child, v)) return sssp_.hops(v);
  return table_[row_offset_[v] + tree_index_.depth(child) - 1];
}

}  // namespace ftbfs
