#include "graph/graph.h"

#include <algorithm>

namespace ftbfs {

EdgeId GraphBuilder::add_edge(Vertex u, Vertex v) {
  FTBFS_EXPECTS(u < num_vertices_ && v < num_vertices_);
  FTBFS_EXPECTS(u != v);  // no self-loops
  if (u > v) std::swap(u, v);
  if (staged_.empty()) staged_.resize(num_vertices_);
  auto& list = staged_[u];
  const auto it = std::lower_bound(list.begin(), list.end(), v);
  FTBFS_EXPECTS(it == list.end() || *it != v);  // no parallel edges
  list.insert(it, v);
  edges_.push_back(Edge{u, v});
  return static_cast<EdgeId>(edges_.size() - 1);
}

bool GraphBuilder::has_edge(Vertex u, Vertex v) const {
  if (u > v) std::swap(u, v);
  if (staged_.empty()) return false;
  const auto& list = staged_[u];
  return std::binary_search(list.begin(), list.end(), v);
}

Graph GraphBuilder::build() && {
  return Graph::from_edges(num_vertices_, std::move(edges_));
}

Graph Graph::from_edges(Vertex num_vertices, std::vector<Edge> edges,
                        EdgeId* first_duplicate) {
  const std::size_t n = num_vertices;
  Graph g;
  g.num_vertices_ = num_vertices;
  // v's list is its lower neighbours, then its higher ones; cursor[v] starts
  // as the number of lower ones.
  g.offsets_.assign(n + 1, 0);
  std::vector<std::uint32_t> cursor(n, 0);
  for (const Edge& e : edges) {
    FTBFS_EXPECTS(e.u < e.v && e.v < num_vertices);
    ++g.offsets_[e.u + 1];
    ++g.offsets_[e.v + 1];
    ++cursor[e.v];
  }
  for (std::size_t v = 0; v < n; ++v) {
    g.offsets_[v + 1] += g.offsets_[v];
    cursor[v] += g.offsets_[v];
  }
  // Bucket each arc by source: u's higher part takes its arcs u → v, in id
  // order, until they are copied out below.
  g.arcs_.resize(2 * edges.size());
  for (EdgeId id = 0; id < edges.size(); ++id) {
    g.arcs_[cursor[edges[id].u]++] = Arc{edges[id].v, id};
  }
  // Scanning sources x in increasing order fills each lower part in
  // neighbour order. When x's turn comes its own lower part is complete, so
  // cursor[x] is where its bucket starts.
  std::copy(g.offsets_.begin(), g.offsets_.end() - 1, cursor.begin());
  EdgeId duplicate = kInvalidEdge;
  for (Vertex x = 0; x < num_vertices; ++x) {
    for (std::uint32_t k = cursor[x]; k < g.offsets_[x + 1]; ++k) {
      const Arc a = g.arcs_[k];
      const std::uint32_t at = cursor[a.to]++;
      // Copies of {x, a.to} arrive here one after another, in id order.
      if (at > g.offsets_[a.to] && g.arcs_[at - 1].to == x) {
        duplicate = std::min(duplicate, a.id);
      }
      g.arcs_[at] = Arc{x, a.id};
    }
  }
  // Scanning the lower parts the same way rewrites the higher parts in
  // neighbour order. cursor[x] now ends x's lower part and then, once x has
  // been scanned, walks its higher part.
  for (Vertex x = 0; x < num_vertices; ++x) {
    const std::uint32_t lower_end = cursor[x];
    for (std::uint32_t k = g.offsets_[x]; k < lower_end; ++k) {
      const Arc a = g.arcs_[k];
      g.arcs_[cursor[a.to]++] = Arc{x, a.id};
    }
  }
  if (first_duplicate != nullptr) {
    *first_duplicate = duplicate;
  } else {
    FTBFS_EXPECTS(duplicate == kInvalidEdge);  // no parallel edges
  }
  g.edges_ = std::move(edges);
  return g;
}

Graph Graph::from_csr_unchecked(Vertex num_vertices, std::vector<Edge> edges,
                                std::vector<std::uint32_t> offsets,
                                std::vector<Arc> arcs) {
  FTBFS_EXPECTS(offsets.size() == static_cast<std::size_t>(num_vertices) + 1);
  FTBFS_EXPECTS(arcs.size() == 2 * edges.size());
  Graph g;
  g.num_vertices_ = num_vertices;
  g.edges_ = std::move(edges);
  g.offsets_ = std::move(offsets);
  g.arcs_ = std::move(arcs);
  return g;
}

EdgeId Graph::find_edge(Vertex u, Vertex v) const {
  FTBFS_EXPECTS(u < num_vertices_ && v < num_vertices_);
  const auto nbrs = neighbors(u);
  const auto it =
      std::lower_bound(nbrs.begin(), nbrs.end(), v,
                       [](const Arc& a, Vertex target) { return a.to < target; });
  if (it != nbrs.end() && it->to == v) return it->id;
  return kInvalidEdge;
}

Graph subgraph_from_edges(const Graph& g, std::span<const EdgeId> kept_edges) {
  std::vector<Edge> edges;
  edges.reserve(kept_edges.size());
  for (const EdgeId e : kept_edges) edges.push_back(g.edge(e));
  return Graph::from_edges(g.num_vertices(), std::move(edges));
}

bool is_connected(const Graph& g) {
  if (g.num_vertices() == 0) return true;
  std::vector<bool> seen(g.num_vertices(), false);
  std::vector<Vertex> stack = {0};
  seen[0] = true;
  Vertex count = 1;
  while (!stack.empty()) {
    const Vertex v = stack.back();
    stack.pop_back();
    for (const Arc& arc : g.neighbors(v)) {
      if (!seen[arc.to]) {
        seen[arc.to] = true;
        ++count;
        stack.push_back(arc.to);
      }
    }
  }
  return count == g.num_vertices();
}

std::string describe(const Graph& g) {
  return "Graph(n=" + std::to_string(g.num_vertices()) +
         ", m=" + std::to_string(g.num_edges()) + ")";
}

}  // namespace ftbfs
