// Core graph substrate: simple undirected unweighted graphs in CSR form with
// stable edge identifiers.
//
// The paper's algorithms manipulate *edges* as first-class objects (fault sets
// are edge sets, structures are edge sets), so every undirected edge gets one
// EdgeId; the CSR adjacency stores (neighbor, edge id) arcs in both directions.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/assert.h"

namespace ftbfs {

using Vertex = std::uint32_t;
using EdgeId = std::uint32_t;

inline constexpr Vertex kInvalidVertex = static_cast<Vertex>(-1);
inline constexpr EdgeId kInvalidEdge = static_cast<EdgeId>(-1);

// One undirected edge; canonicalized so u < v.
struct Edge {
  Vertex u = kInvalidVertex;
  Vertex v = kInvalidVertex;

  friend bool operator==(const Edge&, const Edge&) = default;
};

// One directed half-edge in the adjacency of some vertex.
struct Arc {
  Vertex to = kInvalidVertex;
  EdgeId id = kInvalidEdge;
};

class Graph;

// Accumulates edges, validates them (no self-loops, no parallel edges), and
// freezes into an immutable Graph.
class GraphBuilder {
 public:
  explicit GraphBuilder(Vertex num_vertices) : num_vertices_(num_vertices) {}

  // Adds the undirected edge {u, v}; returns its id (insertion order).
  // Duplicate edges and self-loops are contract violations.
  EdgeId add_edge(Vertex u, Vertex v);

  // True if {u, v} was already added. O(log deg(u)) — the staged neighbor
  // lists are kept sorted, so the random-graph generators can build large
  // instances through this path without a quadratic duplicate scan.
  [[nodiscard]] bool has_edge(Vertex u, Vertex v) const;

  [[nodiscard]] Vertex num_vertices() const { return num_vertices_; }
  [[nodiscard]] EdgeId num_edges() const {
    return static_cast<EdgeId>(edges_.size());
  }

  [[nodiscard]] Graph build() &&;

 private:
  Vertex num_vertices_;
  std::vector<Edge> edges_;
  // Staged adjacency (sorted neighbor lists) used only for duplicate
  // detection.
  std::vector<std::vector<Vertex>> staged_;
};

class Graph {
 public:
  Graph() = default;

  [[nodiscard]] Vertex num_vertices() const { return num_vertices_; }
  [[nodiscard]] EdgeId num_edges() const {
    return static_cast<EdgeId>(edges_.size());
  }

  [[nodiscard]] const Edge& edge(EdgeId e) const {
    FTBFS_EXPECTS(e < edges_.size());
    return edges_[e];
  }

  // The endpoint of edge e that is not `from`.
  [[nodiscard]] Vertex other_endpoint(EdgeId e, Vertex from) const {
    const Edge& ed = edge(e);
    FTBFS_EXPECTS(ed.u == from || ed.v == from);
    return ed.u == from ? ed.v : ed.u;
  }

  // Arcs out of v, sorted by neighbor id (deterministic iteration order).
  [[nodiscard]] std::span<const Arc> neighbors(Vertex v) const {
    FTBFS_EXPECTS(v < num_vertices_);
    return {arcs_.data() + offsets_[v], arcs_.data() + offsets_[v + 1]};
  }

  [[nodiscard]] std::uint32_t degree(Vertex v) const {
    FTBFS_EXPECTS(v < num_vertices_);
    return offsets_[v + 1] - offsets_[v];
  }

  // Edge id of {u, v}, or kInvalidEdge if absent. O(log deg(u)).
  [[nodiscard]] EdgeId find_edge(Vertex u, Vertex v) const;

  [[nodiscard]] bool has_edge(Vertex u, Vertex v) const {
    return find_edge(u, v) != kInvalidEdge;
  }

  [[nodiscard]] const std::vector<Edge>& edges() const { return edges_; }

  // Freezes canonical edges (u < v < num_vertices) into CSR form in linear
  // time: edge i gets id i, and every adjacency list is sorted by neighbour.
  // Parallel edges are the caller's to rule out: when `first_duplicate` is
  // null there must be none; otherwise it receives the id of the first edge
  // that repeats an earlier one (kInvalidEdge if none), and a graph with a
  // duplicate holds both of its arcs, side by side in each list.
  [[nodiscard]] static Graph from_edges(Vertex num_vertices,
                                        std::vector<Edge> edges,
                                        EdgeId* first_duplicate = nullptr);

  // Adopts already-built CSR arrays without re-validating them. The snapshot
  // loader (src/persist/) is the only intended caller: it has just proven the
  // arrays consistent (canonical edges, monotone offsets, sorted arcs that
  // agree with the edge list), so rebuilding them through from_edges would
  // only repeat work the validation already did.
  [[nodiscard]] static Graph from_csr_unchecked(Vertex num_vertices,
                                                std::vector<Edge> edges,
                                                std::vector<std::uint32_t> offsets,
                                                std::vector<Arc> arcs);

 private:
  Vertex num_vertices_ = 0;
  std::vector<Edge> edges_;
  std::vector<std::uint32_t> offsets_;  // size num_vertices_ + 1
  std::vector<Arc> arcs_;               // size 2 * num_edges
};

// Builds the subgraph of `g` induced by keeping exactly the edges in
// `kept_edges` (vertex set unchanged). Edge ids are NOT preserved; the result
// is a fresh graph. Used to materialize computed FT-BFS structures H ⊆ G.
[[nodiscard]] Graph subgraph_from_edges(const Graph& g,
                                        std::span<const EdgeId> kept_edges);

// True if every vertex is reachable from vertex 0 (or the graph is empty).
[[nodiscard]] bool is_connected(const Graph& g);

// Human-readable one-line summary, e.g. "Graph(n=100, m=250)".
[[nodiscard]] std::string describe(const Graph& g);

}  // namespace ftbfs
