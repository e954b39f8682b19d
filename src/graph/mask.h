// Epoch-stamped graph masks.
//
// All of the paper's restricted graphs — G∖F, G(u_k,u_l) (Eq. 3), G_D(w_l)
// (Eq. 4), and G_{τ−1}(v) (step 3 of Cons2FTBFS) — are the base graph with
// some vertices removed, some edges removed, and possibly the edges incident
// to one distinguished vertex restricted to a whitelist. A GraphMask expresses
// all three without copying the graph; reset is O(1) via epoch bumping, so the
// inner loops of the construction algorithms perform no per-query allocation.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"

namespace ftbfs {

class GraphMask {
 public:
  explicit GraphMask(const Graph& g)
      : vertex_epoch_(g.num_vertices(), 0),
        edge_block_epoch_(g.num_edges(), 0),
        edge_allow_epoch_(g.num_edges(), 0) {}

  // Drops all restrictions in O(1), amortized: when the 32-bit epoch wraps
  // (once per 2^32 clears), the stamps are zeroed so that neither the
  // never-stamped entries nor stale stamps from before the wrap read as live.
  void clear() {
    if (++epoch_ == 0) {
      std::fill(vertex_epoch_.begin(), vertex_epoch_.end(), 0);
      std::fill(edge_block_epoch_.begin(), edge_block_epoch_.end(), 0);
      std::fill(edge_allow_epoch_.begin(), edge_allow_epoch_.end(), 0);
      epoch_ = 1;
    }
    restricted_vertex_ = kInvalidVertex;
  }

  void block_vertex(Vertex v) {
    FTBFS_EXPECTS(v < vertex_epoch_.size());
    vertex_epoch_[v] = epoch_;
  }

  void block_edge(EdgeId e) {
    FTBFS_EXPECTS(e < edge_block_epoch_.size());
    edge_block_epoch_[e] = epoch_;
  }

  // Restricts the edges incident to `v` to exactly those subsequently passed
  // to allow_edge(). Models G_{τ−1}(v) = (G ∖ E(v,G)) ∪ E_{τ−1}(v).
  // At most one vertex may be restricted at a time.
  void restrict_incident_edges(Vertex v) {
    FTBFS_EXPECTS(v < vertex_epoch_.size());
    restricted_vertex_ = v;
  }

  // Whitelists edge e at the restricted vertex. Only meaningful after
  // restrict_incident_edges().
  void allow_edge(EdgeId e) {
    FTBFS_EXPECTS(e < edge_allow_epoch_.size());
    edge_allow_epoch_[e] = epoch_;
  }

  [[nodiscard]] bool vertex_blocked(Vertex v) const {
    return vertex_epoch_[v] == epoch_;
  }

  [[nodiscard]] bool edge_blocked(EdgeId e) const {
    return edge_block_epoch_[e] == epoch_;
  }

  // Full usability test for traversing edge `e` into vertex `to` from vertex
  // `from`: neither endpoint blocked, edge not blocked, and — if either
  // endpoint is the restricted vertex — the edge is whitelisted.
  [[nodiscard]] bool edge_usable(EdgeId e, Vertex from, Vertex to) const {
    if (edge_blocked(e) || vertex_blocked(to) || vertex_blocked(from)) {
      return false;
    }
    if (from == restricted_vertex_ || to == restricted_vertex_) {
      return edge_allow_epoch_[e] == epoch_;
    }
    return true;
  }

  [[nodiscard]] Vertex restricted_vertex() const { return restricted_vertex_; }

  // True iff an incident-edge restriction is active. Traversal loops load
  // this once per run/vertex and use the cheap per-arc test below instead of
  // re-deriving it from restricted_vertex_ on every arc.
  [[nodiscard]] bool has_restriction() const {
    return restricted_vertex_ != kInvalidVertex;
  }

  // Per-arc test for the unrestricted common case: edge not blocked and the
  // head not blocked. Valid only when has_restriction() is false and `from`
  // is known unblocked (true for any vertex already settled by a traversal).
  [[nodiscard]] bool arc_blocked_unrestricted(EdgeId e, Vertex to) const {
    return edge_block_epoch_[e] == epoch_ || vertex_epoch_[to] == epoch_;
  }

 private:
  std::uint32_t epoch_ = 1;
  Vertex restricted_vertex_ = kInvalidVertex;
  std::vector<std::uint32_t> vertex_epoch_;
  std::vector<std::uint32_t> edge_block_epoch_;
  std::vector<std::uint32_t> edge_allow_epoch_;
};

// Convenience: blocks every edge of `faults` on the mask.
void block_edges(GraphMask& mask, std::span<const EdgeId> faults);

}  // namespace ftbfs
