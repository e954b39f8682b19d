// Epoch-stamped graph masks.
//
// All of the paper's restricted graphs — G∖F, G(u_k,u_l) (Eq. 3) and G_D(w_l)
// (Eq. 4) — are the base graph with some vertices and some edges removed. A
// GraphMask expresses both without copying the graph; reset is O(1) via epoch
// bumping, so the inner loops of the construction algorithms perform no
// per-query allocation. The mask also lists what it blocked since the last
// clear(), which is what lets the construction kernels (core/selector.h)
// repair only the fault-free tree's subtrees below those cuts.
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
        edge_block_epoch_(g.num_edges(), 0) {}

  // Drops all restrictions in O(1), amortized: when the 32-bit epoch wraps
  // (once per 2^32 clears), the stamps are zeroed so that neither the
  // never-stamped entries nor stale stamps from before the wrap read as live.
  void clear() {
    if (++epoch_ == 0) {
      std::fill(vertex_epoch_.begin(), vertex_epoch_.end(), 0);
      std::fill(edge_block_epoch_.begin(), edge_block_epoch_.end(), 0);
      epoch_ = 1;
    }
    blocked_vertices_.clear();
    blocked_edges_.clear();
  }

  void block_vertex(Vertex v) {
    FTBFS_EXPECTS(v < vertex_epoch_.size());
    if (vertex_epoch_[v] == epoch_) return;
    vertex_epoch_[v] = epoch_;
    blocked_vertices_.push_back(v);
  }

  void block_edge(EdgeId e) {
    FTBFS_EXPECTS(e < edge_block_epoch_.size());
    if (edge_block_epoch_[e] == epoch_) return;
    edge_block_epoch_[e] = epoch_;
    blocked_edges_.push_back(e);
  }

  [[nodiscard]] bool vertex_blocked(Vertex v) const {
    return vertex_epoch_[v] == epoch_;
  }

  [[nodiscard]] bool edge_blocked(EdgeId e) const {
    return edge_block_epoch_[e] == epoch_;
  }

  // The distinct vertices / edges blocked since the last clear(), in blocking
  // order.
  [[nodiscard]] std::span<const Vertex> blocked_vertices() const {
    return blocked_vertices_;
  }
  [[nodiscard]] std::span<const EdgeId> blocked_edges() const {
    return blocked_edges_;
  }

  // Full usability test for traversing edge `e` between `from` and `to`:
  // neither endpoint blocked, edge not blocked.
  [[nodiscard]] bool edge_usable(EdgeId e, Vertex from, Vertex to) const {
    return !edge_blocked(e) && !vertex_blocked(to) && !vertex_blocked(from);
  }

  // Per-arc test for traversal loops: edge blocked or head blocked. The tail
  // is not tested — a traversal only expands vertices it already checked.
  [[nodiscard]] bool arc_blocked(EdgeId e, Vertex to) const {
    return edge_block_epoch_[e] == epoch_ || vertex_epoch_[to] == epoch_;
  }

 private:
  std::uint32_t epoch_ = 1;
  std::vector<std::uint32_t> vertex_epoch_;
  std::vector<std::uint32_t> edge_block_epoch_;
  std::vector<Vertex> blocked_vertices_;
  std::vector<EdgeId> blocked_edges_;
};

// Convenience: blocks every edge of `faults` on the mask.
void block_edges(GraphMask& mask, std::span<const EdgeId> faults);

}  // namespace ftbfs
