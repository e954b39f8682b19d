// Replacement-path *selection* building blocks shared by the construction
// algorithms (single-failure FT-BFS and Cons2FTBFS).
//
// The paper's algorithms do not take an arbitrary shortest path in G∖F: they
// take the W-unique shortest path in a carefully restricted graph that forces
// the divergence point from π(s,v) (and, in step 3, from the detour) to be as
// close to s as possible. The restricted graphs are G(u_k, u_l) of Eq. (3) and
// G_D(w_l) of Eq. (4); the minimal feasible divergence index is found by
// binary search, which is sound because the restricted graphs are nested
// (G(u_k,·) ⊆ G(u_{k+1},·)), making hop-distance monotone in the index.
//
// Distance *tests* use plain BFS probes that stop at their target (hop counts
// are what the FT-BFS property is about); only the finally selected path is
// computed with the tie-broken W-sweep so that it is the W-unique
// representative the analysis reasons about. All scratch is O(n + m) per
// selector, so every parallel-build worker stays linear in the graph.
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "graph/graph.h"
#include "graph/mask.h"
#include "spath/bfs.h"
#include "spath/dijkstra.h"
#include "spath/path.h"
#include "spath/replacement.h"
#include "spath/weights.h"

namespace ftbfs {

// Epoch-stamped vertex → position-on-current-path index. Rebinding is O(|p|),
// lookup O(1); used to answer "is w on π(s,v), and where?" in inner loops.
class VertexIndexMap {
 public:
  explicit VertexIndexMap(Vertex n) : epoch_(n, 0), pos_(n, 0) {}

  void bind(const Path& p) {
    ++cur_;
    for (std::size_t i = 0; i < p.size(); ++i) {
      epoch_[p[i]] = cur_;
      pos_[p[i]] = i;
    }
  }

  [[nodiscard]] bool on_path(Vertex v) const { return epoch_[v] == cur_; }

  [[nodiscard]] std::size_t pos(Vertex v) const {
    return on_path(v) ? pos_[v] : kNpos;
  }

 private:
  std::uint32_t cur_ = 0;
  std::vector<std::uint32_t> epoch_;
  std::vector<std::size_t> pos_;
};

// Owns the scratch state (mask + BFS + W-sweep) for path selection.
class PathSelector {
 public:
  PathSelector(const Graph& g, const WeightAssignment& w)
      : graph_(&g), weights_(&w), mask_(g), bfs_(g), dijkstra_(g, w) {}

  [[nodiscard]] GraphMask& mask() { return mask_; }
  [[nodiscard]] const Graph& graph() const { return *graph_; }
  [[nodiscard]] const WeightAssignment& weights() const { return *weights_; }

  // Hop distance s→t under the current mask; kInfHops if cut off. The BFS
  // stops as soon as t is discovered, so a probe costs only the ball around s
  // of radius dist(s, t).
  [[nodiscard]] std::uint32_t hop_distance(Vertex s, Vertex t) {
    ++bfs_runs_;
    return bfs_.run_until(s, std::span<const Vertex>(&t, 1), &mask_).hops[t];
  }

  // W-unique shortest path s→t under the current mask.
  [[nodiscard]] std::optional<RPath> w_path(Vertex s, Vertex t) {
    ++dijkstra_runs_;
    const SpResult& r = dijkstra_.run(s, &mask_, t);
    if (!r.reached(t)) return std::nullopt;
    return RPath{extract_path(r, t), r.dist[t]};
  }

  // Full W-SSSP under the current mask; result borrowed until next call.
  [[nodiscard]] const SpResult& w_sssp(Vertex s) {
    ++dijkstra_runs_;
    return dijkstra_.run(s, &mask_, kInvalidVertex);
  }

  // dist(s, t, G ∖ {e}): one early-exit probe. Overwrites the scratch mask.
  [[nodiscard]] std::uint32_t single_fault_distance(Vertex s, Vertex t,
                                                    EdgeId e) {
    mask_.clear();
    mask_.block_edge(e);
    return hop_distance(s, t);
  }

  [[nodiscard]] std::uint64_t bfs_runs() const { return bfs_runs_; }
  [[nodiscard]] std::uint64_t dijkstra_runs() const { return dijkstra_runs_; }

 private:
  const Graph* graph_;
  const WeightAssignment* weights_;
  GraphMask mask_;
  Bfs bfs_;
  Dijkstra dijkstra_;
  std::uint64_t bfs_runs_ = 0;
  std::uint64_t dijkstra_runs_ = 0;
};

// Blocks π positions [k+1 .. l] on the mask (the vertex-removal part of
// Eq. (3)'s G(u_k, u_l); u_k itself stays, as does anything outside the
// segment). The caller must never include the target v in the blocked range.
void block_pi_segment(GraphMask& mask, const Path& pi, std::size_t k,
                      std::size_t l);

// The decomposition π(s,x_i) ∘ D_i ∘ π(y_i,v) of a selected single-fault
// replacement path (Claim 3.4).
struct SingleFaultSelection {
  Path path;            // the full replacement path P_{s,v,{e_i}}
  Path detour;          // D_i, including both endpoints x and y
  Vertex x = kInvalidVertex;  // first divergence point from π (== first detour vertex)
  Vertex y = kInvalidVertex;  // first return to π (== last detour vertex)
  std::size_t x_pi_index = 0;  // position of x on π
  std::size_t y_pi_index = 0;  // position of y on π
};

// Step (1) of Cons2FTBFS: the replacement path for the failure of the π edge
// at position i (edge (π[i], π[i+1])), selected so that its divergence point
// from π is as close to s as possible. Returns nullopt when v is disconnected
// from s in G ∖ {e_i}.
//
// `pi_pos` must be bound to `pi`. Postcondition (Claim 3.4): the returned path
// equals π(s,x) ∘ detour ∘ π(y,v), enforced with a hard invariant — under the
// uniqueness of W this cannot fail.
[[nodiscard]] std::optional<SingleFaultSelection> select_single_fault(
    PathSelector& sel, const Path& pi, const VertexIndexMap& pi_pos,
    std::size_t i);

}  // namespace ftbfs
