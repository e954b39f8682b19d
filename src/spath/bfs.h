// Plain breadth-first search (hop distances only), with optional mask of
// blocked vertices and edges.
//
// Used wherever tie-breaking does not matter, since BFS skips the per-arc key
// comparison of the tie-broken W-sweep (spath/dijkstra.h): the FT-BFS
// *verifier* only compares hop distances (the defining property
// dist(s,v,H∖F) = dist(s,v,G∖F) is about lengths, not about which path
// realizes them), the query engine's full tier, and the construction
// kernels' hop probe when the cut region is larger than the ball it would
// search (core/selector.h).
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "graph/mask.h"

namespace ftbfs {

inline constexpr std::uint32_t kInfHops =
    std::numeric_limits<std::uint32_t>::max();

struct BfsResult {
  std::vector<std::uint32_t> hops;   // kInfHops if unreachable
  std::vector<Vertex> parent;        // kInvalidVertex for source/unreachable
  std::vector<EdgeId> parent_edge;   // kInvalidEdge likewise
};

// Reusable BFS engine (buffers persist across runs).
class Bfs {
 public:
  explicit Bfs(const Graph& g) : graph_(&g) {
    result_.hops.resize(g.num_vertices());
    result_.parent.resize(g.num_vertices());
    result_.parent_edge.resize(g.num_vertices());
    queue_.reserve(g.num_vertices());
  }

  // Runs BFS from `source`; if `mask` is non-null, blocked vertices/edges are
  // skipped. Result remains valid until the next run().
  const BfsResult& run(Vertex source, const GraphMask* mask = nullptr);

  // Early-exit variant: stops expanding once every vertex of `targets` has
  // been settled (or the frontier is exhausted). Entries of the result are
  // exact for all settled vertices — in particular for every reached target —
  // and kInfHops for targets that are genuinely unreachable; other vertices
  // may be left unexplored. This is the query-path workhorse: fault-set
  // distance queries touch only the BFS ball around the targets.
  const BfsResult& run_until(Vertex source, std::span<const Vertex> targets,
                             const GraphMask* mask = nullptr);

  [[nodiscard]] const BfsResult& result() const { return result_; }

  // Vertices of the last run in discovery (queue) order; valid until the next
  // run. Complete only for full runs — run_until may stop early. The engine's
  // delta path keeps this as the per-source baseline discovery rank, the
  // tie-break that makes repair-path parent choices track the full BFS.
  [[nodiscard]] std::span<const Vertex> visit_order() const { return queue_; }

 private:
  const Graph* graph_;
  BfsResult result_;
  std::vector<Vertex> queue_;
  // Epoch-stamped target markers for run_until (lazily sized).
  std::vector<std::uint64_t> target_epoch_;
  std::uint64_t epoch_ = 0;
};

// One-shot hop distance; convenience for tests.
[[nodiscard]] std::uint32_t bfs_distance(const Graph& g, Vertex s, Vertex t,
                                         const GraphMask* mask = nullptr);

// Eccentricity of `source` (max finite hop distance); kInfHops if some vertex
// is unreachable.
[[nodiscard]] std::uint32_t bfs_eccentricity(const Graph& g, Vertex source);

}  // namespace ftbfs
