// Path algebra: the small vocabulary the paper uses over and over —
// LastE(P), |P|, P[v_i, v_j], P1 ∘ P2, divergence points, detour segments.
//
// A path is a sequence of vertices; edges are implied (and validated against
// the graph where needed). All operations are value-semantic.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "spath/weights.h"

namespace ftbfs {

using Path = std::vector<Vertex>;

inline constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

// |P| — length in edges. A single-vertex path has length 0.
[[nodiscard]] std::size_t path_length(const Path& p);

// True if consecutive vertices are adjacent in g and no vertex repeats.
[[nodiscard]] bool is_simple_path_in(const Graph& g, const Path& p);

// LastE(P): the id of the final edge. Requires |P| >= 1.
[[nodiscard]] EdgeId last_edge(const Graph& g, const Path& p);

// Edge ids along the path, in order.
[[nodiscard]] std::vector<EdgeId> edges_of(const Graph& g, const Path& p);

// Index of the first occurrence of v in p, or kNpos.
[[nodiscard]] std::size_t index_of(const Path& p, Vertex v);

[[nodiscard]] bool contains_vertex(const Path& p, Vertex v);

// True if the (undirected) edge e is traversed by p.
[[nodiscard]] bool contains_edge(const Graph& g, const Path& p, EdgeId e);

// P[i..j] by positional indices, inclusive. Requires i <= j < |p|.
[[nodiscard]] Path subpath(std::span<const Vertex> p, std::size_t i,
                           std::size_t j);

// P[a, b] by vertex values (paper notation); both must occur, a before b.
[[nodiscard]] Path subpath_by_vertex(const Path& p, Vertex a, Vertex b);

// P1 ∘ P2. Requires P1.back() == P2.front(); the shared vertex appears once.
[[nodiscard]] Path concat(const Path& p1, const Path& p2);

// Index (into `p`) of the first divergence point of p from q, where both
// start at the same vertex: the last index of the longest common prefix.
// Requires p.front() == q.front(). Returns p.size()-1 if p is a prefix of q.
[[nodiscard]] std::size_t first_divergence(const Path& p, const Path& q);

// The W-key (hops, perturbation sum) of a path.
[[nodiscard]] DistKey path_key(const Graph& g, const WeightAssignment& w,
                               const Path& p);

// All divergence points of p1 from p2 in the paper's sense: vertices w on both
// paths such that the successor of w on p1 is not on p2. Used by tests of the
// uniqueness claims (Cl. 3.5, 3.15).
[[nodiscard]] std::vector<Vertex> divergence_points(const Path& p1,
                                                    const Path& p2);

}  // namespace ftbfs
