#include "core/selector.h"

namespace ftbfs {

void block_pi_segment(GraphMask& mask, const Path& pi, std::size_t k,
                      std::size_t l) {
  FTBFS_EXPECTS(k <= l && l < pi.size());
  for (std::size_t idx = k + 1; idx <= l; ++idx) {
    mask.block_vertex(pi[idx]);
  }
}

std::optional<SingleFaultSelection> select_single_fault(
    PathSelector& sel, const Path& pi, const VertexIndexMap& pi_pos,
    std::size_t i) {
  FTBFS_EXPECTS(pi.size() >= 2);
  FTBFS_EXPECTS(i + 1 < pi.size());
  const Vertex s = pi.front();
  const Vertex v = pi.back();
  const Graph& g = sel.graph();
  const EdgeId e_i = g.find_edge(pi[i], pi[i + 1]);
  FTBFS_EXPECTS(e_i != kInvalidEdge);

  // Target distance: dist(s, v, G ∖ {e_i}).
  const std::uint32_t target = sel.single_fault_distance(s, v, e_i);
  if (target == kInfHops) return std::nullopt;
  GraphMask& mask = sel.mask();

  // Binary search for the minimal k with
  //   dist(s, v, G(u_k, u_i) ∖ {e_i}) == dist(s, v, G ∖ {e_i});
  // feasible at k == i because G(u_i, u_i) = G, and hop-distance is monotone
  // non-increasing in k because G(u_k,·) ⊆ G(u_{k+1},·).
  auto feasible = [&](std::size_t k) {
    mask.clear();
    mask.block_edge(e_i);
    block_pi_segment(mask, pi, k, i);
    return sel.hop_distance(s, v) == target;
  };
  std::size_t lo = 0, hi = i;  // invariant: feasible(hi)
  if (!feasible(0)) {
    while (lo + 1 < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      (feasible(mid) ? hi : lo) = mid;
    }
  } else {
    hi = 0;
  }
  const std::size_t k0 = hi;

  // The selected path: the W-unique shortest path in G(u_k0, u_i) ∖ {e_i}.
  mask.clear();
  mask.block_edge(e_i);
  block_pi_segment(mask, pi, k0, i);
  const std::optional<RPath> rp = sel.w_path(s, v);
  FTBFS_ENSURES(rp.has_value() && rp->key.hops == target);

  SingleFaultSelection out;
  out.path = rp->verts;

  // Decompose per Claim 3.4: prefix on π up to x, detour, suffix on π from y.
  const std::size_t x_path_idx = first_divergence(out.path, pi);
  std::size_t y_path_idx = x_path_idx + 1;
  while (y_path_idx < out.path.size() && !pi_pos.on_path(out.path[y_path_idx])) {
    ++y_path_idx;
  }
  FTBFS_ENSURES(y_path_idx < out.path.size());  // path ends at v ∈ π
  out.x = out.path[x_path_idx];
  out.y = out.path[y_path_idx];
  out.x_pi_index = pi_pos.pos(out.x);
  out.y_pi_index = pi_pos.pos(out.y);
  out.detour = subpath(out.path, x_path_idx, y_path_idx);

  // Claim 3.4(1): after y the path follows π(y, v); under W-uniqueness this
  // is an invariant of the construction.
  FTBFS_ENSURES(out.y_pi_index >= out.x_pi_index);
  for (std::size_t j = y_path_idx; j < out.path.size(); ++j) {
    FTBFS_ENSURES(out.y_pi_index + (j - y_path_idx) < pi.size());
    FTBFS_ENSURES(out.path[j] == pi[out.y_pi_index + (j - y_path_idx)]);
  }
  FTBFS_ENSURES(out.path.back() == v);
  return out;
}

}  // namespace ftbfs
