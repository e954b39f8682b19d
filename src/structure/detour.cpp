#include "structure/detour.h"

#include <algorithm>

#include "spath/dijkstra.h"

namespace ftbfs {

DetourSet compute_detours(PathSelector& sel, Vertex s, Vertex v) {
  FTBFS_EXPECTS(s != v);
  DetourSet out;
  const SpResult& tree = sel.baseline(s).tree();
  FTBFS_EXPECTS(tree.reached(v));
  out.pi = extract_path(tree, v);

  VertexIndexMap pi_pos(sel.graph().num_vertices());
  pi_pos.bind(out.pi);
  for (std::size_t i = 0; i + 1 < out.pi.size(); ++i) {
    const auto selection = select_single_fault(sel, out.pi, pi_pos, i);
    if (!selection) continue;
    Detour d;
    d.verts = selection->detour;
    d.x = selection->x;
    d.y = selection->y;
    d.x_pi_index = selection->x_pi_index;
    d.y_pi_index = selection->y_pi_index;
    d.protected_edge_index = i;
    out.detours.push_back(std::move(d));
  }
  return out;
}

Vertex first_common(const Path& a, const Path& b) {
  for (const Vertex w : a) {
    if (std::find(b.begin(), b.end(), w) != b.end()) return w;
  }
  return kInvalidVertex;
}

Vertex last_common(const Path& a, const Path& b) {
  for (std::size_t i = a.size(); i-- > 0;) {
    if (std::find(b.begin(), b.end(), a[i]) != b.end()) return a[i];
  }
  return kInvalidVertex;
}

bool detours_dependent(const Detour& d1, const Detour& d2) {
  return first_common(d1.verts, d2.verts) != kInvalidVertex;
}

}  // namespace ftbfs
