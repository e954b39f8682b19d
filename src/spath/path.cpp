#include "spath/path.h"

#include <algorithm>

namespace ftbfs {

std::size_t path_length(const Path& p) {
  FTBFS_EXPECTS(!p.empty());
  return p.size() - 1;
}

bool is_simple_path_in(const Graph& g, const Path& p) {
  if (p.empty()) return false;
  std::vector<Vertex> sorted = p;
  std::sort(sorted.begin(), sorted.end());
  if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
    return false;
  }
  for (std::size_t i = 0; i + 1 < p.size(); ++i) {
    if (g.find_edge(p[i], p[i + 1]) == kInvalidEdge) return false;
  }
  return true;
}

EdgeId last_edge(const Graph& g, const Path& p) {
  FTBFS_EXPECTS(p.size() >= 2);
  const EdgeId e = g.find_edge(p[p.size() - 2], p[p.size() - 1]);
  FTBFS_ENSURES(e != kInvalidEdge);
  return e;
}

std::vector<EdgeId> edges_of(const Graph& g, const Path& p) {
  std::vector<EdgeId> out;
  if (p.size() < 2) return out;
  out.reserve(p.size() - 1);
  for (std::size_t i = 0; i + 1 < p.size(); ++i) {
    const EdgeId e = g.find_edge(p[i], p[i + 1]);
    FTBFS_EXPECTS(e != kInvalidEdge);
    out.push_back(e);
  }
  return out;
}

std::size_t index_of(const Path& p, Vertex v) {
  const auto it = std::find(p.begin(), p.end(), v);
  return it == p.end() ? kNpos : static_cast<std::size_t>(it - p.begin());
}

bool contains_vertex(const Path& p, Vertex v) {
  return index_of(p, v) != kNpos;
}

bool contains_edge(const Graph& g, const Path& p, EdgeId e) {
  const Edge& ed = g.edge(e);
  for (std::size_t i = 0; i + 1 < p.size(); ++i) {
    const Vertex a = p[i], b = p[i + 1];
    if ((a == ed.u && b == ed.v) || (a == ed.v && b == ed.u)) return true;
  }
  return false;
}

Path subpath(std::span<const Vertex> p, std::size_t i, std::size_t j) {
  FTBFS_EXPECTS(i <= j && j < p.size());
  return Path(p.begin() + static_cast<std::ptrdiff_t>(i),
              p.begin() + static_cast<std::ptrdiff_t>(j) + 1);
}

Path subpath_by_vertex(const Path& p, Vertex a, Vertex b) {
  const std::size_t i = index_of(p, a);
  const std::size_t j = index_of(p, b);
  FTBFS_EXPECTS(i != kNpos && j != kNpos && i <= j);
  return subpath(p, i, j);
}

Path concat(const Path& p1, const Path& p2) {
  FTBFS_EXPECTS(!p1.empty() && !p2.empty());
  FTBFS_EXPECTS(p1.back() == p2.front());
  Path out = p1;
  out.insert(out.end(), p2.begin() + 1, p2.end());
  return out;
}

std::size_t first_divergence(const Path& p, const Path& q) {
  FTBFS_EXPECTS(!p.empty() && !q.empty());
  FTBFS_EXPECTS(p.front() == q.front());
  std::size_t i = 0;
  while (i + 1 < p.size() && i + 1 < q.size() && p[i + 1] == q[i + 1]) ++i;
  return i;
}

DistKey path_key(const Graph& g, const WeightAssignment& w, const Path& p) {
  DistKey key{0, 0};
  for (std::size_t i = 0; i + 1 < p.size(); ++i) {
    const EdgeId e = g.find_edge(p[i], p[i + 1]);
    FTBFS_EXPECTS(e != kInvalidEdge);
    key = w.extend(key, e);
  }
  return key;
}

std::vector<Vertex> divergence_points(const Path& p1, const Path& p2) {
  std::vector<Vertex> out;
  for (std::size_t i = 0; i + 1 < p1.size(); ++i) {
    if (contains_vertex(p2, p1[i]) && !contains_vertex(p2, p1[i + 1])) {
      out.push_back(p1[i]);
    }
  }
  return out;
}

}  // namespace ftbfs
