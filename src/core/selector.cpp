#include "core/selector.h"

#include <algorithm>

namespace ftbfs {

SelectorBaseline::SelectorBaseline(const Graph& g, const WeightAssignment& w,
                                   Vertex source)
    : tree_(Dijkstra(g, w).run(source)),
      index_(g, tree_, source),
      edge_child_(g.num_edges(), kInvalidVertex),
      subtree_height_(g.num_vertices(), 0) {
  const std::vector<Vertex>& pre = index_.preorder();
  std::uint32_t height = 0;
  for (const Vertex v : pre) {
    if (tree_.parent_edge[v] != kInvalidEdge) {
      edge_child_[tree_.parent_edge[v]] = v;
    }
    subtree_height_[v] = index_.depth(v);
    height = std::max(height, index_.depth(v));
  }
  // Reverse preorder reaches every child before its parent.
  for (std::size_t i = pre.size(); i-- > 1;) {
    const Vertex p = index_.parent(pre[i]);
    subtree_height_[p] = std::max(subtree_height_[p], subtree_height_[pre[i]]);
  }
  // Counting sort of the preorder by depth: preorder survives within a level.
  level_begin_.assign(height + 2, 0);
  for (const Vertex v : pre) ++level_begin_[index_.depth(v) + 1];
  for (std::size_t d = 1; d < level_begin_.size(); ++d) {
    level_begin_[d] += level_begin_[d - 1];
  }
  std::vector<std::uint32_t> fill(level_begin_.begin(), level_begin_.end() - 1);
  level_vertex_.resize(pre.size());
  level_pre_.resize(pre.size());
  for (std::uint32_t i = 0; i < pre.size(); ++i) {
    const std::uint32_t slot = fill[index_.depth(pre[i])]++;
    level_vertex_[slot] = pre[i];
    level_pre_[slot] = i;
  }
}

std::span<const Vertex> SelectorBaseline::subtree_level(
    Vertex v, std::uint32_t level) const {
  if (level < index_.depth(v) || level > subtree_height_[v]) return {};
  const auto first = level_pre_.begin() + level_begin_[level];
  const auto last = level_pre_.begin() + level_begin_[level + 1];
  const std::uint32_t pre = index_.preorder_index(v);
  const auto lo = std::lower_bound(first, last, pre);
  const auto hi = std::lower_bound(lo, last, pre + index_.subtree_size(v));
  return {level_vertex_.data() + (lo - level_pre_.begin()),
          static_cast<std::size_t>(hi - lo)};
}

PathSelector::PathSelector(const Graph& g, const WeightAssignment& w,
                           const SelectorBaseline* baseline)
    : graph_(&g),
      weights_(&w),
      shared_(baseline),
      mask_(g),
      bfs_(g),
      dijkstra_(g, w),
      region_stamp_(g.num_vertices(), 0),
      key_(g.num_vertices(), kUnreachable),
      parent_(g.num_vertices(), kInvalidVertex),
      parent_edge_(g.num_vertices(), kInvalidEdge) {}

const SelectorBaseline& PathSelector::baseline(Vertex s) {
  if (shared_ != nullptr && shared_->source() == s) return *shared_;
  if (own_ == nullptr || own_->source() != s) {
    own_ = std::make_unique<SelectorBaseline>(*graph_, *weights_, s);
  }
  return *own_;
}

PathSelector::Route PathSelector::route(const SelectorBaseline& b, Vertex t) {
  FTBFS_EXPECTS(t < graph_->num_vertices());
  const TreeIndex& idx = b.index();
  if (mask_.vertex_blocked(b.source()) || mask_.vertex_blocked(t) ||
      !idx.reached(t)) {
    return Route::kCutOff;
  }
  // A = the T0 subtrees below blocked tree edges and blocked vertices: exactly
  // the vertices whose T0 root path the mask cuts. Everything else keeps its
  // T0 distance and path, because removing things never shortens a path.
  roots_.clear();
  for (const EdgeId e : mask_.blocked_edges()) {
    if (b.edge_child(e) != kInvalidVertex) roots_.push_back(b.edge_child(e));
  }
  for (const Vertex v : mask_.blocked_vertices()) {
    if (idx.reached(v)) roots_.push_back(v);
  }
  std::sort(roots_.begin(), roots_.end(), [&idx](Vertex a, Vertex c) {
    return idx.preorder_index(a) < idx.preorder_index(c);
  });
  // Subtrees are preorder slices, so a root inside the previous kept slice is
  // nested in it; keep the maximal ones.
  std::size_t kept = 0;
  std::uint32_t end = 0;
  std::uint64_t size = 0;
  bool cut = false;
  region_height_ = 0;
  const std::uint32_t t_pre = idx.preorder_index(t);
  for (const Vertex r : roots_) {
    const std::uint32_t pre = idx.preorder_index(r);
    if (kept > 0 && pre < end) continue;
    roots_[kept++] = r;
    end = pre + idx.subtree_size(r);
    size += idx.subtree_size(r);
    cut = cut || (pre <= t_pre && t_pre < end);
    region_height_ = std::max(region_height_, b.subtree_height(r));
  }
  roots_.resize(kept);
  if (!cut) return Route::kBaseline;
  // Repair costs up to |A|; an early-exit search from s at least the ball of
  // radius d0(t). Both are known before either runs.
  return size > b.ball_size(idx.depth(t)) ? Route::kSearch : Route::kRepair;
}

std::uint32_t PathSelector::begin_region(const SelectorBaseline& b) {
  if (++region_epoch_ == 0) {
    std::fill(region_stamp_.begin(), region_stamp_.end(), 0);
    region_epoch_ = 1;
  }
  for (std::vector<Vertex>& bucket : buckets_) bucket.clear();
  next_level_.clear();
  std::uint32_t first = kInfHops;
  for (const Vertex r : roots_) first = std::min(first, b.index().depth(r));
  stamp_level(b, first);
  return first;
}

void PathSelector::advance_level(const SelectorBaseline& b, std::uint32_t d) {
  level_.swap(next_level_);
  next_level_.clear();
  if (d < region_height_) stamp_level(b, d + 1);
}

void PathSelector::stamp_level(const SelectorBaseline& b, std::uint32_t level) {
  for (const Vertex r : roots_) {
    for (const Vertex x : b.subtree_level(r, level)) {
      region_stamp_[x] = region_epoch_;
      key_[x] = kUnreachable;
      next_level_.push_back(x);
    }
  }
}

// Dial's pass over A by levels. A vertex of A is entered from outside A only
// through a usable arc from a vertex that keeps its T0 distance, and it is
// never closer than its T0 depth; so the seeds of level d are due when bucket
// d is reached and not before, and every neighbor of level d is stamped by
// then. Buckets d, d + 1 and d + 2 are the only live ones: a ring of three.
std::uint32_t PathSelector::repair_hops(const SelectorBaseline& b, Vertex t) {
  const Graph& g = *graph_;
  const SpResult& t0 = b.tree();
  for (std::uint32_t d = begin_region(b);; ++d) {
    advance_level(b, d);
    for (const Vertex x : level_) {
      if (mask_.vertex_blocked(x)) continue;
      std::uint32_t best = key_[x].hops;
      for (const Arc& arc : g.neighbors(x)) {
        if (in_region(arc.to)) continue;
        const std::uint32_t du = t0.dist[arc.to].hops;
        if (du == kInfHops || du + 1 >= best || mask_.edge_blocked(arc.id)) {
          continue;
        }
        best = du + 1;
      }
      if (best < key_[x].hops) {
        key_[x].hops = best;
        buckets_[best % 3].push_back(x);
      }
    }
    // Every vertex closer than d + 1 holds its exact distance now, so a key
    // of d + 1 is exact as well; so is the first relaxation to reach t below.
    // Either way every vertex closer than t is final when the probe returns.
    if (in_region(t) && key_[t].hops <= d + 1) return key_[t].hops;
    std::vector<Vertex>& bucket = buckets_[d % 3];
    for (const Vertex x : bucket) {
      if (key_[x].hops != d) continue;  // superseded by a closer seed
      for (const Arc& arc : g.neighbors(x)) {
        const Vertex y = arc.to;
        if (!in_region(y) || key_[y].hops <= d + 1 ||
            mask_.arc_blocked(arc.id, y)) {
          continue;
        }
        key_[y].hops = d + 1;
        if (y == t) return d + 1;
        buckets_[(d + 1) % 3].push_back(y);
      }
    }
    bucket.clear();
    if (d >= region_height_ && buckets_[(d + 1) % 3].empty() &&
        buckets_[(d + 2) % 3].empty()) {
      return kInfHops;
    }
  }
}

// The same pass with W keys. Candidates compare by (hops, perturbation sum,
// predecessor perturbation) and replace only on strict improvement — the rule
// of Dijkstra::run — so every parent inside A is the one a full sweep of the
// masked graph picks, and outside A the T0 parent already is.
std::optional<RPath> PathSelector::repair_path(const SelectorBaseline& b,
                                               Vertex t) {
  const Graph& g = *graph_;
  const WeightAssignment& w = *weights_;
  const SpResult& t0 = b.tree();
  const auto pert_of = [&](Vertex p) {
    return in_region(p) ? key_[p].pert : t0.dist[p].pert;
  };
  for (std::uint32_t d = begin_region(b);; ++d) {
    advance_level(b, d);
    for (const Vertex x : level_) {
      if (mask_.vertex_blocked(x)) continue;
      DistKey& kx = key_[x];
      const std::uint32_t hops_before = kx.hops;
      for (const Arc& arc : g.neighbors(x)) {
        const Vertex u = arc.to;
        if (in_region(u)) continue;
        const DistKey& du = t0.dist[u];
        if (du.hops == kInfHops || du.hops + 1 > kx.hops ||
            mask_.edge_blocked(arc.id)) {
          continue;
        }
        const DistKey cand = w.extend(du, arc.id);
        if (cand > kx || (cand == kx && du.pert >= pert_of(parent_[x]))) {
          continue;
        }
        kx = cand;
        parent_[x] = u;
        parent_edge_[x] = arc.id;
      }
      if (kx.hops < hops_before) buckets_[kx.hops % 3].push_back(x);
    }
    if (in_region(t) && key_[t].hops == d) break;  // t and its path are final
    std::vector<Vertex>& bucket = buckets_[d % 3];
    for (const Vertex x : bucket) {
      if (key_[x].hops != d) continue;  // superseded by a closer seed
      const std::uint64_t px = key_[x].pert;
      for (const Arc& arc : g.neighbors(x)) {
        const Vertex y = arc.to;
        if (!in_region(y)) continue;
        DistKey& ky = key_[y];
        if (ky.hops <= d || mask_.arc_blocked(arc.id, y)) continue;
        const std::uint64_t cand = px + w.perturbation(arc.id);
        if (ky.hops != d + 1) {
          ky.hops = d + 1;
          buckets_[(d + 1) % 3].push_back(y);
        } else if (cand > ky.pert ||
                   (cand == ky.pert && px >= pert_of(parent_[y]))) {
          continue;
        }
        ky.pert = cand;
        parent_[y] = x;
        parent_edge_[y] = arc.id;
      }
    }
    bucket.clear();
    if (d >= region_height_ && buckets_[(d + 1) % 3].empty() &&
        buckets_[(d + 2) % 3].empty()) {
      return std::nullopt;
    }
  }
  // Inside A follow the repaired parents; the first vertex outside A keeps
  // its T0 root path.
  RPath out;
  out.key = key_[t];
  Vertex cur = t;
  for (; in_region(cur); cur = parent_[cur]) out.verts.push_back(cur);
  for (; cur != kInvalidVertex; cur = t0.parent[cur]) out.verts.push_back(cur);
  std::reverse(out.verts.begin(), out.verts.end());
  return out;
}

std::uint32_t PathSelector::hop_distance(Vertex s, Vertex t) {
  ++bfs_runs_;
  const SelectorBaseline& b = baseline(s);
  probe_ = Probe::kNone;
  probe_base_ = &b;
  switch (route(b, t)) {
    case Route::kCutOff:
      ++kernels_.probe_baseline;
      return kInfHops;
    case Route::kBaseline:
      ++kernels_.probe_baseline;
      return b.tree().dist[t].hops;
    case Route::kRepair:
      ++kernels_.probe_repair;
      probe_ = Probe::kRepair;
      return repair_hops(b, t);
    case Route::kSearch:
      break;
  }
  ++kernels_.probe_search;
  probe_ = Probe::kSearch;
  return bfs_.run_until(s, std::span<const Vertex>(&t, 1), &mask_).hops[t];
}

std::uint32_t PathSelector::probed_hops(Vertex u) const {
  FTBFS_EXPECTS(probe_ != Probe::kNone);
  if (probe_ == Probe::kSearch) return bfs_.result().hops[u];
  // Unstamped vertices of A lie at least two levels below where the pass
  // stopped, so their T0 depth already exceeds the probed distance.
  return in_region(u) ? key_[u].hops : probe_base_->tree().dist[u].hops;
}

std::optional<RPath> PathSelector::w_path(Vertex s, Vertex t) {
  ++dijkstra_runs_;
  const SelectorBaseline& b = baseline(s);
  probe_ = Probe::kNone;
  switch (route(b, t)) {
    case Route::kCutOff:
      ++kernels_.sweep_baseline;
      return std::nullopt;
    case Route::kBaseline:
      ++kernels_.sweep_baseline;
      return RPath{extract_path(b.tree(), t), b.tree().dist[t]};
    case Route::kRepair:
      ++kernels_.sweep_repair;
      return repair_path(b, t);
    case Route::kSearch:
      break;
  }
  ++kernels_.sweep_search;
  const SpResult& r = dijkstra_.run(s, &mask_, t);
  if (!r.reached(t)) return std::nullopt;
  return RPath{extract_path(r, t), r.dist[t]};
}

bool reaches_through_kept_edge(const PathSelector& sel, Vertex v,
                               std::span<const EdgeId> kept,
                               std::uint32_t target) {
  FTBFS_EXPECTS(target != kInfHops && target > 0);
  const Graph& g = sel.graph();
  const GraphMask& m = sel.mask();
  for (const EdgeId e : kept) {
    const Edge& ed = g.edge(e);
    FTBFS_EXPECTS(ed.u == v || ed.v == v);
    const Vertex u = ed.u == v ? ed.v : ed.u;
    if (m.edge_blocked(e) || m.vertex_blocked(u)) continue;
    if (sel.probed_hops(u) == target - 1) return true;
  }
  return false;
}

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
