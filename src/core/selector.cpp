#include "core/selector.h"

#include <algorithm>

#include "core/build_parallel.h"

namespace ftbfs {
namespace {

// The backward pass's gate (docs/perf.md, "Goal-directed single-target
// passes" and "Goal-directed step-1 batches"): a single-target call runs it
// when the caller's bound is at most kBackwardSlack hops above the target's
// T0 depth, unless it gave up kBackwardStreak times in a row for the same
// target below the same cut subtree; every pass gives up once it has
// expanded |A| / kBackwardShare vertices of the cut region A.
constexpr std::uint32_t kBackwardSlack = 2;
constexpr std::uint64_t kBackwardShare = 16;
constexpr std::uint32_t kBackwardStreak = 4;

}  // namespace

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
      to_target_(g.num_vertices(), kInfHops),
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

void PathSelector::find_region(const SelectorBaseline& b) {
  const TreeIndex& idx = b.index();
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
  region_size_ = 0;
  region_height_ = 0;
  for (const Vertex r : roots_) {
    const std::uint32_t pre = idx.preorder_index(r);
    if (kept > 0 && pre < end) continue;
    roots_[kept++] = r;
    end = pre + idx.subtree_size(r);
    region_size_ += idx.subtree_size(r);
    region_height_ = std::max(region_height_, b.subtree_height(r));
  }
  roots_.resize(kept);
}

PathSelector::Route PathSelector::route(const SelectorBaseline& b, Vertex t) {
  FTBFS_EXPECTS(t < graph_->num_vertices());
  const TreeIndex& idx = b.index();
  if (mask_.vertex_blocked(b.source()) || mask_.vertex_blocked(t) ||
      !idx.reached(t)) {
    return Route::kCutOff;
  }
  find_region(b);
  return cut_root(idx, t) != kInvalidVertex ? Route::kCut : Route::kBaseline;
}

Vertex PathSelector::cut_root(const TreeIndex& idx, Vertex x) const {
  // The maximal roots are disjoint preorder slices in order: only the last
  // one starting at or before x can hold it. Unreached vertices have the
  // largest preorder index and lie past every slice.
  const std::uint32_t pre = idx.preorder_index(x);
  const auto after = std::upper_bound(
      roots_.begin(), roots_.end(), pre,
      [&idx](std::uint32_t p, Vertex r) { return p < idx.preorder_index(r); });
  if (after == roots_.begin()) return kInvalidVertex;
  const Vertex r = *(after - 1);
  return pre < idx.preorder_index(r) + idx.subtree_size(r) ? r
                                                           : kInvalidVertex;
}

void PathSelector::fresh_stamps() {
  if (++region_epoch_ == 0) {
    std::fill(region_stamp_.begin(), region_stamp_.end(), 0);
    region_epoch_ = 1;
  }
}

std::uint32_t PathSelector::begin_region(const SelectorBaseline& b) {
  fresh_stamps();
  for (std::vector<Vertex>& bucket : buckets_) bucket.clear();
  next_level_.clear();
  last_level_ = region_height_;
  std::uint32_t first = kInfHops;
  for (const Vertex r : roots_) first = std::min(first, b.index().depth(r));
  stamp_level(b, first);
  return first;
}

std::uint32_t PathSelector::begin_explored(const SelectorBaseline& b) {
  const TreeIndex& idx = b.index();
  std::sort(explored_.begin(), explored_.end(), [&idx](Vertex x, Vertex y) {
    return idx.depth(x) < idx.depth(y);
  });
  for (std::vector<Vertex>& bucket : buckets_) bucket.clear();
  explored_next_ = 0;
  last_level_ = idx.depth(explored_.back());
  return idx.depth(explored_.front());
}

void PathSelector::advance_explored(const SelectorBaseline& b,
                                    std::uint32_t d) {
  level_.clear();
  for (; explored_next_ < explored_.size() &&
         b.index().depth(explored_[explored_next_]) == d;
       ++explored_next_) {
    level_.push_back(explored_[explored_next_]);
  }
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
//
// Over the explored set of a backward pass the same holds level by level:
// its vertices are stamped up front, a neighbour outside it seeds only when
// it lies outside A, and a seed or relaxation never goes below T0 depth.
template <bool kExplored>
void PathSelector::repair_hops(const SelectorBaseline& b, Vertex t,
                               std::uint32_t stop) {
  const Graph& g = *graph_;
  const SpResult& t0 = b.tree();
  const auto outside = [&](Vertex u) {
    return !in_region(u) &&
           (!kExplored || cut_root(b.index(), u) == kInvalidVertex);
  };
  for (std::uint32_t d = kExplored ? begin_explored(b) : begin_region(b);;
       ++d) {
    if constexpr (kExplored) {
      advance_explored(b, d);
    } else {
      advance_level(b, d);
    }
    for (const Vertex x : level_) {
      if (mask_.vertex_blocked(x)) continue;
      std::uint32_t best = key_[x].hops;
      for (const Arc& arc : g.neighbors(x)) {
        if (!outside(arc.to)) continue;
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
    if (d >= stop ||
        (t != kInvalidVertex && in_region(t) && key_[t].hops <= d + 1)) {
      return;
    }
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
        if (y == t) return;
        buckets_[(d + 1) % 3].push_back(y);
      }
    }
    bucket.clear();
    if (d >= last_level_ && buckets_[(d + 1) % 3].empty() &&
        buckets_[(d + 2) % 3].empty()) {
      return;
    }
  }
}

// The same pass with W keys. Candidates compare by (hops, perturbation sum,
// predecessor perturbation) and replace only on strict improvement — the rule
// of Dijkstra::run — so every parent inside A is the one a full sweep of the
// masked graph picks, and outside A the T0 parent already is. A key and its
// parent are final once the seeds of its level are in.
template <bool kExplored>
void PathSelector::repair_sweep(const SelectorBaseline& b, Vertex t,
                                std::uint32_t stop) {
  const Graph& g = *graph_;
  const WeightAssignment& w = *weights_;
  const SpResult& t0 = b.tree();
  const auto pert_of = [&](Vertex p) {
    return in_region(p) ? key_[p].pert : t0.dist[p].pert;
  };
  const auto outside = [&](Vertex u) {
    return !in_region(u) &&
           (!kExplored || cut_root(b.index(), u) == kInvalidVertex);
  };
  for (std::uint32_t d = kExplored ? begin_explored(b) : begin_region(b);;
       ++d) {
    if constexpr (kExplored) {
      advance_explored(b, d);
    } else {
      advance_level(b, d);
    }
    for (const Vertex x : level_) {
      if (mask_.vertex_blocked(x)) continue;
      DistKey& kx = key_[x];
      const std::uint32_t hops_before = kx.hops;
      for (const Arc& arc : g.neighbors(x)) {
        const Vertex u = arc.to;
        if (!outside(u)) continue;
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
    if (d >= stop ||
        (t != kInvalidVertex && in_region(t) && key_[t].hops == d)) {
      return;
    }
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
    if (d >= last_level_ && buckets_[(d + 1) % 3].empty() &&
        buckets_[(d + 2) % 3].empty()) {
      return;
    }
  }
}

std::uint32_t PathSelector::hop_distance(Vertex s, Vertex t,
                                         HopBounds bounds) {
  const SelectorBaseline& b = baseline(s);
  probe_ = Probe::kNone;
  switch (route(b, t)) {
    case Route::kCutOff:
      ++bfs_runs_;
      ++kernels_.probe_baseline;
      return kInfHops;
    case Route::kBaseline: {
      ++bfs_runs_;
      ++kernels_.probe_baseline;
      const std::uint32_t d = b.tree().dist[t].hops;
      return d <= bounds.at_most ? d : kInfHops;
    }
    case Route::kCut:
      break;
  }
  if (!search_back_one(b, t, bounds, false)) {
    probe_region(b, std::span<const Vertex>(&t, 1), bounds.at_most);
  }
  const std::uint32_t d = probed_hops(t);
  return d <= bounds.at_most ? d : kInfHops;
}

std::uint32_t PathSelector::probed_hops(Vertex u) const {
  FTBFS_EXPECTS(probe_ != Probe::kNone);
  if (probe_ == Probe::kSearch) return bfs_.result().hops[u];
  // A repair leaves unstamped only the vertices of A at least two levels
  // below where it stopped, whose T0 depth already exceeds the probed
  // distance; a backward pass stamps every such neighbour of its target.
  return in_region(u) ? key_[u].hops : pass_base_->tree().dist[u].hops;
}

std::optional<RPath> PathSelector::w_path(Vertex s, Vertex t,
                                          HopBounds bounds) {
  const SelectorBaseline& b = baseline(s);
  probe_ = Probe::kNone;
  switch (route(b, t)) {
    case Route::kCutOff:
      ++dijkstra_runs_;
      ++kernels_.sweep_baseline;
      return std::nullopt;
    case Route::kBaseline:
      ++dijkstra_runs_;
      ++kernels_.sweep_baseline;
      if (b.tree().dist[t].hops > bounds.at_most) return std::nullopt;
      return RPath{extract_path(b.tree(), t), b.tree().dist[t]};
    case Route::kCut:
      break;
  }
  if (!search_back_one(b, t, bounds, true)) {
    sweep_region(b, std::span<const Vertex>(&t, 1), t, bounds.at_most);
  }
  RPath out;
  out.key = swept_key(t);
  if (out.key == kUnreachable || out.key.hops > bounds.at_most) {
    return std::nullopt;
  }
  for (Vertex cur = t; cur != kInvalidVertex; cur = swept_parent(cur)) {
    out.verts.push_back(cur);
  }
  std::reverse(out.verts.begin(), out.verts.end());
  return out;
}

bool PathSelector::search_back_one(const SelectorBaseline& b, Vertex t,
                                   HopBounds bounds, bool weighted) {
  const std::uint32_t bound =
      bounds.at_most != kInfHops ? bounds.at_most : bounds.at_least;
  if (bound == 0 || bound > b.index().depth(t) + kBackwardSlack ||
      region_size_ < kBackwardShare) {
    return false;
  }
  // Where the cut region's shape makes the pass give up (a grid, whose T0
  // depth is tight across the whole rectangle from s to t), it does so for
  // every fault the caller tries below the same subtree: a run of give-ups
  // for this target and subtree stops the tries until either changes.
  const Vertex t_root = cut_root(b.index(), t);
  if (t != streak_target_ || t_root != streak_root_) {
    streak_target_ = t;
    streak_root_ = t_root;
    streak_ = 0;
  }
  if (streak_ >= kBackwardStreak) return false;
  if (!search_back(b, std::span<const Vertex>(&t, 1),
                   std::span<const std::uint32_t>(&bounds.at_most, 1),
                   weighted)) {
    ++streak_;
    return false;
  }
  streak_ = 0;
  return true;
}

// Every s→v path of G ∖ mask that is shortest has a shortest twin that
// follows T0 to the last vertex u outside A — u's root path survives the
// mask and is W-minimal in G — and then runs inside A. T0 depth is a lower
// bound on the distance to s that changes by at most one across an edge and
// is exact outside A. With top the largest budget, h(x) = min over targets
// v of hops(x, v) + top − budget(v) is a multi-source distance whose source
// v starts at top − budget(v), so f(x) = depth(x) + h(x), expanded in
// buckets of f with each target let in when f reaches its own key, is a
// consistent A* order toward s: a vertex is expanded with its least h, and
// every vertex of A on a twin for v within budget(v) has f <= top. Each
// uncut neighbour u of an expanded x closes a path, depth(u) + 1 + h(x) on
// the same scale; for one target (whose shift is 0) the least of them is
// its distance, and for several, whose budgets are at most their distances,
// none is below top. Once f passes both, every vertex of A on such a
// shortest path is explored, and the forward pass seeded from the uncut
// neighbours settles it — and, by induction on hops, the W key and parent
// of each such vertex, whose every shortest-path predecessor is explored or
// keeps its T0 key.
bool PathSelector::search_back(const SelectorBaseline& b,
                               std::span<const Vertex> targets,
                               std::span<const std::uint32_t> budgets,
                               bool weighted) {
  FTBFS_EXPECTS(!targets.empty() && targets.size() == budgets.size());
  // Every target within its budget is expanded: a batch larger than the
  // give-up point would only reach it.
  const std::uint64_t cap = region_size_ / kBackwardShare;
  if (targets.size() > cap) return false;
  const TreeIndex& idx = b.index();
  const std::uint32_t top = *std::max_element(budgets.begin(), budgets.end());
  fresh_stamps();
  for (std::vector<Vertex>& bucket : buckets_) bucket.clear();
  explored_.clear();
  // A reached vertex of A is stamped, with its shifted hops h so far. The
  // targets are stamped up front, so one never let in reads as unreachable.
  const auto reach = [&](Vertex x, std::uint32_t h) {
    region_stamp_[x] = region_epoch_;
    key_[x] = kUnreachable;
    to_target_[x] = h;
  };
  seeds_.clear();
  for (std::size_t j = 0; j < targets.size(); ++j) {
    const std::uint32_t shift = top - budgets[j];
    reach(targets[j], shift);
    seeds_.emplace_back(idx.depth(targets[j]) + shift, targets[j]);
  }
  std::sort(seeds_.begin(), seeds_.end());
  const Graph& g = *graph_;
  std::uint32_t best = kInfHops;  // the shortest path closed so far
  std::size_t next_seed = 0;
  for (std::uint32_t f = seeds_.front().first; f <= std::min(best, top);
       ++f) {
    std::vector<Vertex>& bucket = buckets_[f % 3];
    for (; next_seed < seeds_.size() && seeds_[next_seed].first == f;
         ++next_seed) {
      bucket.push_back(seeds_[next_seed].second);
    }
    // Indexed: a neighbour reached at equal f joins this bucket.
    for (std::size_t k = 0; k < bucket.size(); ++k) {
      const Vertex x = bucket[k];
      const std::uint32_t hx = to_target_[x];
      if (idx.depth(x) + hx != f) continue;  // superseded by fewer hops
      if (explored_.size() >= cap) {
        ++kernels_.backward_abandoned;
        kernels_.backward_vertices += explored_.size();
        return false;
      }
      explored_.push_back(x);
      for (const Arc& arc : g.neighbors(x)) {
        const Vertex y = arc.to;
        if (mask_.edge_blocked(arc.id)) continue;
        if (in_region(y)) {
          if (to_target_[y] > hx + 1) {
            to_target_[y] = hx + 1;
            buckets_[(idx.depth(y) + hx + 1) % 3].push_back(y);
          }
        } else if (cut_root(idx, y) != kInvalidVertex) {
          if (!mask_.vertex_blocked(y)) {
            reach(y, hx + 1);
            buckets_[(idx.depth(y) + hx + 1) % 3].push_back(y);
          }
        } else if (idx.reached(y)) {
          best = std::min(best, idx.depth(y) + 1 + hx);
        }
      }
    }
    bucket.clear();
    if (next_seed == seeds_.size() && buckets_[(f + 1) % 3].empty() &&
        buckets_[(f + 2) % 3].empty()) {
      break;
    }
  }
  kernels_.backward_vertices += explored_.size();
  pass_base_ = &b;
  if (weighted) {
    ++dijkstra_runs_;
    ++kernels_.sweep_backward;
    probe_ = Probe::kNone;
    swept_by_search_ = false;
  } else {
    ++bfs_runs_;
    ++kernels_.probe_backward;
    probe_ = Probe::kStamped;
  }
  // No target within its budget: each keeps the unreachable key it was given.
  if (best > top) return true;
  const Vertex t = targets.size() == 1 ? targets.front() : kInvalidVertex;
  if (weighted) {
    repair_sweep<true>(b, t, best);
  } else {
    repair_hops<true>(b, t, best);
  }
  return true;
}

bool PathSelector::search_cheaper(const SelectorBaseline& b,
                                  std::span<const Vertex> targets,
                                  std::uint32_t stop) const {
  const std::uint32_t level = stop == kInfHops && targets.size() == 1
                                  ? b.index().depth(targets.front())
                                  : stop;
  return region_size_ > b.ball_size(level);
}

void PathSelector::probe_region(const SelectorBaseline& b,
                                std::span<const Vertex> targets,
                                std::uint32_t stop) {
  FTBFS_EXPECTS(!targets.empty());
  ++bfs_runs_;
  pass_base_ = &b;
  if (search_cheaper(b, targets, stop)) {
    ++kernels_.probe_search;
    probe_ = Probe::kSearch;
    (void)bfs_.run_until(b.source(), targets, &mask_);
    return;
  }
  ++kernels_.probe_repair;
  probe_ = Probe::kStamped;
  repair_hops<false>(
      b, targets.size() == 1 ? targets.front() : kInvalidVertex, stop);
}

void PathSelector::sweep_region(const SelectorBaseline& b,
                                std::span<const Vertex> targets,
                                Vertex deepest, std::uint32_t stop) {
  FTBFS_EXPECTS(!targets.empty());
  ++dijkstra_runs_;
  pass_base_ = &b;
  probe_ = Probe::kNone;  // a sweep overwrites the probe's keys
  swept_by_search_ = search_cheaper(b, targets, stop);
  if (swept_by_search_) {
    ++kernels_.sweep_search;
    (void)dijkstra_.run(b.source(), &mask_, deepest);
    return;
  }
  ++kernels_.sweep_repair;
  repair_sweep<false>(
      b, targets.size() == 1 ? targets.front() : kInvalidVertex, stop);
}

// Inside A the repaired keys and parents; outside A, T0's.
DistKey PathSelector::swept_key(Vertex x) const {
  if (swept_by_search_) return dijkstra_.result().dist[x];
  return in_region(x) ? key_[x] : pass_base_->tree().dist[x];
}

Vertex PathSelector::swept_parent(Vertex x) const {
  if (swept_by_search_) return dijkstra_.result().parent[x];
  return in_region(x) ? parent_[x] : pass_base_->tree().parent[x];
}

EdgeId PathSelector::swept_parent_edge(Vertex x) const {
  if (swept_by_search_) return dijkstra_.result().parent_edge[x];
  return in_region(x) ? parent_edge_[x] : pass_base_->tree().parent_edge[x];
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

bool satisfied_in_t0(const Graph& g, const SelectorBaseline& b, Vertex v,
                     std::span<const EdgeId> kept, EdgeId e, EdgeId t,
                     std::uint32_t single_fault_hops,
                     std::uint32_t unkept_floor, bool strict) {
  const Vertex below_e = b.edge_child(e);
  const Vertex below_t = t == kInvalidEdge ? kInvalidVertex : b.edge_child(t);
  FTBFS_EXPECTS(below_e != kInvalidVertex);
  const TreeIndex& idx = b.index();
  for (const EdgeId a : kept) {
    if (a == e || a == t) continue;
    const Edge& ed = g.edge(a);
    FTBFS_EXPECTS(ed.u == v || ed.v == v);
    const Vertex u = ed.u == v ? ed.v : ed.u;
    if (!idx.reached(u)) continue;
    const std::uint32_t d = idx.depth(u);
    const bool shallow_enough =
        strict ? d < unkept_floor
               : d <= unkept_floor || d + 1 == single_fault_hops;
    if (shallow_enough && !idx.ancestor_of(below_e, u) &&
        (below_t == kInvalidVertex || !idx.ancestor_of(below_t, u))) {
      return true;
    }
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

SingleFaultBatch& PathSelector::select_below(
    const SelectorBaseline& b, EdgeId e, std::span<const Vertex> targets) {
  const TreeIndex& idx = b.index();
  const Vertex c = b.edge_child(e);
  FTBFS_EXPECTS(c != kInvalidVertex && !targets.empty());
  const std::uint32_t i = idx.depth(c) - 1;
  batch_ = SingleFaultBatch{};
  SingleFaultBatch& out = batch_;
  Path pi(std::size_t{i} + 2);  // π[0 .. i+1], the root path of c
  Vertex up = c;
  for (std::size_t j = pi.size(); j-- > 0; up = idx.parent(up)) pi[j] = up;
  // G(u_k, u_i) ∖ {e}: π positions [k+1 .. i] removed (none when k == i).
  const auto restrict_to = [&](std::uint32_t k) {
    mask_.clear();
    mask_.block_edge(e);
    block_pi_segment(mask_, pi, k, i);
    find_region(b);
  };

  // Target distances dist(s, v, G ∖ {e}): one probe for all of them.
  restrict_to(i);
  probe_region(b, targets, kInfHops);
  struct BatchItem {
    Vertex v;
    std::uint32_t choice;  // index into out.choices
    std::uint32_t target;  // dist(s, v, G ∖ {e})
    std::uint32_t lo, hi;  // binary search over k; hi is feasible
  };
  std::vector<BatchItem> items;
  out.choices.reserve(targets.size());
  for (const Vertex v : targets) {
    FTBFS_EXPECTS(idx.ancestor_of(c, v));
    const auto choice = static_cast<std::uint32_t>(out.choices.size());
    out.choices.push_back(SingleFaultChoice{.target = v});
    const std::uint32_t target = probed_hops(v);
    if (target != kInfHops) items.push_back({v, choice, target, 0, i});
  }

  // A pass serves a run [first, last) of items: group lists their targets
  // and `budgets` their distances, `stop` is the farthest of them, `deepest`
  // a target at that distance. Every graph a pass asks about lies inside
  // G ∖ {e}, so no target is closer than its distance there, and the pass
  // asks only whether it is still at it: it searches backward from the
  // targets first, and repairs (or searches from the source) if that gives
  // up.
  std::vector<Vertex> group;
  std::vector<std::uint32_t> budgets;
  const auto serve = [&](auto first, auto last, bool weighted) {
    group.clear();
    budgets.clear();
    std::uint32_t stop = 0;
    Vertex deepest = kInvalidVertex;
    for (auto it = first; it != last; ++it) {
      group.push_back(it->v);
      budgets.push_back(it->target);
      if (it->target >= stop) {
        stop = it->target;
        deepest = it->v;
      }
    }
    if (search_back(b, group, budgets, weighted)) return;
    if (weighted) {
      sweep_region(b, group, deepest, stop);
    } else {
      probe_region(b, group, stop);
    }
  };
  // The selected path of `it` is the W-unique shortest path in
  // G(u_k0, u_i) ∖ {e}, read off the parents of the sweep of k0. Walking up
  // from v, the path follows T0 through π(y, v); the first step off T0
  // enters the detour, which ends at the first vertex on π(s, v) again, x.
  // x lies above the removed segment, outside the cut region, so the rest is
  // π(s, x) (Claim 3.4).
  const auto read_path = [&](const BatchItem& it, std::uint32_t k0) {
    const Vertex v = it.v;
    FTBFS_ENSURES(swept_key(v).hops == it.target);
    Vertex y = v;
    while (y != c && swept_parent(y) == idx.parent(y)) y = swept_parent(y);
    FTBFS_ENSURES(swept_parent(y) != idx.parent(y));
    SingleFaultChoice& ch = out.choices[it.choice];
    ch.detour_begin = static_cast<std::uint32_t>(out.detour_verts.size());
    out.detour_verts.push_back(y);  // the detour, backwards from y to x
    Vertex x = swept_parent(y);
    for (; !idx.ancestor_of(x, v); x = swept_parent(x)) {
      out.detour_verts.push_back(x);
    }
    out.detour_verts.push_back(x);
    FTBFS_ENSURES(idx.depth(x) <= k0);
    std::reverse(out.detour_verts.begin() + ch.detour_begin,
                 out.detour_verts.end());
    ch.x_pi_index = idx.depth(x);
    ch.y_pi_index = idx.depth(y);
    ch.last_edge = swept_parent_edge(v);
    ch.detour_size =
        static_cast<std::uint32_t>(out.detour_verts.size() - ch.detour_begin);
  };

  // k0 is the minimal k with dist(s, v, G(u_k, u_i) ∖ {e}) == target(v):
  // feasible at k == i because G(u_i, u_i) = G, and hop-distance is monotone
  // non-increasing in k because G(u_k,·) ⊆ G(u_{k+1},·). Every target tries
  // k = 0 first, in one W-sweep for all of them: where k = 0 is feasible —
  // the common case, and always when i == 0 — it is k0 and the path is read
  // off that same sweep. The others bisect (0, i] with hop probes.
  if (!items.empty()) {
    restrict_to(0);
    serve(items.begin(), items.end(), true);
    for (BatchItem& it : items) {
      if (swept_key(it.v).hops != it.target) continue;
      read_path(it, 0);
      it.hi = 0;
    }
  }
  // All bisections start from the same interval, so one k is asked in one
  // round only, by every target that asks it. Each k is probed once, up to
  // the farthest target distance among its askers: a target is feasible iff
  // its probed distance is exact and equal to its target.
  const auto mid = [](const BatchItem& it) {
    return it.lo + (it.hi - it.lo) / 2;
  };
  for (;;) {
    const auto open = std::partition(
        items.begin(), items.end(),
        [](const BatchItem& it) { return it.lo + 1 < it.hi; });
    if (open == items.begin()) break;
    std::sort(items.begin(), open, [&](const BatchItem& x,
                                         const BatchItem& y) {
      return mid(x) < mid(y);
    });
    for (auto first = items.begin(); first != open;) {
      const std::uint32_t k = mid(*first);
      auto last = first;
      while (last != open && mid(*last) == k) ++last;
      restrict_to(k);
      serve(first, last, false);
      for (auto it = first; it != last; ++it) {
        (probed_hops(it->v) == it->target ? it->hi : it->lo) = k;
      }
      first = last;
    }
  }

  // The remaining paths: one sweep per distinct k0 > 0.
  const auto swept = std::partition(
      items.begin(), items.end(),
      [](const BatchItem& it) { return it.hi == 0; });
  std::sort(swept, items.end(),
            [](const BatchItem& x, const BatchItem& y) { return x.hi < y.hi; });
  for (auto first = swept; first != items.end();) {
    const std::uint32_t k0 = first->hi;
    auto last = first;
    while (last != items.end() && last->hi == k0) ++last;
    restrict_to(k0);
    serve(first, last, true);
    for (auto it = first; it != last; ++it) read_path(*it, k0);
    first = last;
  }
  return out;
}

SingleFaultBatch& select_single_faults_below(PathSelector& sel, Vertex s,
                                             EdgeId e) {
  const SelectorBaseline& b = sel.baseline(s);
  const Vertex c = b.edge_child(e);
  FTBFS_EXPECTS(c != kInvalidVertex);
  return sel.select_below(b, e, b.index().subtree_span(c));
}

std::optional<SingleFaultSelection> select_single_fault(
    PathSelector& sel, const Path& pi, const VertexIndexMap& pi_pos,
    std::size_t i) {
  FTBFS_EXPECTS(pi.size() >= 2);
  FTBFS_EXPECTS(i + 1 < pi.size());
  const Vertex v = pi.back();
  FTBFS_EXPECTS(pi_pos.pos(v) + 1 == pi.size());
  const SelectorBaseline& b = sel.baseline(pi.front());
  const TreeIndex& idx = b.index();
  // The batch reads π(s, v) off T0, so π must be v's T0 root path.
  for (std::size_t j = 1; j < pi.size(); ++j) {
    FTBFS_EXPECTS(idx.parent(pi[j]) == pi[j - 1]);
  }
  const SingleFaultBatch& batch = sel.select_below(
      b, idx.parent_edge(pi[i + 1]), std::span<const Vertex>(&v, 1));
  const SingleFaultChoice& choice = batch.choices.front();
  if (!choice.connected()) return std::nullopt;
  const std::span<const Vertex> detour = batch.detour(choice);
  SingleFaultSelection out;
  out.detour.assign(detour.begin(), detour.end());
  out.x_pi_index = choice.x_pi_index;
  out.y_pi_index = choice.y_pi_index;
  out.x = pi[out.x_pi_index];
  out.y = pi[out.y_pi_index];
  out.path.assign(pi.begin(), pi.begin() + out.x_pi_index);
  out.path.insert(out.path.end(), detour.begin(), detour.end());
  out.path.insert(out.path.end(), pi.begin() + out.y_pi_index + 1, pi.end());
  return out;
}

void for_each_single_fault_batch(
    const SelectorBaseline& base, std::span<PathSelector* const> selectors,
    std::atomic<std::uint64_t>* progress,
    const std::function<void(unsigned worker, SingleFaultBatch&)>& sink) {
  FTBFS_EXPECTS(!selectors.empty());
  const TreeIndex& idx = base.index();
  // Tree edges by their child, the largest subtree first: the edges near the
  // root carry most of the targets, so handing them out first keeps the
  // workers' finishing times close (the Bobpp partitioning rule).
  std::vector<Vertex> order(idx.preorder().begin() + 1, idx.preorder().end());
  std::stable_sort(order.begin(), order.end(), [&idx](Vertex a, Vertex c) {
    return idx.subtree_size(a) > idx.subtree_size(c);
  });
  run_claimed(order.size(), static_cast<unsigned>(selectors.size()),
              [&](unsigned worker, std::size_t k) {
                SingleFaultBatch& batch = select_single_faults_below(
                    *selectors[worker], base.source(),
                    idx.parent_edge(order[k]));
                if (progress != nullptr) {
                  progress->fetch_add(batch.choices.size(),
                                      std::memory_order_relaxed);
                }
                sink(worker, batch);
              });
}

}  // namespace ftbfs
