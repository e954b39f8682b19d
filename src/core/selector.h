// Replacement-path *selection* building blocks shared by the construction
// algorithms (single-failure FT-BFS and Cons2FTBFS), and the replacement-path
// engine of the f-failure chain construction (kfail_ftbfs), which blocks each
// fault set on the mask and asks w_path for P_{s,v,F} = SP(s, v, G∖F, W).
//
// The paper's algorithms do not take an arbitrary shortest path in G∖F: they
// take the W-unique shortest path in a carefully restricted graph that forces
// the divergence point from π(s,v) (and, in step 3, from the detour) to be as
// close to s as possible. The restricted graphs are G(u_k, u_l) of Eq. (3) and
// G_D(w_l) of Eq. (4); the minimal feasible divergence index is found by
// binary search, which is sound because the restricted graphs are nested
// (G(u_k,·) ⊆ G(u_{k+1},·)), making hop-distance monotone in the index.
// Step (1)'s graphs G(u_k, u_i) ∖ {e_i} depend only on the tree edge e_i, so
// select_single_faults_below answers every target below e_i in one batch.
//
// Distance *tests* are hop probes (hop counts are what the FT-BFS property is
// about); only the finally selected path is computed with the tie-broken
// W-sweep so that it is the W-unique representative the analysis reasons
// about (a sweep's hop counts are exact too, so step (1) tests k = 0 with the
// sweep that selects there when it is feasible). Every restricted graph is G
// minus a few vertices and edges, so both kernels are fault-local: they start
// from the fault-free tree T0 of the source (SelectorBaseline) and recompute
// only the cut region — the T0 subtrees below the blocked tree edges and
// blocked vertices. A target outside the region keeps its T0 distance and
// root path; otherwise a Dial pass over the region repairs it, unless the
// region is larger than the BFS ball an early-exit search from the source
// would cover, in which case that search runs instead.
//
// A pass whose answers the caller already bounds first tries a goal-directed
// pass: a search backward from its targets through the cut region only,
// ordered by T0 depth plus hops to a target, which ends at the first
// vertices that keep their T0 root path; a forward pass over what it
// explored then gives the exact hops or W keys. A single-target call tries
// it when its HopBounds are close to the target's T0 depth, and step (1)'s
// batches for every pass after the first, which learns the targets'
// distances. It gives up, for the forward passes above, once it has
// explored a fixed share of the region; after a run of give-ups for one
// target below one cut subtree, single-target calls stop trying it there.
// All answers are exact, so the choice never shows in a structure. Scratch
// is O(n + m) per selector, plus the last batch's results; the baseline is
// shared.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <utility>

#include "core/ftbfs_common.h"
#include "graph/graph.h"
#include "graph/mask.h"
#include "spath/bfs.h"
#include "spath/dijkstra.h"
#include "spath/path.h"
#include "spath/tree_index.h"
#include "spath/weights.h"

namespace ftbfs {

// Epoch-stamped vertex → position-on-current-path index. Rebinding is O(|p|),
// lookup O(1); used to answer "is w on π(s,v), and where?" in inner loops.
class VertexIndexMap {
 public:
  explicit VertexIndexMap(Vertex n) : epoch_(n, 0), pos_(n, 0) {}

  void bind(std::span<const Vertex> p) {
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

// The fault-free state of one source that every restricted graph cuts: T0,
// the W-unique SSSP tree of G; its TreeIndex; the tree edge → child map; and
// T0's vertices grouped by depth, in preorder within a depth, so that the part
// of any subtree on one level is a contiguous range. Immutable once built: the
// workers of a parallel build all read one instance.
class SelectorBaseline {
 public:
  SelectorBaseline(const Graph& g, const WeightAssignment& w, Vertex source);

  [[nodiscard]] Vertex source() const { return index_.root(); }
  [[nodiscard]] const SpResult& tree() const { return tree_; }
  [[nodiscard]] const TreeIndex& index() const { return index_; }

  // The child endpoint of tree edge e; kInvalidVertex if e is not in T0.
  [[nodiscard]] Vertex edge_child(EdgeId e) const { return edge_child_[e]; }

  // |B(s, d)|: the number of vertices within d hops of the source.
  [[nodiscard]] std::uint32_t ball_size(std::uint32_t d) const {
    return level_begin_[std::min(std::size_t{d} + 1, level_begin_.size() - 1)];
  }

  // Depth of the deepest vertex in v's subtree (v reached).
  [[nodiscard]] std::uint32_t subtree_height(Vertex v) const {
    return subtree_height_[v];
  }

  // The vertices of v's subtree at depth `level`, in preorder.
  [[nodiscard]] std::span<const Vertex> subtree_level(
      Vertex v, std::uint32_t level) const;

 private:
  SpResult tree_;
  TreeIndex index_;
  std::vector<Vertex> edge_child_;
  std::vector<std::uint32_t> subtree_height_;
  // Level d is [level_begin_[d], level_begin_[d + 1]) of level_vertex_, with
  // the matching preorder positions in level_pre_ (the search key).
  std::vector<std::uint32_t> level_begin_;
  std::vector<Vertex> level_vertex_;
  std::vector<std::uint32_t> level_pre_;
};

// One target's selected path in a batch, in Claim 3.4's compact form: π(s, v)
// is v's T0 root path, so x, y and the path itself follow from the indexes
// and the detour.
struct SingleFaultChoice {
  Vertex target = kInvalidVertex;
  std::uint32_t x_pi_index = 0;
  std::uint32_t y_pi_index = 0;
  EdgeId last_edge = kInvalidEdge;  // kInvalidEdge: e disconnects the target
  std::uint32_t detour_begin = 0;   // into SingleFaultBatch::detour_verts
  std::uint32_t detour_size = 0;    // D's vertices, x and y included

  [[nodiscard]] bool connected() const { return last_edge != kInvalidEdge; }
};

// Step (1) for every target below one tree edge e = (π[i], π[i+1]).
struct SingleFaultBatch {
  std::vector<SingleFaultChoice> choices;   // one per target, in input order
  std::vector<Vertex> detour_verts;         // the choices' detours, concatenated

  [[nodiscard]] std::span<const Vertex> detour(
      const SingleFaultChoice& c) const {
    return {detour_verts.data() + c.detour_begin, c.detour_size};
  }
};

struct SingleFaultSelection;

// What a caller already knows of dist(s, t) under the current mask: it is at
// least `at_least`, and any distance above `at_most` is reported as
// unreachable. Either one, when close to t's T0 depth, lets a single-target
// call search backward from t (see the header comment); neither changes an
// answer within [at_least, at_most].
struct HopBounds {
  std::uint32_t at_least = 0;
  std::uint32_t at_most = kInfHops;
};

// A selected replacement path and its W-key.
struct RPath {
  Path verts;
  DistKey key;
};

// Owns the scratch state (mask + region repair + fallback searches) for path
// selection.
class PathSelector {
 public:
  // `baseline`, if given, is shared and must outlive the selector; it serves
  // the calls for its source. Calls for any other source (or all calls, when
  // none is given) use a baseline the selector builds on first use.
  PathSelector(const Graph& g, const WeightAssignment& w,
               const SelectorBaseline* baseline = nullptr);

  [[nodiscard]] GraphMask& mask() { return mask_; }
  [[nodiscard]] const GraphMask& mask() const { return mask_; }
  [[nodiscard]] const Graph& graph() const { return *graph_; }
  [[nodiscard]] const WeightAssignment& weights() const { return *weights_; }

  // The fault-free baseline of source s (shared or built on first use).
  [[nodiscard]] const SelectorBaseline& baseline(Vertex s);

  // Hop distance s→t under the current mask; kInfHops if cut off or beyond
  // bounds.at_most.
  [[nodiscard]] std::uint32_t hop_distance(Vertex s, Vertex t,
                                           HopBounds bounds = {});

  // After a hop_distance(s, t) that returned a finite distance and searched
  // (always the case when t lies below a blocked tree edge or vertex), and
  // under the same mask, for every unblocked neighbour u of t across an
  // unblocked edge: dist(s, u) exactly if u is closer to s than t, and some
  // value >= dist(s, t) otherwise.
  [[nodiscard]] std::uint32_t probed_hops(Vertex u) const;

  // W-unique shortest path s→t under the current mask; nullopt if cut off or
  // longer than bounds.at_most hops.
  [[nodiscard]] std::optional<RPath> w_path(Vertex s, Vertex t,
                                            HopBounds bounds = {});

  // Full W-SSSP under the current mask; result borrowed until next call.
  [[nodiscard]] const SpResult& w_sssp(Vertex s) {
    ++dijkstra_runs_;
    return dijkstra_.run(s, &mask_, kInvalidVertex);
  }

  [[nodiscard]] std::uint64_t bfs_runs() const { return bfs_runs_; }
  [[nodiscard]] std::uint64_t dijkstra_runs() const { return dijkstra_runs_; }
  [[nodiscard]] const KernelCounts& kernel_counts() const { return kernels_; }

 private:
  friend SingleFaultBatch& select_single_faults_below(PathSelector& sel,
                                                      Vertex s, EdgeId e);
  friend std::optional<SingleFaultSelection> select_single_fault(
      PathSelector& sel, const Path& pi, const VertexIndexMap& pi_pos,
      std::size_t i);

  enum class Route { kCutOff, kBaseline, kCut };
  // Where the last probe's distances are: key_ over the stamped vertices and
  // T0 elsewhere (a repair or backward pass), or the early-exit search.
  enum class Probe { kNone, kStamped, kSearch };

  // Finds the cut region A of the current mask in b: its maximal subtree
  // roots in preorder, |A| and A's deepest level.
  void find_region(const SelectorBaseline& b);
  // find_region, then whether t is cut off, keeps its T0 answer, or lies in A.
  Route route(const SelectorBaseline& b, Vertex t);
  [[nodiscard]] bool in_region(Vertex x) const {
    return region_stamp_[x] == region_epoch_;
  }
  // Invalidates every region stamp.
  void fresh_stamps();
  // Starts a region pass: fresh stamps, empty buckets, and the first level of
  // A stamped. Returns that level.
  std::uint32_t begin_region(const SelectorBaseline& b);
  // Enters level d: the level stamped last (d) becomes current and level
  // d + 1 of A is stamped, so every neighbor of a level-d vertex is known to
  // be in A or not.
  void advance_level(const SelectorBaseline& b, std::uint32_t d);
  // Marks A's vertices on `level` as in the region with key kUnreachable and
  // lists them in next_level_.
  void stamp_level(const SelectorBaseline& b, std::uint32_t level);
  // The Dial passes over A. Each stops once the seeds of level `stop` are in
  // (every vertex at distance <= stop is then final), once its one target t
  // is final (t == kInvalidVertex: no such target), or when A is exhausted.
  // With kExplored, the same passes over the vertices the last backward
  // pass explored instead of over A: its levels come from explored_, and a
  // neighbour outside it seeds only if it is outside A as well.
  template <bool kExplored>
  void repair_hops(const SelectorBaseline& b, Vertex t, std::uint32_t stop);
  template <bool kExplored>
  void repair_sweep(const SelectorBaseline& b, Vertex t, std::uint32_t stop);
  // Starts a pass over explored_: sorted by depth, fresh buckets. Returns its
  // first level; advance_explored(d) then lists level d in level_.
  std::uint32_t begin_explored(const SelectorBaseline& b);
  void advance_explored(const SelectorBaseline& b, std::uint32_t d);

  // The goal-directed pass: searches backward from `targets` — all in A
  // and unblocked — through A, bucketed by T0 depth + hops to a target (a
  // consistent lower bound on the distance of an s→target path through the
  // vertex; hops to target v count from top − budget(v), with top the
  // largest budget, so v joins at key depth(v) + top − budget(v)), to the
  // vertices outside A, whose T0 depth is exact. It stops once that bound passes top or, for one target, the
  // best path found. The explored set then holds every vertex of A on a
  // shortest s→v path of length <= budget(v), and a forward pass over it
  // (`weighted`: with W keys) leaves the same answers a repair would, in the
  // same form: a probe or sweep whose answers the accessors below read. With
  // several targets each budget must be at most that target's distance —
  // its distance in a graph that contains this one — so each answer is
  // exact where it equals the budget, and larger (or unreachable) where it
  // does not. Returns false, having answered nothing, when the targets
  // outnumber |A| / kBackwardShare or once it has expanded that many
  // vertices.
  bool search_back(const SelectorBaseline& b, std::span<const Vertex> targets,
                   std::span<const std::uint32_t> budgets, bool weighted);
  // search_back for one target t in A with budget bounds.at_most, tried
  // first by hop_distance and w_path: only if `bounds` put the answer within
  // kBackwardSlack of t's T0 depth, and not after kBackwardStreak give-ups
  // in a row for t below the same root.
  bool search_back_one(const SelectorBaseline& b, Vertex t, HopBounds bounds,
                       bool weighted);
  // The root in roots_ of the cut subtree that holds x, by x's preorder
  // index; kInvalidVertex if x is outside A.
  [[nodiscard]] Vertex cut_root(const TreeIndex& idx, Vertex x) const;

  // One probe or one sweep of the region found last, serving `targets` — all
  // reached in T0, unblocked and inside A — up to level `stop`; a single
  // target also ends the pass once it is final. Afterwards probed_hops is
  // exact for every target at distance <= stop, and the swept_* accessors
  // hold the final key and parent of every vertex at hops <= stop. `deepest`
  // is a target at the largest distance the sweep serves.
  void probe_region(const SelectorBaseline& b,
                    std::span<const Vertex> targets, std::uint32_t stop);
  void sweep_region(const SelectorBaseline& b,
                    std::span<const Vertex> targets, Vertex deepest,
                    std::uint32_t stop);
  // Repairing A costs up to |A|; an early-exit search from the source at
  // least the ball out to `stop`, or to a single target's T0 depth when its
  // distance is unknown (stop == kInfHops). Both are known before either runs.
  [[nodiscard]] bool search_cheaper(const SelectorBaseline& b,
                                    std::span<const Vertex> targets,
                                    std::uint32_t stop) const;
  [[nodiscard]] DistKey swept_key(Vertex x) const;
  [[nodiscard]] Vertex swept_parent(Vertex x) const;
  [[nodiscard]] EdgeId swept_parent_edge(Vertex x) const;
  // The batch below tree edge e for `targets`, a subset of subtree(child(e)).
  SingleFaultBatch& select_below(const SelectorBaseline& b, EdgeId e,
                                 std::span<const Vertex> targets);

  const Graph* graph_;
  const WeightAssignment* weights_;
  const SelectorBaseline* shared_;
  std::unique_ptr<SelectorBaseline> own_;
  GraphMask mask_;
  Bfs bfs_;
  Dijkstra dijkstra_;

  // Cut-region scratch, valid for the last region pass.
  std::vector<Vertex> roots_;  // maximal cut subtree roots, by preorder
  std::uint64_t region_size_ = 0;    // |A|
  std::uint32_t region_height_ = 0;  // deepest level of A
  std::uint32_t region_epoch_ = 0;
  // == epoch: in A and level stamped, or explored by the backward pass.
  std::vector<std::uint32_t> region_stamp_;
  std::uint32_t last_level_ = 0;  // deepest level of the current pass
  std::vector<Vertex> level_;                // A's vertices on the level d
  std::vector<Vertex> next_level_;           // ... and on level d + 1
  // The backward pass: the vertices it expanded, in order, and their hops
  // to its targets, shifted by budget (what it reached is stamped as the
  // region); its targets by the key at which each is let in.
  std::vector<Vertex> explored_;
  std::size_t explored_next_ = 0;  // the explored level pass's cursor
  std::vector<std::uint32_t> to_target_;
  std::vector<std::pair<std::uint32_t, Vertex>> seeds_;  // (key, target)
  // Consecutive give-ups of the backward pass for one target below one root.
  Vertex streak_target_ = kInvalidVertex;
  Vertex streak_root_ = kInvalidVertex;
  std::uint32_t streak_ = 0;
  std::array<std::vector<Vertex>, 3> buckets_;  // Dial buckets, hops mod 3
  std::vector<DistKey> key_;                 // tentative keys inside A
  std::vector<Vertex> parent_;
  std::vector<EdgeId> parent_edge_;
  const SelectorBaseline* pass_base_ = nullptr;  // of the last probe/sweep
  Probe probe_ = Probe::kNone;
  bool swept_by_search_ = false;  // the last sweep_region searched

  // The last single-fault batch. Each call starts a fresh one, so the
  // buffers of a large batch do not outlive the next call.
  SingleFaultBatch batch_;

  std::uint64_t bfs_runs_ = 0;
  std::uint64_t dijkstra_runs_ = 0;
  KernelCounts kernels_;
};

// Step 3's satisfiability test, decided from the probe that just measured
// target = dist(s, v, G ∖ F) under the current mask (F blocked, nothing else):
// whether dist(s, v, G_{τ−1}(v) ∖ F) = target too, where G_{τ−1}(v) keeps
// only the v-edges in `kept`. True iff some kept v-edge (u, v) ∉ F has
// dist(s, u, G ∖ F) = target − 1: the restriction touches only v's edges, and
// no path of length target − 1 passes through v.
[[nodiscard]] bool reaches_through_kept_edge(const PathSelector& sel, Vertex v,
                                             std::span<const EdgeId> kept,
                                             std::uint32_t target);

// Steps 2 and 3's probe-free test, decided from T0 and v's kept edges, for
// F = {e, t}: e a tree edge above v, t another edge or kInvalidEdge. It looks
// for a kept v-edge (w, v) ∉ F whose w has a T0 root path avoiding F (w
// neither below e nor, if t is a tree edge, below t). That path gives
// dist(s, w, G ∖ F) = depth(w), so dist(s, v, G ∖ F) ≤ depth(w) + 1, while
// every v-neighbour u across an edge not kept has dist(s, u, G ∖ F) ≥
// depth(u) ≥ `unkept_floor`, the least T0 depth among them.
//  - strict = false (step 3): true if depth(w) + 1 = single_fault_hops =
//    dist(s, v, G ∖ {e}), which dist(s, v, G ∖ F) cannot undercut since
//    G ∖ F ⊆ G ∖ {e}; or if depth(w) ≤ unkept_floor, since a shortest path
//    of G ∖ F through an unkept (u, v) has depth(w) ≥ dist(s, u, G ∖ F) ≥
//    floor ≥ depth(w). Either way dist(s, w, G ∖ F) = dist(s, v, G ∖ F) − 1:
//    the probe would find that target and reaches_through_kept_edge would
//    accept (w, v).
//  - strict = true (step 2): true if depth(w) < unkept_floor. Then every
//    shortest path of G ∖ F ends in a kept edge, since its last vertex
//    before v is at most depth(w) < floor hops from s; so does the
//    W-selected one. single_fault_hops is not read.
[[nodiscard]] bool satisfied_in_t0(const Graph& g, const SelectorBaseline& b,
                                   Vertex v, std::span<const EdgeId> kept,
                                   EdgeId e, EdgeId t,
                                   std::uint32_t single_fault_hops,
                                   std::uint32_t unkept_floor, bool strict);

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

// Step (1) of Cons2FTBFS (and the whole of single_ftbfs) for one tree edge e
// of T0(s): for every vertex v below e, the replacement path for the failure
// of e, selected so that its divergence point from π(s,v) is as close to s as
// possible — the W-unique shortest path in G(u_k0, u_i) ∖ {e} of Eq. (3) with
// k0 minimal. Those graphs depend on e alone, so the targets share their
// passes: one probe of G ∖ {e} for every target distance, one W-sweep of
// k = 0 (which is k0 for most targets), at most one probe per other k for
// all the binary searches together, and one W-sweep per distinct k0 > 0.
// Only the first probe repairs the whole cut region (or searches from the
// source); every later pass asks whether its targets are still at those
// distances, so it searches backward from them first and falls back to the
// same forward passes when that gives up. Each pass stops once the farthest
// target it serves is final. The result lives in `sel` until its next call,
// and the caller may move it out. Its choices list subtree(child(e)) in
// preorder.
[[nodiscard]] SingleFaultBatch& select_single_faults_below(PathSelector& sel,
                                                           Vertex s, EdgeId e);

// The same selection for the single target v = π.back() and the π edge at
// position i (edge (π[i], π[i+1])); nullopt when v is disconnected from s in
// G ∖ {e_i}. π must be v's T0 root path and `pi_pos` bound to it. The result
// equals π(s,x) ∘ detour ∘ π(y,v) (Claim 3.4); under the uniqueness of W the
// hard invariants that check it cannot fail.
[[nodiscard]] std::optional<SingleFaultSelection> select_single_fault(
    PathSelector& sel, const Path& pi, const VertexIndexMap& pi_pos,
    std::size_t i);

// Runs select_single_faults_below for every tree edge of `base`, on one
// worker per selector (each built over `base`): workers claim edges from an
// atomic cursor, the largest subtree first. sink(worker, batch) sees each
// batch once, on the worker that computed it, and may move it away.
// `progress`, if given, grows by each batch's target count — its fault
// pairs — as the batch finishes, before the sink sees it.
void for_each_single_fault_batch(
    const SelectorBaseline& base, std::span<PathSelector* const> selectors,
    std::atomic<std::uint64_t>* progress,
    const std::function<void(unsigned worker, SingleFaultBatch&)>& sink);

}  // namespace ftbfs
