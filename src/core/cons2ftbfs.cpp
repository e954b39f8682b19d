#include "core/cons2ftbfs.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "core/build_parallel.h"
#include "core/selector.h"
#include "structure/newending.h"
#include "util/concurrency.h"
#include "util/timer.h"

namespace ftbfs {
namespace {

// Step (1)'s selection for one (target v, π edge i), as v's run reads it: a
// view of v's choice in the batch of e_i.
struct SelectionSlot {
  const Vertex* detour_data = nullptr;
  std::uint32_t detour_size = 0;
  std::uint32_t x_pi_index = 0;
  std::uint32_t y_pi_index = 0;
  EdgeId last_edge = kInvalidEdge;  // kInvalidEdge: e_i disconnects v

  [[nodiscard]] bool connected() const { return last_edge != kInvalidEdge; }
  [[nodiscard]] std::span<const Vertex> detour() const {
    return {detour_data, detour_size};
  }
};

// v's row, one slot per edge of π = π(s, v), read from step (1)'s batches,
// each kept in the slot of its tree edge's child c. A batch lists c's subtree
// in preorder, so v's choice in it sits at preorder(v) − preorder(c); a batch
// not kept reads as disconnected.
void read_row(const std::vector<SingleFaultBatch>& step1, const TreeIndex& idx,
              const Path& pi, std::vector<SelectionSlot>& row) {
  row.assign(pi.size() - 1, SelectionSlot{});
  const std::uint32_t pre_v = idx.preorder_index(pi.back());
  for (std::size_t i = 0; i + 1 < pi.size(); ++i) {
    const SingleFaultBatch& batch = step1[pi[i + 1]];
    if (batch.choices.empty()) continue;
    const SingleFaultChoice& c =
        batch.choices[pre_v - idx.preorder_index(pi[i + 1])];
    FTBFS_ENSURES(c.target == pi.back());
    row[i] = {batch.detour(c).data(), c.detour_size, c.x_pi_index,
              c.y_pi_index, c.last_edge};
  }
}

// Everything one target contributes, applied to the shared state by its
// commit (build_parallel.h). Every edge in `added` is incident to the target
// and outside T0 — the locality the dependency order relies on.
struct VertexOutcome {
  std::vector<EdgeId> added;  // kept last edges, in keep order
  std::vector<NewEndingRecord> records;
  PathClassCounts classes;  // classification of `records` (when enabled)
  Path pi;                  // π(s,v), kept for the record_sink call
  std::uint64_t fault_pairs = 0;  // steps (2) and (3); step (1) counts its own
  std::uint64_t fallbacks = 0;
  KernelCounts kernels;
};

// All state for constructing H(v) for one target vertex v. Reads the shared
// kept-edge set only on v's edges, when it starts, and then tracks its own
// additions; never writes shared state — the target's commit applies the
// outcome.
class PerVertexRun {
 public:
  PerVertexRun(const Graph& g, const SelectorBaseline& base, PathSelector& sel,
               VertexIndexMap& pi_pos, VertexIndexMap& aux_pos, Vertex s,
               Vertex v, Path pi, std::span<const SelectionSlot> selections,
               const std::vector<std::uint8_t>& in_h, bool classify)
      : g_(g),
        base_(base),
        sel_(sel),
        pi_pos_(pi_pos),
        aux_pos_(aux_pos),
        s_(s),
        v_(v),
        pi_(std::move(pi)),
        classify_(classify),
        selections_(selections) {
    pi_pos_.bind(pi_);
    // E_0(v) starts as every v-incident edge already in H: v's T0 edges and
    // the edges lower-numbered targets kept, all committed before v runs.
    for (const Arc& arc : g_.neighbors(v_)) {
      (in_h[arc.id] ? allowed_v_edges_ : unkept_v_edges_).push_back(arc.id);
    }
    update_unkept_floor();
  }

  VertexOutcome run() {
    const KernelCounts k0 = sel_.kernel_counts();
    step1();
    step2();
    step3();
    if (classify_) {
      out_.classes = classify_new_ending(g_, pi_, out_.records);
    }
    out_.kernels = sel_.kernel_counts() - k0;
    out_.pi = std::move(pi_);
    return std::move(out_);
  }

 private:
  // ---- helpers ------------------------------------------------------------

  // π is v's root path in T0, so its edge i is the tree edge above pi_[i+1].
  [[nodiscard]] EdgeId pi_edge(std::size_t i) const {
    return base_.index().parent_edge(pi_[i + 1]);
  }

  // Adds `le`, the last edge of a selected replacement path and so a v-edge,
  // to H(v); returns true if the edge was new, that is, not kept in H or by
  // this run. Bookkeeps E_τ(v), the kept v-edges, and the rest of v's edges.
  bool keep_edge(EdgeId le) {
    const auto it =
        std::find(unkept_v_edges_.begin(), unkept_v_edges_.end(), le);
    if (it == unkept_v_edges_.end()) return false;
    unkept_v_edges_.erase(it);
    out_.added.push_back(le);
    allowed_v_edges_.push_back(le);
    update_unkept_floor();
    return true;
  }

  void update_unkept_floor() {
    const TreeIndex& idx = base_.index();
    unkept_floor_ = kInfHops;
    for (const EdgeId a : unkept_v_edges_) {
      unkept_floor_ =
          std::min(unkept_floor_, idx.depth(g_.other_endpoint(a, v_)));
    }
  }

  // Every edge this run can add is v-incident and not yet kept (keep_edge).
  // Once all of v's G-edges are kept — by T0, by lower-numbered targets or
  // by this run — no pair of steps (2) and (3) can keep anything, so the
  // rest are neither run nor counted.
  [[nodiscard]] bool saturated() const { return unkept_v_edges_.empty(); }

  void record(Path p, NewEndingRecord::Kind kind, EdgeId f1, EdgeId f2,
              const SelectionSlot* det) {
    NewEndingRecord rec;
    rec.kind = kind;
    rec.path = std::move(p);
    rec.f1 = f1;
    rec.f2 = f2;
    if (det != nullptr) {
      rec.detour.assign(det->detour().begin(), det->detour().end());
      rec.detour_y_pi_index = det->y_pi_index;
    }
    out_.records.push_back(std::move(rec));
  }

  // keep_edge for the last edge of p, recording p when classifying.
  bool keep_last_edge(const Path& p, NewEndingRecord::Kind kind, EdgeId f1,
                      EdgeId f2, const SelectionSlot* det) {
    if (!keep_edge(last_edge(g_, p))) return false;
    if (classify_) record(p, kind, f1, f2, det);
    return true;
  }

  // Hop distance s→v in G ∖ faults, given what is known of it.
  std::uint32_t target_distance(std::initializer_list<EdgeId> faults,
                                HopBounds bounds = {}) {
    GraphMask& m = sel_.mask();
    m.clear();
    for (const EdgeId e : faults) m.block_edge(e);
    return sel_.hop_distance(s_, v_, bounds);
  }

  // ---- step (1): single faults on π ---------------------------------------

  // P_i = π(s, x_i) ∘ D_i ∘ π(y_i, v) in full.
  [[nodiscard]] Path single_fault_path(const SelectionSlot& si) const {
    Path p(pi_.begin(), pi_.begin() + si.x_pi_index);
    p.insert(p.end(), si.detour().begin(), si.detour().end());
    p.insert(p.end(), pi_.begin() + si.y_pi_index + 1, pi_.end());
    return p;
  }

  // The selections come from the batches; only their last edges are kept here.
  void step1() {
    for (std::size_t i = 0; i < selections_.size(); ++i) {
      const SelectionSlot& si = selections_[i];
      if (!si.connected() || !keep_edge(si.last_edge) || !classify_) continue;
      record(single_fault_path(si), NewEndingRecord::Kind::kSingle,
             pi_edge(i), kInvalidEdge, nullptr);
    }
  }

  // ---- step (2): two faults on π ------------------------------------------

  // True if e_j (π edge at position j > i) lies on the selected path P_i:
  // P_i = π(s,x_i) ∘ D_i ∘ π(y_i,v) contains π edges at positions
  // [0, x_idx) and [y_idx, len). For j > i >= x_idx this reduces to
  // j >= y_idx.
  [[nodiscard]] bool pi_edge_on_selection(const SelectionSlot& si,
                                          std::size_t j) const {
    return j + 1 <= si.x_pi_index || j >= si.y_pi_index;
  }

  // Only pairs of π edges whose single-fault selections are both connected
  // are considered: if e_i alone cuts v off (a bridge for v), so does any
  // pair containing it, and the pair has nothing to keep. On a path this
  // leaves no pair at all instead of Σ depth².
  void step2() {
    std::vector<std::size_t> connected;
    for (std::size_t i = 0; i < selections_.size(); ++i) {
      if (selections_[i].connected()) connected.push_back(i);
    }
    for (std::size_t a = 0; a < connected.size(); ++a) {
      for (std::size_t b = a + 1; b < connected.size(); ++b) {
        if (saturated()) return;
        const std::size_t i = connected[a], j = connected[b];
        ++out_.fault_pairs;
        // Cheap satisfiability: if one single-fault path avoids the other
        // fault, it is itself an optimal replacement path for the pair and
        // its last edge is already in H(v).
        if (!pi_edge_on_selection(selections_[i], j) ||
            !pi_edge_on_selection(selections_[j], i)) {
          continue;
        }
        handle_pi_pi_pair(i, j);
      }
    }
  }

  void handle_pi_pi_pair(std::size_t i, std::size_t j) {
    const EdgeId ei = pi_edge(i), ej = pi_edge(j);
    // A kept v-edge shallower than every unkept one ends every shortest path
    // of G ∖ F in a kept edge, so the pair has nothing to keep.
    if (satisfied_in_t0(g_, base_, v_, allowed_v_edges_, ei, ej, 0,
                        unkept_floor_, true)) {
      return;
    }
    const std::uint32_t target = target_distance({ei, ej});
    if (target == kInfHops) return;  // pair disconnects v: nothing to keep

    // Preferred candidate: compose the two detours through their last shared
    // vertex (the paper tries this path first).
    if (const std::optional<Path> composed = compose_detours(i, j);
        composed && composed->size() - 1 == target) {
      keep_last_edge(*composed, NewEndingRecord::Kind::kPiPi, ei, ej, nullptr);
      return;
    }
    GraphMask& m = sel_.mask();
    m.clear();
    m.block_edge(ei);
    m.block_edge(ej);
    const std::optional<RPath> rp = sel_.w_path(s_, v_);
    FTBFS_ENSURES(rp.has_value() && rp->key.hops == target);
    keep_last_edge(rp->verts, NewEndingRecord::Kind::kPiPi, ei, ej, nullptr);
  }

  // π(s,x_i) ∘ D_i[x_i,w] ∘ D_j[w,y_j] ∘ π(y_j,v) where w is the last vertex
  // on D_j common to D_i; nullopt if the detours are disjoint or the
  // composition is not a simple path.
  [[nodiscard]] std::optional<Path> compose_detours(std::size_t i,
                                                    std::size_t j) {
    const std::span<const Vertex> di = selections_[i].detour();
    const std::span<const Vertex> dj = selections_[j].detour();
    aux_pos_.bind(di);
    std::size_t w_on_j = kNpos;
    for (std::size_t t = dj.size(); t-- > 0;) {
      if (aux_pos_.on_path(dj[t])) {
        w_on_j = t;
        break;
      }
    }
    if (w_on_j == kNpos) return std::nullopt;
    const Vertex w = dj[w_on_j];
    const std::size_t w_on_i = aux_pos_.pos(w);
    const SelectionSlot& si = selections_[i];
    const SelectionSlot& sj = selections_[j];

    Path p = subpath(pi_, 0, si.x_pi_index);
    p = concat(p, subpath(di, 0, w_on_i));
    p = concat(p, subpath(dj, w_on_j, dj.size() - 1));
    p = concat(p, subpath(pi_, sj.y_pi_index, pi_.size() - 1));
    if (!is_simple_path_in(g_, p)) return std::nullopt;
    return p;
  }

  // ---- step (3): one fault on π, one on the detour ------------------------

  void step3() {
    const std::size_t len = pi_.size() - 1;
    // Decreasing (e, t) order: deeper π edge first; within one detour, deeper
    // detour edge first.
    for (std::size_t i = len; i-- > 0;) {
      if (!selections_[i].connected()) continue;
      for (std::size_t r = selections_[i].detour_size - 1; r-- > 0;) {
        if (saturated()) return;
        ++out_.fault_pairs;
        handle_pi_d_pair(i, r);
      }
    }
  }

  void handle_pi_d_pair(std::size_t i, std::size_t r) {
    const SelectionSlot& si = selections_[i];
    const EdgeId e = pi_edge(i);
    const EdgeId t = g_.find_edge(si.detour()[r], si.detour()[r + 1]);
    FTBFS_ENSURES(t != kInvalidEdge);
    // |P_i(v)| = dist(s, v, G ∖ {e}): often T0 and v's kept edges alone show
    // that a kept edge still ends a shortest path of G ∖ F.
    const std::size_t single_hops = si.x_pi_index + (si.detour_size - 1) +
                                    (pi_.size() - 1 - si.y_pi_index);
    if (satisfied_in_t0(g_, base_, v_, allowed_v_edges_, e, t,
                        static_cast<std::uint32_t>(single_hops), unkept_floor_,
                        false)) {
      return;  // not new-ending
    }

    // G ∖ F ⊆ G ∖ {e}, so the probe's answer is at least single_hops.
    const std::uint32_t target = target_distance(
        {e, t}, {.at_least = static_cast<std::uint32_t>(single_hops)});
    if (target == kInfHops) return;

    // Satisfiability in G_{τ−1}(v) ∖ F (v's edges restricted to E_{τ−1}(v)),
    // decided from the probe above: v lies below e in T0, so that probe
    // searched and left the distance of each of v's neighbours below
    // `target` exact.
    if (reaches_through_kept_edge(sel_, v_, allowed_v_edges_, target)) {
      return;  // not new-ending
    }

    const Path p = select_new_ending(i, r, e, t, target);
    const bool added =
        keep_last_edge(p, NewEndingRecord::Kind::kPiD, e, t, &si);
    // A new-ending path must end with an edge not yet in E_{τ−1}(v); anything
    // else would contradict the satisfiability test above.
    FTBFS_ENSURES(added);
  }

  // The least index in [0, hi] whose restricted graph still has dist(s, v) =
  // target, for graphs nested in the index (so feasibility is monotone);
  // nullopt if even hi is infeasible. A feasible 0 decides the search alone,
  // so 0 is probed first (unless `zero_infeasible` already says it fails),
  // then hi, then the open range between them by bisection.
  template <class Feasible>
  [[nodiscard]] static std::optional<std::size_t> least_feasible(
      std::size_t hi, bool zero_infeasible, Feasible feasible) {
    if (!zero_infeasible && feasible(0)) return 0;
    if (hi == 0 || !feasible(hi)) return std::nullopt;
    std::size_t lo = 0;
    while (lo + 1 < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      (feasible(mid) ? hi : lo) = mid;
    }
    return hi;
  }

  // Selects the new-ending replacement path for F = {e, t}: earliest
  // π-divergence; if that divergence equals x_τ, also earliest D-divergence.
  //
  // Both searches run over nested graphs — G(u_k, v) ⊆ G(u_{k+1}, v) and
  // G_D(w_l) ⊆ G_D(w_{l+1}), all inside G ∖ F — so dist(s, v) there is at
  // least target and falls with the index: feasible at 0 means feasible
  // everywhere, and the bound at i (Cl. 3.5) or r (Lemma 3.1) is probed only
  // when 0 fails. The passes the nesting already decides are skipped:
  //  - b = π[k0]. Let P be the W-unique shortest path of G(u_k0, v) ∖ F.
  //    For k0 > 0, P passes u_k0, or it would lie in G(u_{k0−1}, v) ∖ F,
  //    which is infeasible. A subpath of a W-unique shortest path is the
  //    W-unique shortest path between its ends. π(s, u_k0), a T0 path, is
  //    that path in G, and it lies in G(u_k0, v) ∖ F (e sits at or below
  //    u_k0 on π, t is off π), so P starts with π(s, u_k0). It then leaves
  //    π: u_{k0+1} is blocked, or it is v and the edge (u_k0, v) is e. So
  //    no sweep is needed to find b, and G(u_k0, v) is swept only when it
  //    is the answer (b ≠ x) or the D-search falls back.
  //  - x = s. Then G_D(w_0) ⊆ G(u_0, v) = G(u_x, v). If G_D(w_0) ∖ F reaches
  //    v within target, k0 = 0 = x and l0 = 0, and its sweep is exactly the
  //    path both searches select; otherwise l = 0 is known to fail.
  // Every probe and sweep here asks about a graph inside G ∖ F, and only
  // whether v is reached within target, so each passes target as both
  // bounds: a pass stops once the distance is certain to exceed it.
  [[nodiscard]] Path select_new_ending(std::size_t i, std::size_t r, EdgeId e,
                                       EdgeId t, std::uint32_t target) {
    const SelectionSlot& si = selections_[i];
    const std::size_t x_idx = si.x_pi_index;
    const std::span<const Vertex> d = si.detour();
    GraphMask& m = sel_.mask();
    const HopBounds within{.at_least = target, .at_most = target};

    // Masks G(u_k, v) ∖ F: π positions [k+1 .. |π|-2] removed.
    auto apply_gk = [&](std::size_t k) {
      m.clear();
      m.block_edge(e);
      m.block_edge(t);
      if (pi_.size() >= 2) block_pi_segment(m, pi_, k, pi_.size() - 2);
    };
    // G_D(w_l) ∖ F: G(u_x, v) ∖ F minus the detour tail V(D[l+1 .. end])
    // (v itself is never blocked).
    auto apply_gd = [&](std::size_t l) {
      apply_gk(x_idx);
      for (std::size_t pos = l + 1; pos < d.size(); ++pos) {
        if (d[pos] != v_) m.block_vertex(d[pos]);
      }
    };
    auto feasible_k = [&](std::size_t k) {
      apply_gk(k);
      return sel_.hop_distance(s_, v_, within) == target;
    };
    auto feasible_l = [&](std::size_t l) {
      apply_gd(l);
      return sel_.hop_distance(s_, v_, within) == target;
    };
    // The W-unique shortest path under the current mask.
    auto sweep = [&] {
      std::optional<RPath> rp = sel_.w_path(s_, v_, within);
      FTBFS_ENSURES(rp.has_value() && rp->key.hops == target);
      return std::move(rp->verts);
    };

    // x = s: one sweep of G_D(w_0) ∖ F may answer both searches.
    bool l0_infeasible = false;
    if (x_idx == 0) {
      apply_gd(0);
      std::optional<RPath> rp = sel_.w_path(s_, v_, within);
      if (rp.has_value() && rp->key.hops == target) return std::move(rp->verts);
      l0_infeasible = true;
    }

    // Minimal divergence index k0 ∈ [0..i]; feasible at k == i by Cl. 3.5
    // (the optimal path diverges above e and rejoins π only at v). Keep a
    // defensive fallback for the (theoretically impossible) infeasible case.
    const std::optional<std::size_t> k0 = least_feasible(i, false, feasible_k);
    if (!k0.has_value()) {
      ++out_.fallbacks;
      m.clear();
      m.block_edge(e);
      m.block_edge(t);
      return sweep();
    }
    if (*k0 != x_idx) {  // b = π[k0] ≠ x_τ
      apply_gk(*k0);
      return sweep();
    }

    // b == x_τ: refine the divergence from the detour D_τ.
    const std::optional<std::size_t> l0 =
        least_feasible(r, l0_infeasible, feasible_l);
    if (!l0.has_value()) {
      // Theoretically impossible (Lemma 3.1); fall back to the G(u_k0,v) path.
      ++out_.fallbacks;
      apply_gk(*k0);
      return sweep();
    }
    apply_gd(*l0);
    return sweep();
  }

  // ---- data ---------------------------------------------------------------

  const Graph& g_;
  const SelectorBaseline& base_;
  PathSelector& sel_;
  VertexIndexMap& pi_pos_;
  VertexIndexMap& aux_pos_;
  Vertex s_;
  Vertex v_;
  Path pi_;
  bool classify_;

  std::span<const SelectionSlot> selections_;  // step (1): v's row
  std::vector<EdgeId> allowed_v_edges_;  // E_τ(v): the kept v-edges
  std::vector<EdgeId> unkept_v_edges_;   // v's other G-edges
  // Least T0 depth of a v-neighbour across an unkept edge (kInfHops if none).
  std::uint32_t unkept_floor_ = kInfHops;
  VertexOutcome out_;
};

struct Cons2Workspace {
  PathSelector sel;
  VertexIndexMap pi_pos;
  VertexIndexMap aux_pos;
  std::vector<SelectionSlot> row;  // the running target's step-(1) row
  Cons2Workspace(const Graph& g, const WeightAssignment& w,
                 const SelectorBaseline& base)
      : sel(g, w, &base),
        pi_pos(g.num_vertices()),
        aux_pos(g.num_vertices()) {}
};

void max_classes(PathClassCounts& m, const PathClassCounts& c) {
  m.single = std::max(m.single, c.single);
  m.a_pi_pi = std::max(m.a_pi_pi, c.a_pi_pi);
  m.b_nodet = std::max(m.b_nodet, c.b_nodet);
  m.c_indep = std::max(m.c_indep, c.c_indep);
  m.d_pi_interf = std::max(m.d_pi_interf, c.d_pi_interf);
  m.e_d_interf = std::max(m.e_d_interf, c.e_d_interf);
}

}  // namespace

FtStructure build_cons2ftbfs(const Graph& g, Vertex s,
                             const Cons2Options& opt) {
  FTBFS_EXPECTS(s < g.num_vertices());
  const WeightAssignment w(g, opt.weight_seed);
  // T0(s), the W-unique shortest-path tree, shared by every worker.
  const SelectorBaseline base(g, w, s);
  const SpResult& tree = base.tree();

  FtStructure h;
  // One byte per edge: runs read their own edges while a commit writes
  // others, so edges must not share a word.
  std::vector<std::uint8_t> in_h(g.num_edges(), 0);
  std::vector<Vertex> targets;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    if (v != s && tree.reached(v)) {
      targets.push_back(v);
      h.stats.fault_pairs_considered += tree.hops(v);  // step (1): π's edges
      if (!in_h[tree.parent_edge[v]]) {
        in_h[tree.parent_edge[v]] = 1;
        ++h.stats.tree_edges;
      }
    }
  }

  const unsigned workers = resolve_jobs(opt.jobs, targets.size());
  h.stats.build_workers = workers;
  std::vector<std::unique_ptr<Cons2Workspace>> pool;
  std::vector<PathSelector*> selectors;
  for (unsigned t = 0; t < workers; ++t) {
    pool.push_back(std::make_unique<Cons2Workspace>(g, w, base));
    selectors.push_back(&pool.back()->sel);
  }

  // Step (1) for every target, one tree edge at a time. Each batch is kept in
  // the slot of its edge's child c, read-only once the phase ends since
  // selections never read H. Removing a tree edge cuts off all of c's subtree
  // or none of it, because the subtree's own T0 edges survive: a batch whose
  // first choice, c's own, is disconnected belongs to a bridge and leaves
  // steps (2) and (3) nothing to read.
  const Timer step1_timer;
  std::vector<SingleFaultBatch> step1(g.num_vertices());
  for_each_single_fault_batch(
      base, selectors, opt.progress,
      [&step1](unsigned, SingleFaultBatch& batch) {
        const SingleFaultChoice& first = batch.choices.front();
        if (!first.connected()) return;
        // Kept to the end of the build: drop the buffer's growth slack.
        batch.detour_verts.shrink_to_fit();
        step1[first.target] = std::move(batch);
      });
  for (const PathSelector* sel : selectors) {
    h.stats.kernels += sel->kernel_counts();
  }
  for (const SingleFaultBatch& batch : step1) {
    h.stats.selection_table_bytes +=
        batch.choices.size() * sizeof(SingleFaultChoice) +
        batch.detour_verts.size() * sizeof(Vertex);
  }
  h.stats.step1_seconds = step1_timer.seconds();

  // Steps (2) and (3), per target in dependency order (build_parallel.h):
  // target v reads and writes H only on its own edges, T0's are never
  // written, and a non-tree edge (u, v) is written only by u's or v's run.
  // So v waits for its lower-numbered targets across non-tree edges, and
  // every run sees exactly the H of the sequential target loop.
  constexpr std::uint32_t kNoTarget = ~std::uint32_t{0};
  std::vector<std::uint32_t> target_pos(g.num_vertices(), kNoTarget);
  for (std::size_t k = 0; k < targets.size(); ++k) {
    target_pos[targets[k]] = static_cast<std::uint32_t>(k);
  }
  auto for_each_non_tree_target = [&](Vertex v, auto&& fn) {
    for (const Arc& arc : g.neighbors(v)) {
      const std::uint32_t u = target_pos[arc.to];
      if (u != kNoTarget && base.edge_child(arc.id) == kInvalidVertex) fn(u);
    }
  };
  std::vector<std::uint32_t> pending(targets.size(), 0);
  for (std::size_t k = 0; k < targets.size(); ++k) {
    for_each_non_tree_target(targets[k], [&](std::uint32_t u) {
      if (u < k) ++pending[k];
    });
  }

  auto commit_outcome = [&](Vertex v, VertexOutcome&& out) {
    for (const EdgeId e : out.added) {
      FTBFS_ENSURES(!in_h[e]);
      in_h[e] = 1;
    }
    h.stats.new_edges += out.added.size();
    h.stats.max_new_per_vertex =
        std::max(h.stats.max_new_per_vertex,
                 static_cast<std::uint64_t>(out.added.size()));
    h.stats.fault_pairs_considered += out.fault_pairs;
    h.stats.divergence_fallbacks += out.fallbacks;
    h.stats.kernels += out.kernels;
    if (opt.progress != nullptr) {
      opt.progress->fetch_add(out.fault_pairs, std::memory_order_relaxed);
    }
    if (opt.classify_paths) {
      h.stats.classes.single += out.classes.single;
      h.stats.classes.a_pi_pi += out.classes.a_pi_pi;
      h.stats.classes.b_nodet += out.classes.b_nodet;
      h.stats.classes.c_indep += out.classes.c_indep;
      h.stats.classes.d_pi_interf += out.classes.d_pi_interf;
      h.stats.classes.e_d_interf += out.classes.e_d_interf;
      max_classes(h.stats.max_classes_per_vertex, out.classes);
      if (opt.record_sink) opt.record_sink(v, out.pi, out.records);
    }
  };

  const Timer steps23_timer;
  std::vector<VertexOutcome> outcomes(workers);  // each awaiting its commit
  run_in_dependency_order(
      std::move(pending), workers,
      [&](unsigned worker, std::size_t k) {
        Cons2Workspace& ws = *pool[worker];
        const Vertex v = targets[k];
        Path pi = extract_path(tree, v);
        read_row(step1, base.index(), pi, ws.row);
        outcomes[worker] =
            PerVertexRun(g, base, ws.sel, ws.pi_pos, ws.aux_pos, s, v,
                         std::move(pi), ws.row, in_h, opt.classify_paths)
                .run();
      },
      [&](unsigned worker, std::size_t k, const ReleaseFn& release) {
        commit_outcome(targets[k], std::move(outcomes[worker]));
        for_each_non_tree_target(targets[k], [&](std::uint32_t u) {
          if (u > k) release(u);
        });
      });
  h.stats.steps23_seconds = steps23_timer.seconds();

  h.stats.dijkstra_runs = 1 + h.stats.kernels.sweeps();  // + the tree
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (in_h[e]) h.edges.push_back(e);
  }
  return h;
}

}  // namespace ftbfs
