#include "core/kfail_ftbfs.h"

#include <algorithm>
#include <unordered_set>
#include <vector>

#include "core/selector.h"
#include "spath/path.h"
#include "spath/weights.h"

namespace ftbfs {
namespace {

// A fault set: edge ids or vertex ids, by the fault model.
using FaultSet = std::vector<std::uint32_t>;

// Order-insensitive hash of a small sorted fault set.
struct FaultSetHash {
  std::size_t operator()(const FaultSet& f) const {
    std::size_t h = 0x9e3779b97f4a7c15ULL;
    for (const std::uint32_t x : f) {
      h ^= (h << 13);
      h += 0x100000001b3ULL * (x + 1);
    }
    return h;
  }
};

// The chains of one target v. Each successive fault is an element of the
// current replacement path: one of its edges, or, for vertex faults, one of
// its *interior* vertices (s and the target are never faulted — the FT
// property is vacuous when the target itself fails).
class ChainEnumerator {
 public:
  ChainEnumerator(PathSelector& sel, FaultModel model, Vertex s, Vertex v,
                  unsigned f, std::uint64_t cap, std::vector<bool>& in_h,
                  FtBfsStats& stats, KFailStats& kstats)
      : sel_(sel),
        model_(model),
        s_(s),
        v_(v),
        f_(f),
        cap_(cap),
        in_h_(in_h),
        stats_(stats),
        kstats_(kstats) {
    for (const Arc& arc : sel_.graph().neighbors(v_)) {
      if (!in_h_[arc.id]) ++unkept_;
    }
  }

  std::uint64_t run() {
    FaultSet empty;
    recurse(empty, 0, 0);
    if (truncated_) ++kstats_.chain_cap_hits;
    return new_edges_;
  }

 private:
  // `at_least` is the hops of the path whose element was faulted last:
  // adding a fault never shortens the replacement path. Every edge a chain
  // keeps is its path's last edge, so v-incident: once all of v's G-edges
  // are in H, no further chain can keep one, and none is enumerated. The
  // chain cap only ends enumeration early, so it cannot make this differ.
  void recurse(FaultSet& faults, unsigned depth, std::uint32_t at_least) {
    if (truncated_ || unkept_ == 0) return;
    if (budget_used_ >= cap_) {
      truncated_ = true;
      return;
    }
    ++budget_used_;
    ++kstats_.chains_enumerated;
    ++stats_.fault_pairs_considered;

    // Deduplicate fault sets reachable through different chain orders.
    FaultSet key = faults;
    std::sort(key.begin(), key.end());
    if (!seen_.insert(std::move(key)).second) return;

    GraphMask& mask = sel_.mask();
    mask.clear();
    for (const std::uint32_t x : faults) {
      if (model_ == FaultModel::kVertex) {
        mask.block_vertex(x);
      } else {
        mask.block_edge(x);
      }
    }
    const auto rp = sel_.w_path(s_, v_, {.at_least = at_least});
    if (!rp) return;  // v disconnected under these faults: nothing to keep
    const Graph& g = sel_.graph();
    const EdgeId le = last_edge(g, rp->verts);
    if (!in_h_[le]) {
      in_h_[le] = true;
      ++stats_.new_edges;
      ++new_edges_;
      --unkept_;
    }
    if (depth == f_) return;

    const FaultSet next = model_ == FaultModel::kVertex
                              ? FaultSet(rp->verts.begin() + 1,
                                         rp->verts.end() - 1)
                              : edges_of(g, rp->verts);
    const auto hops = static_cast<std::uint32_t>(rp->verts.size() - 1);
    for (const std::uint32_t x : next) {
      faults.push_back(x);
      recurse(faults, depth + 1, hops);
      faults.pop_back();
    }
  }

  PathSelector& sel_;
  FaultModel model_;
  Vertex s_;
  Vertex v_;
  unsigned f_;
  std::uint64_t cap_;
  std::vector<bool>& in_h_;
  FtBfsStats& stats_;
  KFailStats& kstats_;

  std::unordered_set<FaultSet, FaultSetHash> seen_;
  std::uint64_t budget_used_ = 0;
  std::uint64_t new_edges_ = 0;
  std::uint32_t unkept_ = 0;  // v's G-edges not yet in H
  bool truncated_ = false;
};

KFailResult build_kfail(const Graph& g, Vertex s, unsigned f,
                        FaultModel model, const KFailOptions& opt) {
  FTBFS_EXPECTS(s < g.num_vertices());
  const WeightAssignment w(g, opt.weight_seed);
  PathSelector sel(g, w);

  KFailResult out;
  std::vector<bool> in_h(g.num_edges(), false);

  const SpResult& tree = sel.baseline(s).tree();
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    if (v != s && tree.reached(v) && !in_h[tree.parent_edge[v]]) {
      in_h[tree.parent_edge[v]] = true;
      ++out.structure.stats.tree_edges;
    }
  }

  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    if (v == s || !tree.reached(v)) continue;
    ChainEnumerator chain(sel, model, s, v, f, opt.max_chains_per_vertex,
                          in_h, out.structure.stats, out.kstats);
    const std::uint64_t new_here = chain.run();
    out.structure.stats.max_new_per_vertex =
        std::max(out.structure.stats.max_new_per_vertex, new_here);
  }

  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (in_h[e]) out.structure.edges.push_back(e);
  }
  out.structure.stats.dijkstra_runs = 1 + sel.dijkstra_runs();  // + the tree
  return out;
}

}  // namespace

KFailResult build_kfail_ftbfs_vertex(const Graph& g, Vertex s, unsigned f,
                                     const KFailOptions& opt) {
  return build_kfail(g, s, f, FaultModel::kVertex, opt);
}

KFailResult build_kfail_ftbfs(const Graph& g, Vertex s, unsigned f,
                              const KFailOptions& opt) {
  return build_kfail(g, s, f, FaultModel::kEdge, opt);
}

}  // namespace ftbfs
