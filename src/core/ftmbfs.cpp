#include "core/ftmbfs.h"

#include "core/cons2ftbfs.h"
#include "core/single_ftbfs.h"

namespace ftbfs {
namespace {

template <typename BuildOne>
FtMbfsResult build_union(const Graph& g, std::span<const Vertex> sources,
                         BuildOne&& build_one) {
  FTBFS_EXPECTS(!sources.empty());
  FtMbfsResult out;
  std::vector<bool> in_h(g.num_edges(), false);
  for (const Vertex s : sources) {
    const FtStructure h = build_one(s);
    out.per_source_size.push_back(h.edges.size());
    for (const EdgeId e : h.edges) {
      if (!in_h[e]) {
        in_h[e] = true;
      }
    }
    // Aggregate stats: sums are meaningful across sources; maxima are maxed.
    out.structure.stats.new_edges += h.stats.new_edges;
    out.structure.stats.tree_edges += h.stats.tree_edges;
    out.structure.stats.fault_pairs_considered +=
        h.stats.fault_pairs_considered;
    out.structure.stats.dijkstra_runs += h.stats.dijkstra_runs;
    out.structure.stats.divergence_fallbacks += h.stats.divergence_fallbacks;
    out.structure.stats.kernels += h.stats.kernels;
    out.structure.stats.max_new_per_vertex =
        std::max(out.structure.stats.max_new_per_vertex,
                 h.stats.max_new_per_vertex);
    out.structure.stats.build_workers =
        std::max(out.structure.stats.build_workers, h.stats.build_workers);
  }
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (in_h[e]) out.structure.edges.push_back(e);
  }
  return out;
}

}  // namespace

FtMbfsResult build_cons2ftmbfs(const Graph& g,
                               std::span<const Vertex> sources,
                               const FtMbfsOptions& opt) {
  Cons2Options one;
  one.weight_seed = opt.weight_seed;
  one.classify_paths = false;
  one.jobs = opt.jobs;
  one.progress = opt.progress;
  return build_union(g, sources,
                     [&](Vertex s) { return build_cons2ftbfs(g, s, one); });
}

FtMbfsResult build_single_ftmbfs(const Graph& g,
                                 std::span<const Vertex> sources,
                                 const FtMbfsOptions& opt) {
  SingleFtbfsOptions one;
  one.weight_seed = opt.weight_seed;
  one.jobs = opt.jobs;
  one.progress = opt.progress;
  return build_union(g, sources,
                     [&](Vertex s) { return build_single_ftbfs(g, s, one); });
}

}  // namespace ftbfs
