#include "core/single_ftbfs.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <vector>

#include "core/selector.h"
#include "spath/dijkstra.h"
#include "spath/weights.h"
#include "util/concurrency.h"

namespace ftbfs {

FtStructure build_single_ftbfs(const Graph& g, Vertex s,
                               const SingleFtbfsOptions& opt) {
  FTBFS_EXPECTS(s < g.num_vertices());
  const WeightAssignment w(g, opt.weight_seed);
  // T0(s), the W-unique shortest-path tree, shared by every worker.
  const SelectorBaseline base(g, w, s);
  const SpResult& tree = base.tree();

  FtStructure h;
  std::vector<bool> in_h(g.num_edges(), false);
  std::size_t targets = 0;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    if (v != s && tree.reached(v)) {
      ++targets;
      h.stats.fault_pairs_considered += tree.hops(v);  // one per π(s,v) edge
      if (!in_h[tree.parent_edge[v]]) {
        in_h[tree.parent_edge[v]] = true;
        ++h.stats.tree_edges;
      }
    }
  }

  // The selected last edges, as two bits per edge: bit 0 if the edge is a
  // candidate of its endpoint u (a selected path to u ends with it), bit 1
  // if of v. Candidates never depend on H, so which edges are new does not
  // depend on the order the tree edges are processed in.
  std::vector<std::atomic<std::uint8_t>> candidate(g.num_edges());
  const unsigned workers = resolve_jobs(opt.jobs, targets);
  h.stats.build_workers = workers;
  std::vector<std::unique_ptr<PathSelector>> pool;
  std::vector<PathSelector*> selectors;
  for (unsigned t = 0; t < workers; ++t) {
    pool.push_back(std::make_unique<PathSelector>(g, w, &base));
    selectors.push_back(pool.back().get());
  }
  for_each_single_fault_batch(
      base, selectors, opt.progress,
      [&](unsigned, const SingleFaultBatch& batch) {
        for (const SingleFaultChoice& c : batch.choices) {
          if (!c.connected()) continue;  // e disconnects v: nothing to keep
          const std::uint8_t bit = g.edge(c.last_edge).u == c.target ? 1 : 2;
          candidate[c.last_edge].fetch_or(bit, std::memory_order_relaxed);
        }
      });
  for (const PathSelector* sel : selectors) {
    h.stats.kernels += sel->kernel_counts();
  }

  // Credit each new edge to the target the sequential loop over targets in
  // id order would have added it at: the lower-id endpoint that has it as a
  // candidate, else the other one.
  std::vector<std::uint64_t> new_at(g.num_vertices(), 0);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const std::uint8_t bits = candidate[e].load(std::memory_order_relaxed);
    if (bits == 0 || in_h[e]) continue;
    const Edge& ed = g.edge(e);
    const Vertex owner = bits == 3 ? std::min(ed.u, ed.v)
                         : bits == 1 ? ed.u
                                     : ed.v;
    in_h[e] = true;
    ++h.stats.new_edges;
    ++h.stats.classes.single;
    h.stats.max_new_per_vertex =
        std::max(h.stats.max_new_per_vertex, ++new_at[owner]);
  }

  h.stats.dijkstra_runs = 1 + h.stats.kernels.sweeps();  // + the tree
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (in_h[e]) h.edges.push_back(e);
  }
  return h;
}

}  // namespace ftbfs
