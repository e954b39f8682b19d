#include "core/single_ftbfs.h"

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "core/selector.h"
#include "spath/dijkstra.h"
#include "spath/path.h"
#include "spath/weights.h"
#include "util/concurrency.h"

namespace ftbfs {
namespace {

// Everything one target contributes, recorded against a frozen H. The
// candidate last edges of single-fault replacement paths are independent of
// H (select_single_fault never reads it), so the membership decisions — which
// candidates are *new* — can be replayed at commit time in target order with
// no conflicts ever: parallel output is the sequential output by replay.
struct SingleOutcome {
  std::vector<EdgeId> candidates;  // selected last edges, in π-position order
  std::uint64_t fault_pairs = 0;
  KernelCounts kernels;
};

struct SingleWorkspace {
  PathSelector sel;
  VertexIndexMap pi_pos;
  SingleWorkspace(const Graph& g, const WeightAssignment& w,
                  const SelectorBaseline& base)
      : sel(g, w, &base), pi_pos(g.num_vertices()) {}
};

SingleOutcome run_target(const Graph& g, const SpResult& tree,
                         PathSelector& sel, VertexIndexMap& pi_pos, Vertex v) {
  SingleOutcome out;
  const KernelCounts k0 = sel.kernel_counts();
  const Path pi = extract_path(tree, v);
  pi_pos.bind(pi);
  for (std::size_t i = 0; i + 1 < pi.size(); ++i) {
    ++out.fault_pairs;
    const auto selection = select_single_fault(sel, pi, pi_pos, i);
    if (!selection) continue;  // e_i disconnects v: nothing to preserve
    out.candidates.push_back(last_edge(g, selection->path));
  }
  out.kernels = sel.kernel_counts() - k0;
  return out;
}

}  // namespace

FtStructure build_single_ftbfs(const Graph& g, Vertex s,
                               const SingleFtbfsOptions& opt) {
  FTBFS_EXPECTS(s < g.num_vertices());
  const WeightAssignment w(g, opt.weight_seed);
  // T0(s), the W-unique shortest-path tree, shared by every worker.
  const SelectorBaseline base(g, w, s);
  const SpResult& tree = base.tree();

  FtStructure h;
  std::vector<bool> in_h(g.num_edges(), false);
  std::vector<Vertex> targets;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    if (v != s && tree.reached(v)) {
      targets.push_back(v);
      if (!in_h[tree.parent_edge[v]]) {
        in_h[tree.parent_edge[v]] = true;
        ++h.stats.tree_edges;
      }
    }
  }

  auto commit_outcome = [&](SingleOutcome&& out) {
    std::uint64_t new_here = 0;
    for (const EdgeId le : out.candidates) {
      if (!in_h[le]) {
        in_h[le] = true;
        ++h.stats.new_edges;
        ++h.stats.classes.single;
        ++new_here;
      }
    }
    h.stats.max_new_per_vertex = std::max(h.stats.max_new_per_vertex, new_here);
    h.stats.fault_pairs_considered += out.fault_pairs;
    h.stats.kernels += out.kernels;
  };
  auto bump_progress = [&] {
    if (opt.progress != nullptr) {
      opt.progress->fetch_add(1, std::memory_order_relaxed);
    }
  };

  const unsigned workers = resolve_jobs(opt.jobs, targets.size());
  ParallelBuildReport report;
  if (workers <= 1) {
    SingleWorkspace ws(g, w, base);
    for (const Vertex v : targets) {
      commit_outcome(run_target(g, tree, ws.sel, ws.pi_pos, v));
      bump_progress();
    }
  } else {
    std::vector<std::unique_ptr<SingleWorkspace>> pool;
    pool.reserve(workers);
    for (unsigned t = 0; t < workers; ++t) {
      pool.push_back(std::make_unique<SingleWorkspace>(g, w, base));
    }
    std::vector<SingleOutcome> slots(speculative_block_size(workers));
    run_speculate_commit(
        targets.size(), workers, /*on_block_start=*/[] {},
        [&](unsigned worker, std::size_t idx, std::size_t slot) {
          SingleWorkspace& ws = *pool[worker];
          slots[slot] = run_target(g, tree, ws.sel, ws.pi_pos, targets[idx]);
          // Progress counts finished per-target work, not commits: a block's
          // commits land together, which would quantize a sampled rate into
          // block-sized steps (the bench_e13 windowed sweep reads this
          // counter from outside the process).
          bump_progress();
        },
        [&](std::size_t, std::size_t slot) {
          commit_outcome(std::move(slots[slot]));
        },
        &report);
  }
  report.workers = workers;
  if (opt.parallel_report != nullptr) *opt.parallel_report = report;

  h.stats.dijkstra_runs = 1 + h.stats.kernels.sweeps();  // + the tree
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (in_h[e]) h.edges.push_back(e);
  }
  return h;
}

}  // namespace ftbfs
