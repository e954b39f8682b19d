#include "engine/registry.h"

#include <utility>

#include "core/approx_ftmbfs.h"
#include "core/cons2ftbfs.h"
#include "core/ftmbfs.h"
#include "core/kfail_ftbfs.h"
#include "core/single_ftbfs.h"
#include "core/swap_ftbfs.h"
#include "util/concurrency.h"
#include "util/timer.h"

namespace ftbfs {
namespace {

// Registry counters describing the parallel schedule a builder actually ran
// (worker count after clamping, speculation conflicts re-run sequentially).
// Builds that speculate nothing — single_ftbfs, whose workers share no
// state — report no spec_* counters.
void add_parallel_counters(BuildResult& out, const ParallelBuildReport& r) {
  out.counters.emplace_back("build_workers", r.workers);
  if (r.blocks > 0) {
    out.counters.emplace_back("spec_blocks", r.blocks);
    out.counters.emplace_back("spec_conflicts", r.conflicts);
  }
}

// How the selection kernels answered (core/selector.h): read off the
// fault-free baseline, repaired over the cut region, or searched from the
// source. Identical at every job count.
void add_kernel_counters(BuildResult& out) {
  const KernelCounts& k = out.structure.stats.kernels;
  out.counters.emplace_back("probe_baseline", k.probe_baseline);
  out.counters.emplace_back("probe_repair", k.probe_repair);
  out.counters.emplace_back("probe_search", k.probe_search);
  out.counters.emplace_back("sweep_baseline", k.sweep_baseline);
  out.counters.emplace_back("sweep_repair", k.sweep_repair);
  out.counters.emplace_back("sweep_search", k.sweep_search);
}

BuildResult build_single(const BuildRequest& req) {
  SingleFtbfsOptions opt;
  opt.weight_seed = req.weight_seed;
  opt.jobs = req.options.jobs;
  ParallelBuildReport report;
  opt.parallel_report = &report;
  BuildResult out;
  out.structure = build_single_ftbfs(*req.graph, req.sources[0], opt);
  add_parallel_counters(out, report);
  add_kernel_counters(out);
  return out;
}

BuildResult build_cons2(const BuildRequest& req) {
  Cons2Options opt;
  opt.weight_seed = req.weight_seed;
  opt.classify_paths = req.collect_stats;
  opt.jobs = req.options.jobs;
  ParallelBuildReport report;
  opt.parallel_report = &report;
  BuildResult out;
  out.structure = build_cons2ftbfs(*req.graph, req.sources[0], opt);
  add_parallel_counters(out, report);
  add_kernel_counters(out);
  out.counters.emplace_back("fault_pairs_considered",
                            out.structure.stats.fault_pairs_considered);
  out.counters.emplace_back("selection_table_bytes",
                            out.structure.stats.selection_table_bytes);
  out.phase_seconds = {{"step1_s", out.structure.stats.step1_seconds},
                       {"steps23_s", out.structure.stats.steps23_seconds}};
  if (req.collect_stats) {
    const PathClassCounts& c = out.structure.stats.classes;
    out.counters.emplace_back("class_single", c.single);
    out.counters.emplace_back("class_a_pi_pi", c.a_pi_pi);
    out.counters.emplace_back("class_b_nodet", c.b_nodet);
    out.counters.emplace_back("class_c_indep", c.c_indep);
    out.counters.emplace_back("class_d_pi_interf", c.d_pi_interf);
    out.counters.emplace_back("class_e_d_interf", c.e_d_interf);
  }
  return out;
}

BuildResult build_kfail(const BuildRequest& req) {
  KFailOptions opt;
  opt.weight_seed = req.weight_seed;
  KFailResult r =
      req.fault_model == FaultModel::kVertex
          ? build_kfail_ftbfs_vertex(*req.graph, req.sources[0],
                                     req.fault_budget, opt)
          : build_kfail_ftbfs(*req.graph, req.sources[0], req.fault_budget,
                              opt);
  BuildResult out;
  out.structure = std::move(r.structure);
  out.counters.emplace_back("chains_enumerated", r.kstats.chains_enumerated);
  out.counters.emplace_back("chain_cap_hits", r.kstats.chain_cap_hits);
  return out;
}

BuildResult build_ftmbfs(const BuildRequest& req) {
  FtMbfsOptions opt;
  opt.weight_seed = req.weight_seed;
  opt.jobs = req.options.jobs;
  ParallelBuildReport report;
  opt.parallel_report = &report;
  FtMbfsResult r =
      req.fault_budget == 1
          ? build_single_ftmbfs(*req.graph, req.sources, opt)
          : build_cons2ftmbfs(*req.graph, req.sources, opt);
  BuildResult out;
  out.structure = std::move(r.structure);
  std::uint64_t before_union = 0;
  for (const std::uint64_t s : r.per_source_size) before_union += s;
  out.counters.emplace_back("edges_before_union", before_union);
  add_parallel_counters(out, report);
  add_kernel_counters(out);
  return out;
}

BuildResult build_approx(const BuildRequest& req) {
  ApproxOptions opt;
  ApproxResult r =
      build_approx_ftmbfs(*req.graph, req.sources, req.fault_budget, opt);
  BuildResult out;
  out.structure = std::move(r.structure);
  out.counters.emplace_back("universe_size", r.astats.universe_size);
  out.counters.emplace_back("bfs_runs", r.astats.bfs_runs);
  out.counters.emplace_back("greedy_picks", r.astats.greedy_picks);
  return out;
}

BuildResult build_swap(const BuildRequest& req) {
  SwapFtbfsOptions opt;
  opt.weight_seed = req.weight_seed;
  SwapResult r = build_swap_ftbfs(*req.graph, req.sources[0], opt);
  BuildResult out;
  out.structure = std::move(r.structure);
  out.counters.emplace_back("swap_edges", r.swap.swap_edges);
  out.counters.emplace_back("uncovered_cuts", r.swap.uncovered_cuts);
  return out;
}

BuilderRegistry make_default_registry() {
  BuilderRegistry reg;
  {
    BuilderTraits t;
    t.name = "single_ftbfs";
    t.summary = "single-failure FT-BFS of [10], O(n^{3/2}) edges";
    t.aliases = {"single"};
    t.min_fault_budget = t.max_fault_budget = 1;
    t.parallel_build = true;
    reg.add(std::move(t), &build_single);
  }
  {
    BuilderTraits t;
    t.name = "cons2ftbfs";
    t.summary = "dual-failure Cons2FTBFS (Thm 1.1), O(n^{5/3}) edges";
    t.aliases = {"cons2", "dual"};
    t.min_fault_budget = t.max_fault_budget = 2;
    t.parallel_build = true;
    reg.add(std::move(t), &build_cons2);
  }
  {
    BuilderTraits t;
    t.name = "kfail_ftbfs";
    t.summary = "f-failure chain construction (Obs 1.6), edge or vertex faults";
    t.aliases = {"kfail", "chains"};
    t.vertex_faults = true;
    reg.add(std::move(t), &build_kfail);
  }
  {
    BuilderTraits t;
    t.name = "ftmbfs";
    t.summary = "multi-source FT-MBFS union (per-source single/cons2)";
    t.aliases = {"union"};
    t.min_fault_budget = 1;
    t.max_fault_budget = 2;
    t.multi_source = true;
    t.parallel_build = true;
    reg.add(std::move(t), &build_ftmbfs);
  }
  {
    BuilderTraits t;
    t.name = "approx_ftmbfs";
    t.summary = "greedy set-cover FT-MBFS, O(log n)-approx size (Thm 1.3)";
    t.aliases = {"greedy", "approx"};
    t.multi_source = true;
    t.heavy_construction = true;  // enumerates σ·m^f fault sets
    reg.add(std::move(t), &build_approx);
  }
  {
    BuilderTraits t;
    t.name = "swap_ftbfs";
    t.summary = "O(n)-edge swap-edge structure (approximate distances)";
    t.aliases = {"swap"};
    t.min_fault_budget = t.max_fault_budget = 1;
    t.exact = false;
    reg.add(std::move(t), &build_swap);
  }
  return reg;
}

}  // namespace

BuilderRegistry& BuilderRegistry::instance() {
  static BuilderRegistry registry = make_default_registry();
  return registry;
}

void BuilderRegistry::add(BuilderTraits traits, BuildFn fn) {
  FTBFS_EXPECTS(!traits.name.empty());
  FTBFS_EXPECTS(find(traits.name) == nullptr);
  for (const std::string& alias : traits.aliases) {
    FTBFS_EXPECTS(find(alias) == nullptr);  // aliases must not shadow anyone
  }
  traits_.push_back(std::move(traits));
  fns_.push_back(std::move(fn));
}

const BuilderTraits* BuilderRegistry::find(std::string_view name) const {
  for (const BuilderTraits& t : traits_) {
    if (t.name == name) return &t;
    for (const std::string& alias : t.aliases) {
      if (alias == name) return &t;
    }
  }
  return nullptr;
}

std::vector<std::string> BuilderRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(traits_.size());
  for (const BuilderTraits& t : traits_) out.push_back(t.name);
  return out;
}

std::string BuilderRegistry::unsupported_reason(std::string_view name,
                                                const BuildRequest& req) const {
  const BuilderTraits* t = find(name);
  if (t == nullptr) return "unknown builder '" + std::string(name) + "'";
  if (req.graph == nullptr) return "request has no graph";
  if (req.sources.empty()) return "request has no sources";
  for (const Vertex s : req.sources) {
    if (s >= req.graph->num_vertices()) {
      return "source " + std::to_string(s) + " out of range";
    }
  }
  if (req.sources.size() > 1 && !t->multi_source) {
    return t->name + " is single-source (got " +
           std::to_string(req.sources.size()) + " sources)";
  }
  if (req.fault_budget < t->min_fault_budget ||
      req.fault_budget > t->max_fault_budget) {
    std::string range =
        t->max_fault_budget == kUnboundedFaults
            ? ">= " + std::to_string(t->min_fault_budget)
            : std::to_string(t->min_fault_budget) +
                  (t->min_fault_budget == t->max_fault_budget
                       ? ""
                       : ".." + std::to_string(t->max_fault_budget));
    return t->name + " supports fault budget " + range + " (got " +
           std::to_string(req.fault_budget) + ")";
  }
  if (req.fault_model == FaultModel::kVertex && !t->vertex_faults) {
    return t->name + " supports edge faults only";
  }
  return {};
}

BuildResult BuilderRegistry::build(std::string_view name,
                                   const BuildRequest& req) const {
  FTBFS_EXPECTS(unsupported_reason(name, req).empty());
  const BuilderTraits* t = find(name);
  const BuildFn& fn = fns_[static_cast<std::size_t>(t - traits_.data())];
  Timer timer;
  BuildResult out = fn(req);
  out.build_seconds = timer.seconds();
  out.algorithm = t->name;
  if (!t->parallel_build &&
      resolve_jobs(req.options.jobs, req.graph->num_vertices()) > 1) {
    out.counters.emplace_back("parallel_fallback_sequential", 1);
  }
  return out;
}

std::string BuilderRegistry::default_builder(unsigned fault_budget,
                                             FaultModel model,
                                             std::size_t num_sources) {
  if (num_sources > 1) {
    return model == FaultModel::kEdge && fault_budget >= 1 && fault_budget <= 2
               ? "ftmbfs"
               : "approx_ftmbfs";
  }
  if (model == FaultModel::kVertex) return "kfail_ftbfs";
  switch (fault_budget) {
    case 1:
      return "single_ftbfs";
    case 2:
      return "cons2ftbfs";
    default:
      return "kfail_ftbfs";
  }
}

}  // namespace ftbfs
