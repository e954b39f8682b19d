// Tests for the parallel construction schedule (core/build_parallel.h and
// BuildOptions::jobs): the hard invariant is that a build at ANY job count is
// byte-identical to the sequential build — same kept edges, same stats, down
// to every counter the sequential path would have produced — so --jobs can
// never be observed in a structure, a snapshot, or a served response. Also
// the TSan surface: many pool entries building concurrently, each with its
// own jobs>1 crew.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/build_parallel.h"
#include "core/cons2ftbfs.h"
#include "core/selector.h"
#include "core/single_ftbfs.h"
#include "engine/registry.h"
#include "graph/generators.h"
#include "service/oracle_service.h"
#include "service/protocol.h"
#include "spath/weights.h"
#include "util/concurrency.h"
#include "util/rng.h"

namespace ftbfs {
namespace {

// Every field but the phase timings (step1_seconds, steps23_seconds), which
// like BuildResult::build_seconds vary run to run.
void expect_same_stats(const FtBfsStats& a, const FtBfsStats& b,
                       const std::string& label) {
  EXPECT_EQ(a.tree_edges, b.tree_edges) << label;
  EXPECT_EQ(a.new_edges, b.new_edges) << label;
  EXPECT_EQ(a.max_new_per_vertex, b.max_new_per_vertex) << label;
  EXPECT_EQ(a.fault_pairs_considered, b.fault_pairs_considered) << label;
  EXPECT_EQ(a.dijkstra_runs, b.dijkstra_runs) << label;
  EXPECT_EQ(a.divergence_fallbacks, b.divergence_fallbacks) << label;
  EXPECT_EQ(a.selection_table_bytes, b.selection_table_bytes) << label;
  EXPECT_EQ(a.kernels, b.kernels) << label;  // how each kernel call was answered
  EXPECT_EQ(a.classes.single, b.classes.single) << label;
  EXPECT_EQ(a.classes.a_pi_pi, b.classes.a_pi_pi) << label;
  EXPECT_EQ(a.classes.b_nodet, b.classes.b_nodet) << label;
  EXPECT_EQ(a.classes.c_indep, b.classes.c_indep) << label;
  EXPECT_EQ(a.classes.d_pi_interf, b.classes.d_pi_interf) << label;
  EXPECT_EQ(a.classes.e_d_interf, b.classes.e_d_interf) << label;
  EXPECT_EQ(a.max_classes_per_vertex.single, b.max_classes_per_vertex.single)
      << label;
  EXPECT_EQ(a.max_classes_per_vertex.total(), b.max_classes_per_vertex.total())
      << label;
}

std::uint64_t counter_value(const BuildResult& r, const std::string& key) {
  for (const auto& [name, value] : r.counters) {
    if (name == key) return value;
  }
  return 0;
}

bool has_counter(const BuildResult& r, const std::string& key) {
  for (const auto& [name, value] : r.counters) {
    if (name == key) return true;
  }
  return false;
}

// Cons2FTBFS's step-(1) pairs (v, e), e on π(s, v), counted with the
// single-target selection: all of them, those where e cuts v off (e is a
// bridge), and the detour vertices of the rest.
struct Step1Census {
  std::uint64_t pairs = 0;
  std::uint64_t cut_pairs = 0;
  std::uint64_t detour_verts = 0;
};

Step1Census step1_census(const Graph& g, Vertex s) {
  const WeightAssignment w(g, Cons2Options{}.weight_seed);
  const SelectorBaseline base(g, w, s);
  PathSelector sel(g, w, &base);
  VertexIndexMap pi_pos(g.num_vertices());
  Step1Census c;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    if (v == s || !base.tree().reached(v)) continue;
    const Path pi = extract_path(base.tree(), v);
    pi_pos.bind(pi);
    for (std::size_t i = 0; i + 1 < pi.size(); ++i) {
      ++c.pairs;
      const auto choice = select_single_fault(sel, pi, pi_pos, i);
      if (choice.has_value()) {
        c.detour_verts += choice->detour.size();
      } else {
        ++c.cut_pairs;
      }
    }
  }
  return c;
}

// --- the byte-identity property across every registered family -------------

TEST(ParallelBuild, ByteIdenticalAcrossJobCounts) {
  const BuilderRegistry& reg = BuilderRegistry::instance();
  for (const BuilderTraits& t : reg.traits()) {
    const unsigned f =
        std::max(t.min_fault_budget, std::min(2u, t.max_fault_budget));
    if (f > t.max_fault_budget || f == 0) continue;
    // Heavy constructions (m^f fault-set enumeration) get smaller graphs;
    // everything else a size where many targets run concurrently. The grid
    // is where most targets wait on a lower neighbour across a non-tree edge.
    const Vertex n = t.heavy_construction ? 40u : 120u;
    const Vertex side = t.heavy_construction ? 6u : 11u;
    const std::vector<std::pair<std::string, Graph>> inputs = {
        {"connected seed=7", random_connected(n, 3 * n, 7)},
        {"connected seed=23", random_connected(n, 3 * n, 23)},
        {"grid " + std::to_string(side), grid_graph(side, side)},
    };
    for (const auto& [input, g] : inputs) {
      BuildRequest req;
      req.graph = &g;
      req.sources = {0};
      req.fault_budget = f;
      req.collect_stats = true;  // classification must replay identically too
      req.options.jobs = 1;
      const BuildResult base = reg.build(t.name, req);
      for (const unsigned jobs : {2u, 4u, 8u}) {
        req.options.jobs = jobs;
        const BuildResult r = reg.build(t.name, req);
        const std::string label =
            t.name + " " + input + " jobs=" + std::to_string(jobs);
        EXPECT_EQ(base.structure.edges, r.structure.edges) << label;
        expect_same_stats(base.structure.stats, r.structure.stats, label);
        for (const char* key :
             {"probe_baseline", "probe_backward", "probe_repair",
              "probe_search", "sweep_baseline", "sweep_backward",
              "sweep_repair", "sweep_search", "backward_abandoned",
              "backward_vertices", "selection_table_bytes"}) {
          EXPECT_EQ(has_counter(base, key), has_counter(r, key)) << label;
          EXPECT_EQ(counter_value(base, key), counter_value(r, key))
              << label << " " << key;
        }
        if (t.parallel_build) {
          // The schedule must report itself and never fall back.
          EXPECT_GT(counter_value(r, "build_workers"), 1u) << label;
          EXPECT_FALSE(has_counter(r, "parallel_fallback_sequential"))
              << label;
        } else {
          // Honesty counter: the family ignored jobs and said so.
          EXPECT_EQ(counter_value(r, "parallel_fallback_sequential"), 1u)
              << label;
        }
      }
    }
  }
}

// The selection-kernel counters reach the registry for every family that
// runs the kernels, and the builds exercise the cut-region repair.
TEST(ParallelBuild, KernelCountersAreReported) {
  const Graph g = random_connected(120, 360, 3);
  const BuilderRegistry& reg = BuilderRegistry::instance();
  for (const char* algo : {"single_ftbfs", "cons2ftbfs", "ftmbfs"}) {
    BuildRequest req;
    req.graph = &g;
    req.sources = {0};
    req.fault_budget = std::string(algo) == "single_ftbfs" ? 1 : 2;
    const BuildResult r = reg.build(algo, req);
    const KernelCounts& k = r.structure.stats.kernels;
    EXPECT_GT(k.probe_repair, 0u) << algo;
    EXPECT_GT(k.sweep_repair, 0u) << algo;
    EXPECT_EQ(counter_value(r, "probe_repair"), k.probe_repair) << algo;
    EXPECT_EQ(counter_value(r, "sweep_search"), k.sweep_search) << algo;
    EXPECT_EQ(counter_value(r, "probe_backward"), k.probe_backward) << algo;
    EXPECT_EQ(counter_value(r, "sweep_backward"), k.sweep_backward) << algo;
    EXPECT_EQ(counter_value(r, "backward_abandoned"), k.backward_abandoned)
        << algo;
    EXPECT_EQ(counter_value(r, "backward_vertices"), k.backward_vertices)
        << algo;
    // One W-sweep per counted kernel call, plus the tree.
    EXPECT_EQ(k.sweeps() + 1, r.structure.stats.dijkstra_runs) << algo;
    if (std::string(algo) != "single_ftbfs") {
      // Steps 2–3 bound their single-target calls: some search backward.
      EXPECT_GT(k.probe_backward, 0u) << algo;
      EXPECT_GT(k.backward_vertices, k.probe_backward) << algo;
    }
  }
}

// Cons2FTBFS reports the step-(1) selections it keeps: 24 bytes per fault
// pair (v, e) of step (1) with e not a bridge, plus 4 bytes per detour
// vertex, so they lie between those pairs' 24 bytes alone and a constant
// times fault_pairs_considered. Single-source single_ftbfs keeps no
// selections. Neither build reports the counters of the retired speculative
// schedule.
TEST(ParallelBuild, SelectionTableBytesAreReported) {
  const Graph g = random_connected(120, 360, 3);
  const BuilderRegistry& reg = BuilderRegistry::instance();
  BuildRequest req;
  req.graph = &g;
  req.sources = {0};
  req.fault_budget = 2;
  const BuildResult cons2 = reg.build("cons2ftbfs", req);
  const FtBfsStats& st = cons2.structure.stats;
  const Step1Census c = step1_census(g, 0);
  EXPECT_EQ(counter_value(cons2, "selection_table_bytes"),
            st.selection_table_bytes);
  EXPECT_FALSE(has_counter(cons2, "spec_blocks"));
  EXPECT_FALSE(has_counter(cons2, "spec_conflicts"));
  EXPECT_GT(st.selection_table_bytes, 24 * (c.pairs - c.cut_pairs));
  EXPECT_LE(st.selection_table_bytes, 28 * st.fault_pairs_considered);

  req.fault_budget = 1;
  req.options.jobs = 4;
  const BuildResult single = reg.build("single_ftbfs", req);
  EXPECT_FALSE(has_counter(single, "selection_table_bytes"));
  EXPECT_FALSE(has_counter(single, "spec_blocks"));
  EXPECT_FALSE(has_counter(single, "spec_conflicts"));
  EXPECT_EQ(counter_value(single, "build_workers"), 4u);
}

// Step (1) keeps each tree edge's batch, 24 bytes per choice and 4 per
// detour vertex, but not a bridge's: removing a tree edge cuts off all of its
// subtree or none of it. So the bytes are 24 per step-(1) pair plus 4 per
// detour vertex, less 24 per pair below a bridge: all pairs on a path, those
// below the unchorded end segments of a path with chords, and none on a
// barbell whose two cliques are joined by three edges. Like every stats
// field, they are the same at every job count.
TEST(ParallelBuild, SelectionBytesLeaveOutBridges) {
  const std::vector<std::pair<std::string, Graph>> inputs = {
      {"path 80", path_graph(80)},
      {"barbell 40", barbell_graph(40, 3)},
      {"chords 150", path_with_chords(150, 30, 5)},
  };
  for (const auto& [input, g] : inputs) {
    const Step1Census c = step1_census(g, 0);
    const std::uint64_t with_bridges = 24 * c.pairs + 4 * c.detour_verts;
    Cons2Options opt;
    opt.jobs = 1;
    const FtStructure base = build_cons2ftbfs(g, 0, opt);
    EXPECT_EQ(base.stats.selection_table_bytes,
              with_bridges - 24 * c.cut_pairs)
        << input;
    for (const unsigned jobs : {2u, 4u, 8u}) {
      opt.jobs = jobs;
      const FtStructure h = build_cons2ftbfs(g, 0, opt);
      const std::string label = input + " jobs=" + std::to_string(jobs);
      EXPECT_EQ(base.edges, h.edges) << label;
      expect_same_stats(base.stats, h.stats, label);
    }
    if (input == "path 80") {
      EXPECT_EQ(base.stats.selection_table_bytes, 0u);
    } else if (input == "chords 150") {
      EXPECT_GT(c.cut_pairs, 0u);
      EXPECT_LT(base.stats.selection_table_bytes, with_bridges);
    } else {
      EXPECT_EQ(c.cut_pairs, 0u) << input;
    }
  }
}

// jobs=0 (auto) resolves to the hardware-clamped crew and must be just as
// invisible in the output as an explicit count.
TEST(ParallelBuild, AutoJobsMatchesSequential) {
  const Graph g = random_connected(90, 270, 11);
  const BuilderRegistry& reg = BuilderRegistry::instance();
  BuildRequest req;
  req.graph = &g;
  req.sources = {0};
  req.fault_budget = 2;
  req.options.jobs = 1;
  const BuildResult base = reg.build("cons2ftbfs", req);
  req.options.jobs = 0;
  const BuildResult auto_built = reg.build("cons2ftbfs", req);
  EXPECT_EQ(base.structure.edges, auto_built.structure.edges);
  expect_same_stats(base.structure.stats, auto_built.structure.stats, "auto");
}

// The progress counter counts every fault pair (v, e) exactly once, at any
// job count: its final value is fault_pairs_considered.
TEST(ParallelBuild, ProgressCountsEveryTargetOnce) {
  const Graph g = random_connected(100, 300, 5);
  for (const unsigned jobs : {1u, 2u, 4u}) {
    std::atomic<std::uint64_t> single_progress{0};
    SingleFtbfsOptions single;
    single.jobs = jobs;
    single.progress = &single_progress;
    const FtStructure hs = build_single_ftbfs(g, 0, single);
    EXPECT_GT(hs.stats.fault_pairs_considered, g.num_vertices() - 1);
    EXPECT_EQ(single_progress.load(), hs.stats.fault_pairs_considered)
        << "single jobs=" << jobs;

    std::atomic<std::uint64_t> cons2_progress{0};
    Cons2Options cons2;
    cons2.jobs = jobs;
    cons2.progress = &cons2_progress;
    const FtStructure hc = build_cons2ftbfs(g, 0, cons2);
    EXPECT_GT(hc.stats.fault_pairs_considered, hs.stats.fault_pairs_considered);
    EXPECT_EQ(cons2_progress.load(), hc.stats.fault_pairs_considered)
        << "cons2 jobs=" << jobs;
  }
}

// --- serve golden identity: build_jobs must be invisible on the wire --------

TEST(ParallelBuild, ServeGoldenIdenticalAcrossBuildJobs) {
  const Graph g = random_connected(80, 240, 31);
  // A fixed request list exercising lazy builds (distance + path + faults).
  std::vector<QueryRequest> requests;
  for (std::uint64_t i = 0; i < 12; ++i) {
    QueryRequest req;
    req.id = static_cast<std::int64_t>(i + 1);
    req.source = static_cast<Vertex>(i % 3);
    req.targets = {static_cast<Vertex>(10 + i), static_cast<Vertex>(79 - i)};
    req.fault_edges = {static_cast<EdgeId>(i), static_cast<EdgeId>(i + 40)};
    if (i % 3 == 0) req.kind = QueryKind::kPath;
    requests.push_back(std::move(req));
  }

  std::vector<std::string> golden;
  for (const unsigned jobs : {1u, 2u, 4u, 8u}) {
    ServiceConfig config;
    config.lazy_build = true;
    config.default_budget = 2;
    config.cache_capacity = 16;
    config.build_jobs = jobs;
    OracleService service(g, config);
    std::vector<std::string> lines;
    for (const QueryRequest& req : requests) {
      lines.push_back(format_response_line(service.serve(req)));
    }
    if (jobs == 1) {
      golden = std::move(lines);
      ASSERT_FALSE(golden.empty());
    } else {
      EXPECT_EQ(golden, lines) << "build_jobs=" << jobs;
    }
  }
}

// --- TSan hammer: concurrent pool builds, each with its own jobs>1 crew -----

TEST(ParallelBuild, ConcurrentPoolBuildsWithParallelJobs) {
  const Graph g = random_connected(64, 192, 13);
  ServiceConfig config;
  config.lazy_build = false;
  config.build_jobs = 4;  // every build_structure below spawns its own crew
  OracleService service(g, config);

  constexpr unsigned kThreads = 6;
  std::vector<std::thread> crew;
  crew.reserve(kThreads);
  for (unsigned w = 0; w < kThreads; ++w) {
    crew.emplace_back([&service, w] {
      for (unsigned i = 0; i < 2; ++i) {
        const Vertex source = static_cast<Vertex>((w * 2 + i) % 8);
        service.build_structure("h" + std::to_string(w) + "_" +
                                    std::to_string(i),
                                source, i == 0 ? 1u : 2u, FaultModel::kEdge);
      }
    });
  }
  for (std::thread& t : crew) t.join();
  // Identity engine + every build.
  EXPECT_EQ(service.pool_size(), std::size_t{1} + kThreads * 2);

  // Spot-check determinism against a sequentially-built twin.
  ServiceConfig seq_config = config;
  seq_config.build_jobs = 1;
  OracleService twin(g, seq_config);
  twin.build_structure("h0_0", 0, 1, FaultModel::kEdge);
  QueryRequest req;
  req.source = 0;
  req.targets = {17, 42, 63};
  req.fault_edges = {3};
  req.structure = "h0_0";
  EXPECT_EQ(format_response_line(twin.serve(req)),
            format_response_line(service.serve(req)));
}

// --- the schedule helper itself --------------------------------------------

// Random DAGs whose edges run from lower to higher indices, at every worker
// count: each index runs exactly once, never before all its predecessors have
// committed, and one worker runs them in ascending order.
TEST(ParallelBuild, DependencyOrderRespectsPredecessors) {
  constexpr std::size_t kCount = 400;
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    Rng rng(seed);
    std::vector<std::vector<std::size_t>> preds(kCount), succs(kCount);
    std::vector<std::uint32_t> pending(kCount, 0);
    for (std::size_t j = 1; j < kCount; ++j) {
      // A few nearby predecessors, so that chains and fan-in both occur.
      const std::size_t k = rng.next_below(4);
      for (std::size_t c = 0; c < k; ++c) {
        const std::size_t i =
            j - 1 - rng.next_below(std::min<std::size_t>(j, 8));
        if (std::find(preds[j].begin(), preds[j].end(), i) != preds[j].end()) {
          continue;
        }
        preds[j].push_back(i);
        succs[i].push_back(j);
        ++pending[j];
      }
    }
    for (const unsigned workers : {1u, 2u, 4u, 8u}) {
      const std::string label =
          "seed=" + std::to_string(seed) + " workers=" + std::to_string(workers);
      std::vector<std::atomic<int>> runs(kCount);
      std::vector<std::atomic<bool>> committed(kCount);
      std::vector<std::size_t> order;  // commit order, under the commit mutex
      std::atomic<std::size_t> early{0};
      run_in_dependency_order(
          pending, workers,
          [&](unsigned worker, std::size_t idx) {
            EXPECT_LT(worker, workers);
            runs[idx].fetch_add(1);
            for (const std::size_t p : preds[idx]) {
              if (!committed[p].load()) early.fetch_add(1);
            }
            // Hold the index long enough for others to start alongside it.
            std::this_thread::sleep_for(std::chrono::microseconds(20));
          },
          [&](unsigned, std::size_t idx, const ReleaseFn& release) {
            committed[idx].store(true);
            order.push_back(idx);
            for (const std::size_t j : succs[idx]) release(j);
          });
      EXPECT_EQ(early.load(), 0u) << label;
      ASSERT_EQ(order.size(), kCount) << label;
      for (std::size_t i = 0; i < kCount; ++i) {
        EXPECT_EQ(runs[i].load(), 1) << label << " idx=" << i;
        if (workers == 1) {
          EXPECT_EQ(order[i], i) << label;
        }
      }
    }
  }
}

TEST(ParallelBuild, ResolveJobsPolicy) {
  // 0 = auto: hardware-clamped, never 0.
  EXPECT_GE(resolve_jobs(0, 1000), 1u);
  EXPECT_LE(resolve_jobs(0, 1000), hardware_workers());
  // Explicit counts are honored beyond the hardware (oversubscription is how
  // this suite exercises real interleavings on small machines)...
  EXPECT_EQ(resolve_jobs(8, 1000), 8u);
  // ...but never beyond the work or the sanity ceiling.
  EXPECT_EQ(resolve_jobs(8, 3), 3u);
  EXPECT_EQ(resolve_jobs(100000, 1u << 20), kMaxJobs);
  EXPECT_EQ(resolve_jobs(1, 1000), 1u);
}

}  // namespace
}  // namespace ftbfs
