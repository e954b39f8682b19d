// Tests for the parallel construction schedule (core/build_parallel.h and
// BuildOptions::jobs): the hard invariant is that a build at ANY job count is
// byte-identical to the sequential build — same kept edges, same stats, down
// to every counter the sequential path would have produced — so --jobs can
// never be observed in a structure, a snapshot, or a served response. Also
// the TSan surface: many pool entries building concurrently, each with its
// own jobs>1 crew.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "core/build_parallel.h"
#include "core/cons2ftbfs.h"
#include "core/single_ftbfs.h"
#include "engine/registry.h"
#include "graph/generators.h"
#include "service/oracle_service.h"
#include "service/protocol.h"
#include "spath/bfs.h"
#include "util/concurrency.h"

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

// --- the byte-identity property across every registered family -------------

TEST(ParallelBuild, ByteIdenticalAcrossJobCounts) {
  const BuilderRegistry& reg = BuilderRegistry::instance();
  for (const BuilderTraits& t : reg.traits()) {
    const unsigned f =
        std::max(t.min_fault_budget, std::min(2u, t.max_fault_budget));
    if (f > t.max_fault_budget || f == 0) continue;
    // Heavy constructions (m^f fault-set enumeration) get a smaller graph;
    // everything else a size where the parallel schedule spans many blocks.
    const Vertex n = t.heavy_construction ? 40u : 120u;
    for (const std::uint64_t seed : {7ull, 23ull}) {
      const Graph g = random_connected(n, 3 * n, seed);
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
            t.name + " seed=" + std::to_string(seed) +
            " jobs=" + std::to_string(jobs);
        EXPECT_EQ(base.structure.edges, r.structure.edges) << label;
        expect_same_stats(base.structure.stats, r.structure.stats, label);
        for (const char* key :
             {"probe_baseline", "probe_repair", "probe_search",
              "sweep_baseline", "sweep_repair", "sweep_search",
              "selection_table_bytes"}) {
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
    // One W-sweep per counted kernel call, plus the tree.
    EXPECT_EQ(k.sweeps() + 1, r.structure.stats.dijkstra_runs) << algo;
  }
}

// Cons2FTBFS reports its step-(1) table: one 24-byte slot per fault pair
// (v, e) of step (1) plus 4 bytes per stored detour vertex, so it lies
// between the slots alone and a constant times fault_pairs_considered.
// Single-source single_ftbfs keeps no table and runs no speculation.
TEST(ParallelBuild, SelectionTableBytesAreReported) {
  const Graph g = random_connected(120, 360, 3);
  const BuilderRegistry& reg = BuilderRegistry::instance();
  BuildRequest req;
  req.graph = &g;
  req.sources = {0};
  req.fault_budget = 2;
  const BuildResult cons2 = reg.build("cons2ftbfs", req);
  const FtBfsStats& st = cons2.structure.stats;
  std::uint64_t step1_pairs = 0;
  for (Vertex v = 1; v < g.num_vertices(); ++v) {
    step1_pairs += bfs_distance(g, 0, v);
  }
  EXPECT_EQ(counter_value(cons2, "selection_table_bytes"),
            st.selection_table_bytes);
  EXPECT_GT(st.selection_table_bytes, 24 * step1_pairs);
  EXPECT_LE(st.selection_table_bytes, 28 * st.fault_pairs_considered);

  req.fault_budget = 1;
  req.options.jobs = 4;
  const BuildResult single = reg.build("single_ftbfs", req);
  EXPECT_FALSE(has_counter(single, "selection_table_bytes"));
  EXPECT_FALSE(has_counter(single, "spec_blocks"));
  EXPECT_FALSE(has_counter(single, "spec_conflicts"));
  EXPECT_EQ(counter_value(single, "build_workers"), 4u);
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

TEST(ParallelBuild, RunSpeculateCommitCoversEveryIndexInOrder) {
  constexpr std::size_t kCount = 1000;
  const unsigned workers = 3;
  const std::size_t block = speculative_block_size(workers);
  std::vector<int> speculated(kCount, 0);
  std::vector<std::size_t> committed;
  ParallelBuildReport report;
  run_speculate_commit(
      kCount, workers, /*on_block_start=*/[] {},
      [&](unsigned, std::size_t idx, std::size_t slot) {
        ASSERT_LT(slot, block);
        speculated[idx]++;
      },
      [&](std::size_t idx, std::size_t) { committed.push_back(idx); },
      &report);
  for (std::size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(speculated[i], 1) << i;           // exactly once
    EXPECT_EQ(committed[i], i);                 // in order
  }
  EXPECT_EQ(report.speculated, kCount);
  EXPECT_GE(report.blocks, kCount / block);
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
