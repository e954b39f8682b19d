// Steady-state serving must not allocate on the query hot path: after one
// warm-up pass (which sizes the canon buffers, the repair scratch — parents
// included — the Dial buckets, and the BFS target stamps), every further
// engine query — fast path, repair path, and full-BFS fallback alike — runs
// on reused buffers; the scenario cache's probe/read path is equally clean
// (packed keys into a reused word buffer, hits read through at()). This
// binary overrides the global allocator with a counting shim and asserts
// the per-query count is exactly zero across a mixed workload. The wire path
// is held to the same bar: a request line parsed into a reused
// ParsedRequest, and a response appended to a reused buffer.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "engine/query_engine.h"
#include "graph/generators.h"
#include "service/protocol.h"
#include "service/shard.h"
#include "service/tenant.h"
#include "spath/bfs.h"
#include "util/rng.h"

namespace {

std::atomic<std::size_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

// Over-aligned forms too, so an aligned container sneaking onto the query
// path cannot allocate past the counter unnoticed.
void* operator new(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(align);
  const std::size_t rounded = (std::max<std::size_t>(size, 1) + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return operator new(size, align);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace ftbfs {
namespace {

// Allocation count across a callable, kept EXPECT-free inside the window so
// gtest's own bookkeeping never pollutes the measurement.
template <typename Fn>
std::size_t allocations_during(Fn&& fn) {
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  fn();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

TEST(ZeroAlloc, CanonicalFaultSetAssignReusesBuffers) {
  std::vector<EdgeId> edges = {9, 3, 3, 7, 1};
  std::vector<Vertex> vertices = {4, 4, 2};
  CanonicalFaultSet canon;
  canon.assign(FaultSpec{edges, vertices});  // warm-up sizes the buffers
  const std::size_t count = allocations_during([&] {
    for (int i = 0; i < 100; ++i) {
      edges[0] = static_cast<EdgeId>(i % 11);
      canon.assign(FaultSpec{edges, vertices});
    }
  });
  EXPECT_EQ(count, 0u);
}

TEST(ZeroAlloc, EngineQueriesAreAllocationFreeWhenWarm) {
  const Graph g = erdos_renyi(96, 0.08, 11);
  FaultQueryEngine engine(g);
  Bfs bfs(g);
  const BfsResult tree = bfs.run(0);

  // A workload that exercises all three tiers: non-tree faults (fast path),
  // tree faults (repair), and a damaged parent-exposing query (full BFS).
  Rng rng(5);
  std::vector<std::vector<EdgeId>> fault_pool(16);
  for (auto& faults : fault_pool) {
    for (std::uint64_t k = rng.next_below(3); k > 0; --k) {
      if (rng.next_below(2) == 0) {
        const Vertex v = static_cast<Vertex>(rng.next_below(g.num_vertices()));
        if (tree.parent_edge[v] != kInvalidEdge) {
          faults.push_back(tree.parent_edge[v]);
          continue;
        }
      }
      faults.push_back(static_cast<EdgeId>(rng.next_below(g.num_edges())));
    }
  }
  // A faulted source is the one guaranteed full-BFS customer left now that
  // damaged parent-exposing queries repair instead of falling back.
  const Vertex source_fault[1] = {0};
  const auto run_workload = [&] {
    for (std::size_t i = 0; i < fault_pool.size(); ++i) {
      const FaultSpec spec = edge_faults(fault_pool[i]);
      (void)engine.all_distances(0, spec);
      (void)engine.distance(0, static_cast<Vertex>(1 + i % 90), spec);
      (void)engine.query(0, spec);
    }
    (void)engine.all_distances(0, vertex_faults(source_fault));
  };
  run_workload();  // warm-up: baselines, repair scratch, Dial buckets
  const std::size_t count = allocations_during(run_workload);
  EXPECT_EQ(count, 0u);
  // The workload genuinely crossed all three tiers.
  const FaultQueryEngine::PathStats stats = engine.path_stats();
  EXPECT_GT(stats.fast_path_hits, 0u);
  EXPECT_GT(stats.repair_bfs, 0u);
  EXPECT_GT(stats.full_bfs, 0u);
}

TEST(ZeroAlloc, CacheProbeAndReadPathAreAllocationFree) {
  ShardedScenarioCache cache(64, 4);
  // One full line and one delta line, both warm.
  std::vector<std::uint32_t> words = {1, 0, 2, 7, 9};
  const auto key_of = [&](std::uint32_t entry) {
    words[0] = entry;
    return ScenarioKeyView{scenario_fingerprint(words), words};
  };
  const std::vector<std::uint32_t> baseline(128, 3);
  {
    auto full = cache.probe(key_of(1), true);
    ASSERT_TRUE(full.owner);
    ShardedScenarioCache::fill(*full.line, baseline);
    auto delta = cache.probe(key_of(2), true);
    ASSERT_TRUE(delta.owner);
    ShardedScenarioCache::fill_delta(*delta.line, &baseline,
                                     {(std::uint64_t{5} << 32) | 8u});
  }
  std::vector<std::uint32_t> out(128, 0);  // pre-sized materialize target
  const std::size_t count = allocations_during([&] {
    for (int i = 0; i < 100; ++i) {
      // Hit path: fingerprint + probe + per-target reads, no owner work.
      auto full = cache.probe(key_of(1), false);
      auto delta = cache.probe(key_of(2), false);
      if (!full.hit || !delta.hit) return;  // EXPECT after the window
      ShardedScenarioCache::wait(*full.line);
      ShardedScenarioCache::wait(*delta.line);
      if (ShardedScenarioCache::at(*full.line, 5) +
              ShardedScenarioCache::at(*delta.line, 5) !=
          3u + 8u) {
        return;
      }
      ShardedScenarioCache::materialize(*delta.line, out);
    }
  });
  EXPECT_EQ(count, 0u);
  EXPECT_EQ(out[5], 8u);
  EXPECT_EQ(out[0], 3u);
}

TEST(ZeroAlloc, LeasedQueriesAreAllocationFreeWhenWarm) {
  const Graph g = grid_graph(10, 10);
  FaultQueryEngine engine(g);
  Bfs bfs(g);
  const BfsResult tree = bfs.run(0);
  const std::vector<EdgeId> tree_fault = {tree.parent_edge[55]};
  // Grid edge {10,11}: both endpoints are discovered through other edges
  // (11 via row 0), so this is a non-tree cross edge — the fast path.
  const std::vector<EdgeId> cross_fault = {g.find_edge(10, 11)};
  FaultQueryEngine::ScratchLease lease = engine.acquire_scratch();
  (void)engine.all_distances(lease, 0, edge_faults(tree_fault));
  (void)engine.all_distances(lease, 0, edge_faults(cross_fault));
  const std::size_t count = allocations_during([&] {
    for (int i = 0; i < 50; ++i) {
      (void)engine.all_distances(lease, 0, edge_faults(tree_fault));
      (void)engine.distance(lease, 0, 99, edge_faults(cross_fault));
    }
  });
  EXPECT_EQ(count, 0u);
}

// The serve-cached request mix: distance with 4 targets, reachability,
// all_distances, 0–2 fault edges, and a pinned structure.
TEST(ZeroAlloc, WireParseAndFormatAreAllocationFreeWhenWarm) {
  const Graph g = cycle_graph(64);
  const GraphResolver resolve = [&g](const std::string& tenant) {
    return tenant.empty() ? &g : nullptr;
  };
  const std::vector<std::string> lines = {
      R"({"id":1,"source":0,"kind":"distance","targets":[3,9,17,40]})",
      R"({"id":2,"source":0,"kind":"reachability","targets":[5],)"
      R"("fault_edges":[[0,1]]})",
      R"({"id":3,"source":0,"kind":"all_distances","fault_edges":[[0,1],)"
      R"([10,11]]})",
      R"({"id":4,"source":0,"kind":"distance","targets":[3,9,17,40],)"
      R"("fault_edges":[[20,21],[40,41]]})",
      R"({"id":5,"source":0,"kind":"distance","targets":[3,9,17,40],)"
      R"("structure":"identity"})",
  };
  std::vector<QueryResponse> responses(lines.size());
  for (std::size_t i = 0; i < responses.size(); ++i) {
    QueryResponse& r = responses[i];
    r.id = static_cast<std::int64_t>(1000000 + i);
    r.exact = true;
    r.served_by = "cons2ftbfs@s0f2";
    r.cache_hit = true;
    r.distances = {3, 9, 17, kInfHops};
  }
  responses[1].distances.clear();
  responses[1].reachable = {true};
  responses[2].distances.assign(g.num_vertices(), 31);
  responses[4].served_by = "identity";

  ParsedRequest parsed;
  std::string out;
  bool parsed_ok = true;
  const auto run_mix = [&] {
    for (std::size_t i = 0; i < lines.size(); ++i) {
      parse_request_into(lines[i], resolve, parsed);
      parsed_ok = parsed_ok && parsed.status == ParseStatus::kOk;
      out.clear();
      append_response_line(out, responses[i]);
    }
  };
  run_mix();  // warm-up: sizes the request vectors and the output buffer
  const std::size_t count = allocations_during([&] {
    for (int i = 0; i < 100; ++i) run_mix();
  });
  EXPECT_EQ(count, 0u);
  EXPECT_TRUE(parsed_ok);
  EXPECT_EQ(parsed.request.structure, "identity");
  EXPECT_EQ(out, format_response_line(responses.back()));
}

// The serve loops' parse phase: a LineJob that parses into the loop's reused
// ParsedRequest, routing and pinning its tenant, allocates nothing once warm.
TEST(ZeroAlloc, LineJobParseIntoAReusedRequestIsAllocationFreeWhenWarm) {
  TenantRegistry registry;
  registry.add("default", cycle_graph(64));
  WireCounters counters;
  const std::vector<std::string> lines = {
      R"({"id":1,"source":0,"kind":"distance","targets":[3,9,17,40]})",
      R"({"id":2,"source":0,"targets":[5],"fault_edges":[[0,1]],)"
      R"("tenant":"default"})",
      R"({"id":3,"source":0,"kind":"all_distances","fault_edges":[[0,1],)"
      R"([10,11]]})",
  };
  ParsedRequest parsed;
  bool parsed_ok = true;
  const auto run_mix = [&] {
    for (std::size_t i = 0; i < lines.size(); ++i) {
      const LineJob job(registry, lines[i], static_cast<std::int64_t>(i),
                        false, counters, parsed);
      parsed_ok = parsed_ok && parsed.status == ParseStatus::kOk;
    }
  };
  run_mix();  // warm-up: sizes the request's vectors and tenant string
  const std::size_t count = allocations_during([&] {
    for (int i = 0; i < 100; ++i) run_mix();
  });
  EXPECT_EQ(count, 0u);
  EXPECT_TRUE(parsed_ok);
  EXPECT_EQ(counters.parse_errors.load(), 0u);
  EXPECT_EQ(registry.default_tenant()->pins.load(), 0u);
}

}  // namespace
}  // namespace ftbfs
