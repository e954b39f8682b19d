// Fault queries over a registry-built structure H, asked two ways: through
// OracleService with every request pinned to H's pool entry, and through a
// FaultQueryEngine over H directly. Within the fault budget both must answer
// exactly what a BFS of G minus the faults does.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "engine/query_engine.h"
#include "engine/registry.h"
#include "graph/generators.h"
#include "graph/mask.h"
#include "service/oracle_service.h"
#include "spath/bfs.h"
#include "spath/path.h"
#include "util/rng.h"

namespace ftbfs {
namespace {

constexpr const char* kEntry = "h";

// No lazy builds: a pinned request is answered by H or refused.
ServiceConfig pinned_config() {
  ServiceConfig config;
  config.lazy_build = false;
  return config;
}

// A service holding the registry's default structure for budget f, built
// from source 0 under the name kEntry.
struct PinnedService {
  OracleService service;
  std::size_t entry;

  PinnedService(const Graph& g, unsigned f)
      : service(g, pinned_config()),
        entry(service.build_structure(kEntry, 0, f, FaultModel::kEdge)) {}

  QueryResponse serve(QueryKind kind, std::vector<Vertex> targets,
                      std::vector<EdgeId> faults) {
    QueryRequest req;
    req.source = 0;
    req.kind = kind;
    req.targets = std::move(targets);
    req.fault_edges = std::move(faults);
    req.structure = kEntry;
    QueryResponse resp = service.serve(req);
    EXPECT_EQ(resp.served_by, kEntry);
    EXPECT_TRUE(resp.exact);
    return resp;
  }

  std::uint32_t distance(Vertex v, std::vector<EdgeId> faults) {
    return serve(QueryKind::kDistance, {v}, std::move(faults)).distances.at(0);
  }
};

// The same registry structure, for the engine-direct checks.
FtStructure build_default(const Graph& g, unsigned f) {
  BuildRequest req;
  req.graph = &g;
  req.sources = {0};
  req.fault_budget = f;
  return BuilderRegistry::instance()
      .build(BuilderRegistry::default_builder(f), req)
      .structure;
}

// Ground truth: the hop distance 0 → v in G minus the faults.
std::uint32_t truth_distance(const Graph& g, Vertex v,
                             const std::vector<EdgeId>& faults) {
  GraphMask mask(g);
  for (const EdgeId e : faults) mask.block_edge(e);
  return bfs_distance(g, 0, v, &mask);
}

TEST(Oracle, FaultFreeMatchesBfs) {
  const Graph g = erdos_renyi(60, 0.1, 3);
  PinnedService pinned(g, 2);
  FaultQueryEngine engine(g, build_default(g, 2));
  Bfs bfs(g);
  const BfsResult& r = bfs.run(0);
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(pinned.distance(v, {}), r.hops[v]);
    EXPECT_EQ(engine.distance(0, v, {}), r.hops[v]);
  }
}

TEST(Oracle, SingleFaultMatchesGroundTruth) {
  const Graph g = erdos_renyi(50, 0.12, 7);
  PinnedService pinned(g, 1);
  FaultQueryEngine engine(g, build_default(g, 1));
  Bfs bfs(g);
  GraphMask mask(g);
  for (EdgeId e = 0; e < g.num_edges(); e += 3) {
    mask.clear();
    mask.block_edge(e);
    const BfsResult& truth = bfs.run(0, &mask);
    const std::vector<EdgeId> faults = {e};
    const QueryResponse resp =
        pinned.serve(QueryKind::kAllDistances, {}, faults);
    ASSERT_EQ(resp.distances, truth.hops) << "edge " << e;
    ASSERT_EQ(engine.all_distances(0, edge_faults(faults)), truth.hops)
        << "edge " << e;
  }
}

TEST(Oracle, DualFaultRandomProbes) {
  const Graph g = erdos_renyi(40, 0.15, 11);
  PinnedService pinned(g, 2);
  FaultQueryEngine engine(g, build_default(g, 2));
  Bfs bfs(g);
  GraphMask mask(g);
  Rng rng(5);
  for (int probe = 0; probe < 200; ++probe) {
    const EdgeId e1 = static_cast<EdgeId>(rng.next_below(g.num_edges()));
    const EdgeId e2 = static_cast<EdgeId>(rng.next_below(g.num_edges()));
    if (e1 == e2) continue;
    mask.clear();
    mask.block_edge(e1);
    mask.block_edge(e2);
    const BfsResult& truth = bfs.run(0, &mask);
    const std::vector<EdgeId> faults = {e1, e2};
    const Vertex v = static_cast<Vertex>(rng.next_below(g.num_vertices()));
    EXPECT_EQ(pinned.distance(v, faults), truth.hops[v]);
    EXPECT_EQ(engine.distance(0, v, edge_faults(faults)), truth.hops[v]);
  }
}

TEST(Oracle, ShortestPathValidAndOptimal) {
  const Graph g = erdos_renyi(40, 0.15, 13);
  PinnedService pinned(g, 2);
  FaultQueryEngine engine(g, build_default(g, 2));
  const std::vector<EdgeId> faults = {2, 9};
  for (Vertex v = 1; v < g.num_vertices(); v += 4) {
    const QueryResponse resp = pinned.serve(QueryKind::kPath, {v}, faults);
    const std::uint32_t d = truth_distance(g, v, faults);
    ASSERT_EQ(resp.distances.at(0), d);
    const std::optional<Path> direct =
        engine.shortest_path(0, v, edge_faults(faults));
    if (d == kInfHops) {
      EXPECT_EQ(resp.status, StatusCode::kDisconnected);
      EXPECT_TRUE(resp.paths.at(0).empty());
      EXPECT_FALSE(direct.has_value());
      continue;
    }
    ASSERT_TRUE(direct.has_value());
    for (const Path& p : {resp.paths.at(0), *direct}) {
      EXPECT_EQ(p.size() - 1, d);
      EXPECT_EQ(p.front(), 0u);
      EXPECT_EQ(p.back(), v);
      EXPECT_TRUE(is_simple_path_in(g, p));
      for (const EdgeId f : faults) EXPECT_FALSE(contains_edge(g, p, f));
    }
  }
}

TEST(Oracle, DisconnectionReported) {
  const Graph g = path_graph(6);
  PinnedService pinned(g, 1);
  FaultQueryEngine engine(g, build_default(g, 1));
  const std::vector<EdgeId> faults = {g.find_edge(2, 3)};
  const QueryResponse dist = pinned.serve(QueryKind::kDistance, {5}, faults);
  EXPECT_EQ(dist.status, StatusCode::kDisconnected);
  EXPECT_EQ(dist.distances.at(0), kInfHops);
  const QueryResponse path = pinned.serve(QueryKind::kPath, {5}, faults);
  EXPECT_EQ(path.status, StatusCode::kDisconnected);
  EXPECT_TRUE(path.paths.at(0).empty());
  EXPECT_EQ(engine.distance(0, 5, edge_faults(faults)), kInfHops);
  EXPECT_FALSE(engine.shortest_path(0, 5, edge_faults(faults)).has_value());
}

TEST(Oracle, FZeroIsPlainTree) {
  const Graph g = erdos_renyi(30, 0.2, 17);
  PinnedService pinned(g, 0);
  EXPECT_EQ(pinned.service.entry_edges(pinned.entry), g.num_vertices() - 1);
  EXPECT_EQ(pinned.distance(7, {}), bfs_distance(g, 0, 7));
  // Any fault is past budget 0: an exact request refuses instead of
  // answering from the tree.
  QueryRequest req;
  req.targets = {7};
  req.fault_edges = {0};
  req.structure = kEntry;
  EXPECT_EQ(pinned.service.serve(req).status, StatusCode::kBudgetExceeded);
}

TEST(Oracle, StructureSmallerThanGraph) {
  const Graph g = erdos_renyi(60, 0.3, 19);
  PinnedService pinned(g, 2);
  EXPECT_LT(pinned.service.entry_edges(pinned.entry), g.num_edges());
  EXPECT_LT(build_default(g, 2).size(), g.num_edges());
}

TEST(Oracle, WrapsExternallyBuiltStructure) {
  const Graph g = cycle_graph(10);
  // The whole graph is trivially a valid structure.
  std::vector<EdgeId> all(g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) all[e] = e;
  OracleService service(g, pinned_config());
  service.add_structure(kEntry, 0, 2, FaultModel::kEdge, all);
  FaultQueryEngine engine(g, all);
  QueryRequest req;
  req.targets = {5};
  req.fault_edges = {0};
  req.structure = kEntry;
  const QueryResponse resp = service.serve(req);
  Bfs bfs(g);
  GraphMask mask(g);
  mask.block_edge(0);
  const std::uint32_t truth = bfs.run(0, &mask).hops[5];
  EXPECT_EQ(resp.served_by, kEntry);
  EXPECT_TRUE(resp.exact);
  EXPECT_EQ(resp.distances.at(0), truth);
  EXPECT_EQ(engine.distance(0, 5, edge_faults(req.fault_edges)), truth);
}

TEST(Oracle, DuplicateFaultIdsCountOnce) {
  const Graph g = erdos_renyi(30, 0.2, 23);
  PinnedService pinned(g, 1);
  // {e, e} is one distinct fault: inside the f = 1 budget, so the exact
  // pinned request is answered, and answered as for {e}.
  const std::uint32_t twice = pinned.distance(9, {4, 4});
  EXPECT_EQ(twice, pinned.distance(9, {4}));
  EXPECT_EQ(twice, truth_distance(g, 9, {4}));
}

}  // namespace
}  // namespace ftbfs
