// Tests for the engine layer: the BuilderRegistry contract (every registered
// builder × every generator family yields a structure that verifies at its
// declared fault budget) and the FaultQueryEngine (batched == sequential,
// translation, identity mode, vertex faults, threading).
#include <gtest/gtest.h>

#include <algorithm>

#include "core/verify.h"
#include "engine/query_engine.h"
#include "engine/registry.h"
#include "graph/generators.h"
#include "service/oracle_service.h"
#include "util/rng.h"

namespace ftbfs {
namespace {

// Small generator families for the registry-wide property sweep. Sizes are
// tiny because exact builders are verified exhaustively (O(m^f) BFS pairs).
struct TestFamily {
  const char* name;
  Graph (*make)();
};

const TestFamily kFamilies[] = {
    {"er", [] { return erdos_renyi(18, 0.25, 5); }},
    {"cycle", [] { return cycle_graph(12); }},
    {"grid", [] { return grid_graph(4, 4); }},
    {"chorded-path", [] { return path_with_chords(16, 8, 7); }},
    {"barbell", [] { return barbell_graph(12, 2); }},
};

// Picks a budget the builder supports, preferring 2 (the paper's regime).
unsigned budget_for(const BuilderTraits& t) {
  return std::clamp(2u, t.min_fault_budget, t.max_fault_budget);
}

TEST(Registry, ListsAllLibraryBuilders) {
  const std::vector<std::string> names = BuilderRegistry::instance().names();
  for (const char* expected :
       {"single_ftbfs", "cons2ftbfs", "kfail_ftbfs", "ftmbfs", "approx_ftmbfs",
        "swap_ftbfs"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected;
  }
}

TEST(Registry, FindResolvesAliases) {
  const BuilderRegistry& reg = BuilderRegistry::instance();
  EXPECT_EQ(reg.find("cons2"), reg.find("cons2ftbfs"));
  EXPECT_EQ(reg.find("greedy"), reg.find("approx_ftmbfs"));
  EXPECT_EQ(reg.find("no-such-builder"), nullptr);
}

TEST(Registry, UnsupportedRequestsAreExplained) {
  const Graph g = cycle_graph(8);
  const BuilderRegistry& reg = BuilderRegistry::instance();
  BuildRequest req;
  req.graph = &g;
  req.sources = {0};
  req.fault_budget = 1;
  EXPECT_EQ(reg.unsupported_reason("single_ftbfs", req), "");
  req.fault_budget = 2;
  EXPECT_NE(reg.unsupported_reason("single_ftbfs", req), "");
  req.fault_budget = 2;
  req.sources = {0, 3};
  EXPECT_NE(reg.unsupported_reason("cons2ftbfs", req), "");  // single-source
  EXPECT_EQ(reg.unsupported_reason("ftmbfs", req), "");
  req.sources = {0};
  req.fault_model = FaultModel::kVertex;
  EXPECT_NE(reg.unsupported_reason("cons2ftbfs", req), "");  // edge-only
  EXPECT_EQ(reg.unsupported_reason("kfail_ftbfs", req), "");
  req.fault_model = FaultModel::kEdge;
  req.sources = {99};
  EXPECT_NE(reg.unsupported_reason("cons2ftbfs", req), "");  // out of range
}

// The registry-wide property: every exact builder × every family verifies at
// its declared budget (edge model; vertex model covered separately below).
TEST(Registry, EveryExactBuilderVerifiesOnEveryFamily) {
  const BuilderRegistry& reg = BuilderRegistry::instance();
  for (const TestFamily& family : kFamilies) {
    const Graph g = family.make();
    for (const BuilderTraits& t : reg.traits()) {
      if (!t.exact) continue;
      BuildRequest req;
      req.graph = &g;
      req.sources = t.multi_source ? std::vector<Vertex>{0, 1}
                                   : std::vector<Vertex>{0};
      req.fault_budget = budget_for(t);
      ASSERT_EQ(reg.unsupported_reason(t.name, req), "") << t.name;
      const BuildResult r = reg.build(t.name, req);
      EXPECT_EQ(r.algorithm, t.name);
      const auto violation = verify_exhaustive(g, r.structure.edges,
                                               req.sources, req.fault_budget);
      EXPECT_FALSE(violation.has_value())
          << t.name << " on " << family.name << ": "
          << violation->describe(g);
    }
  }
}

TEST(Registry, VertexFaultBuildersVerifyUnderVertexFaults) {
  const BuilderRegistry& reg = BuilderRegistry::instance();
  const Graph g = erdos_renyi(16, 0.3, 9);
  for (const BuilderTraits& t : reg.traits()) {
    if (!t.exact || !t.vertex_faults) continue;
    BuildRequest req;
    req.graph = &g;
    req.sources = {0};
    req.fault_budget = std::clamp(2u, t.min_fault_budget, t.max_fault_budget);
    req.fault_model = FaultModel::kVertex;
    const BuildResult r = reg.build(t.name, req);
    const auto violation = verify_exhaustive_vertex(
        g, r.structure.edges, req.sources, req.fault_budget);
    EXPECT_FALSE(violation.has_value())
        << t.name << ": " << violation->describe(g);
  }
}

TEST(Registry, DefaultBuilderCoversEveryBudget) {
  const BuilderRegistry& reg = BuilderRegistry::instance();
  const Graph g = erdos_renyi(14, 0.3, 3);
  for (const unsigned f : {0u, 1u, 2u, 3u}) {
    BuildRequest req;
    req.graph = &g;
    req.sources = {0};
    req.fault_budget = f;
    const std::string name = BuilderRegistry::default_builder(f);
    ASSERT_EQ(reg.unsupported_reason(name, req), "") << "f=" << f;
    const BuildResult r = reg.build(name, req);
    EXPECT_FALSE(
        verify_exhaustive(g, r.structure.edges, req.sources, std::min(f, 3u))
            .has_value())
        << "f=" << f;
  }
}

// --- FaultQueryEngine ------------------------------------------------------

TEST(QueryEngine, IdentityEngineMatchesBfs) {
  const Graph g = erdos_renyi(40, 0.15, 11);
  FaultQueryEngine engine(g);
  EXPECT_TRUE(engine.is_identity());
  Bfs bfs(g);
  const BfsResult& r = bfs.run(0);
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(engine.distance(0, v, {}), r.hops[v]);
  }
}

TEST(QueryEngine, TranslatesHostEdgeIdsOntoStructure) {
  const Graph g = erdos_renyi(30, 0.2, 17);
  BuildRequest req;
  req.graph = &g;
  req.sources = {0};
  req.fault_budget = 2;
  const BuildResult r = BuilderRegistry::instance().build("cons2ftbfs", req);
  FaultQueryEngine engine(g, r.structure);
  FaultQueryEngine truth(g);
  Rng rng(23);
  for (int probe = 0; probe < 200; ++probe) {
    const EdgeId e1 = static_cast<EdgeId>(rng.next_below(g.num_edges()));
    const EdgeId e2 = static_cast<EdgeId>(rng.next_below(g.num_edges()));
    if (e1 == e2) continue;
    const std::vector<EdgeId> faults = {e1, e2};
    const Vertex v = static_cast<Vertex>(rng.next_below(g.num_vertices()));
    EXPECT_EQ(engine.distance(0, v, edge_faults(faults)),
              truth.distance(0, v, edge_faults(faults)));
  }
}

TEST(QueryEngine, VertexFaultsMatchGroundTruth) {
  const Graph g = erdos_renyi(24, 0.25, 29);
  BuildRequest req;
  req.graph = &g;
  req.sources = {0};
  req.fault_budget = 1;
  req.fault_model = FaultModel::kVertex;
  const BuildResult r = BuilderRegistry::instance().build("kfail_ftbfs", req);
  FaultQueryEngine engine(g, r.structure);
  FaultQueryEngine truth(g);
  for (Vertex u = 1; u < g.num_vertices(); ++u) {
    const std::vector<Vertex> faults = {u};
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      if (v == u) continue;
      EXPECT_EQ(engine.distance(0, v, vertex_faults(faults)),
                truth.distance(0, v, vertex_faults(faults)))
          << "fault " << u << " target " << v;
    }
  }
}

TEST(QueryEngine, ShortestPathAvoidsFaultsAndIsOptimal) {
  const Graph g = erdos_renyi(40, 0.15, 13);
  BuildRequest req;
  req.graph = &g;
  req.sources = {0};
  req.fault_budget = 2;
  const BuildResult r = BuilderRegistry::instance().build("cons2ftbfs", req);
  FaultQueryEngine engine(g, r.structure);
  const std::vector<EdgeId> faults = {2, 9};
  for (Vertex v = 1; v < g.num_vertices(); v += 4) {
    const auto p = engine.shortest_path(0, v, edge_faults(faults));
    const std::uint32_t d = engine.distance(0, v, edge_faults(faults));
    if (d == kInfHops) {
      EXPECT_FALSE(p.has_value());
      continue;
    }
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(p->size() - 1, d);
    EXPECT_EQ(p->front(), 0u);
    EXPECT_EQ(p->back(), v);
    EXPECT_TRUE(is_simple_path_in(g, *p));
    for (const EdgeId e : faults) {
      EXPECT_FALSE(contains_edge(g, *p, e));
    }
  }
}

// The batched-vs-sequential equivalence property: batch() must agree with
// one-at-a-time distance() for every (fault set, target) cell.
TEST(QueryEngine, BatchMatchesSequential) {
  const Graph g = erdos_renyi(50, 0.12, 31);
  BuildRequest req;
  req.graph = &g;
  req.sources = {0};
  req.fault_budget = 2;
  const BuildResult r = BuilderRegistry::instance().build("cons2ftbfs", req);
  FaultQueryEngine engine(g, r.structure);

  Rng rng(41);
  std::vector<std::vector<EdgeId>> storage(64);
  std::vector<FaultSpec> fault_sets;
  for (auto& fs : storage) {
    const std::size_t k = rng.next_below(3);
    for (std::size_t i = 0; i < k; ++i) {
      fs.push_back(static_cast<EdgeId>(rng.next_below(g.num_edges())));
    }
    fault_sets.push_back(edge_faults(fs));
  }
  std::vector<Vertex> targets;
  for (int i = 0; i < 9; ++i) {
    targets.push_back(static_cast<Vertex>(rng.next_below(g.num_vertices())));
  }

  std::vector<std::uint32_t> expected;
  for (const FaultSpec& fs : fault_sets) {
    for (const Vertex t : targets) {
      expected.push_back(engine.distance(0, t, fs));
    }
  }
  EXPECT_EQ(engine.batch(0, fault_sets, targets), expected);
}

TEST(QueryEngine, PinnedEntryBatchMatchesServedDistances) {
  const Graph g = erdos_renyi(30, 0.2, 37);
  ServiceConfig config;
  config.lazy_build = false;
  OracleService service(g, config);
  const std::size_t entry =
      service.build_structure("h", 0, 2, FaultModel::kEdge);
  std::vector<std::vector<EdgeId>> storage = {{}, {1}, {2, 5}};
  std::vector<FaultSpec> fault_sets;
  for (const auto& fs : storage) fault_sets.push_back(edge_faults(fs));
  const std::vector<Vertex> targets = {3, 11, 27};
  const std::vector<std::uint32_t> matrix =
      service.engine(entry).batch(0, fault_sets, targets);
  for (std::size_t i = 0; i < fault_sets.size(); ++i) {
    for (std::size_t j = 0; j < targets.size(); ++j) {
      QueryRequest req;
      req.targets = {targets[j]};
      req.fault_edges = storage[i];
      req.structure = "h";
      EXPECT_EQ(matrix[i * targets.size() + j],
                service.serve(req).distances.at(0));
    }
  }
}

TEST(QueryEngine, BatchHandlesDegenerateShapes) {
  const Graph g = cycle_graph(8);
  FaultQueryEngine engine(g);
  EXPECT_TRUE(engine.batch(0, {}, {}).empty());
  const std::vector<FaultSpec> one_empty(1);
  EXPECT_TRUE(engine.batch(0, one_empty, {}).empty());
  const std::vector<Vertex> targets = {3};
  EXPECT_EQ(engine.batch(0, one_empty, targets),
            (std::vector<std::uint32_t>{3}));
}

TEST(QueryEngine, CountsQueries) {
  const Graph g = cycle_graph(8);
  FaultQueryEngine engine(g);
  EXPECT_EQ(engine.queries_answered(), 0u);
  (void)engine.distance(0, 3, {});
  (void)engine.shortest_path(0, 4, {});
  const std::vector<FaultSpec> sets(5);
  const std::vector<Vertex> targets = {1, 2};
  (void)engine.batch(0, sets, targets);
  EXPECT_EQ(engine.queries_answered(), 7u);
}

}  // namespace
}  // namespace ftbfs
