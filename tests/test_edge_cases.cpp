// Boundary and robustness cases across the construction APIs: degenerate
// graphs, extreme topologies, option interplay — the inputs a downstream
// user will eventually feed the library.
#include <gtest/gtest.h>

#include "core/approx_ftmbfs.h"
#include "core/cons2ftbfs.h"
#include "core/kfail_ftbfs.h"
#include "core/single_ftbfs.h"
#include "core/verify.h"
#include "graph/generators.h"
#include "graph/mask.h"
#include "service/oracle_service.h"
#include "spath/bfs.h"

namespace ftbfs {
namespace {

TEST(EdgeCases, SingleVertexGraph) {
  GraphBuilder b(1);
  const Graph g = std::move(b).build();
  const FtStructure h = build_cons2ftbfs(g, 0);
  EXPECT_TRUE(h.edges.empty());
  EXPECT_EQ(h.stats.new_edges, 0u);
}

TEST(EdgeCases, TwoVertexEdge) {
  GraphBuilder b(2);
  b.add_edge(0, 1);
  const Graph g = std::move(b).build();
  const FtStructure h = build_cons2ftbfs(g, 0);
  EXPECT_EQ(h.edges.size(), 1u);
  const std::vector<Vertex> sources = {0};
  EXPECT_FALSE(verify_exhaustive(g, h.edges, sources, 2).has_value());
}

TEST(EdgeCases, TriangleFullyKept) {
  const Graph g = complete_graph(3);
  const FtStructure h = build_cons2ftbfs(g, 0);
  // Losing any edge of K3 changes some distance under the other's failure.
  EXPECT_EQ(h.edges.size(), 3u);
}

TEST(EdgeCases, StarGraphFromCenterAndLeaf) {
  GraphBuilder b(8);
  for (Vertex v = 1; v < 8; ++v) b.add_edge(0, v);
  const Graph g = std::move(b).build();
  for (const Vertex s : {0u, 3u}) {
    const FtStructure h = build_cons2ftbfs(g, s);
    const std::vector<Vertex> sources = {s};
    EXPECT_FALSE(verify_exhaustive(g, h.edges, sources, 2).has_value());
    EXPECT_EQ(h.edges.size(), g.num_edges());  // a tree: everything kept
  }
}

TEST(EdgeCases, CompleteBipartiteBothSides) {
  const Graph g = complete_bipartite(3, 5);
  for (const Vertex s : {0u, 4u}) {
    const FtStructure h = build_cons2ftbfs(g, s);
    const std::vector<Vertex> sources = {s};
    EXPECT_FALSE(verify_exhaustive(g, h.edges, sources, 2).has_value());
  }
}

TEST(EdgeCases, IsolatedSourceCoversNothing) {
  GraphBuilder b(5);
  b.add_edge(1, 2);
  b.add_edge(2, 3);
  const Graph g = std::move(b).build();
  const FtStructure h = build_cons2ftbfs(g, 0);  // source has degree 0
  EXPECT_TRUE(h.edges.empty());
}

TEST(EdgeCases, RecordSinkWithoutClassifyIsInert) {
  const Graph g = erdos_renyi(15, 0.3, 3);
  bool called = false;
  Cons2Options opt;
  opt.classify_paths = false;
  opt.record_sink = [&called](Vertex, const Path&,
                              const std::vector<NewEndingRecord>&) {
    called = true;
  };
  (void)build_cons2ftbfs(g, 0, opt);
  EXPECT_FALSE(called);  // sink requires classification
}

TEST(EdgeCases, ServiceAcceptsDuplicateFaultIds) {
  const Graph g = cycle_graph(8);
  OracleService service(g);
  QueryRequest req;
  req.targets = {5};
  req.fault_edges = {3, 3};
  Bfs bfs(g);
  GraphMask mask(g);
  mask.block_edge(3);
  const QueryResponse resp = service.serve(req);
  EXPECT_TRUE(resp.exact);
  EXPECT_EQ(resp.distances.at(0), bfs.run(0, &mask).hops[5]);
}

TEST(EdgeCases, KfailZeroCapStillReturnsTree) {
  const Graph g = erdos_renyi(20, 0.25, 5);
  KFailOptions opt;
  opt.max_chains_per_vertex = 1;  // only the fault-free chain per vertex
  const KFailResult r = build_kfail_ftbfs(g, 0, 2, opt);
  EXPECT_GE(r.structure.edges.size(), g.num_vertices() - 1);
  EXPECT_GT(r.kstats.chain_cap_hits, 0u);
}

TEST(EdgeCases, ApproxSingleVertexSource) {
  GraphBuilder b(3);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(2, 0);
  const Graph g = std::move(b).build();
  const std::vector<Vertex> sources = {0};
  const ApproxResult r = build_approx_ftmbfs(g, sources, 1);
  EXPECT_FALSE(
      verify_exhaustive(g, r.structure.edges, sources, 1).has_value());
  EXPECT_EQ(r.structure.edges.size(), 3u);  // cycle is its own optimum
}

TEST(EdgeCases, SingleFtbfsOnTreeKeepsExactlyTree) {
  const Graph g = path_graph(10);
  const FtStructure h = build_single_ftbfs(g, 0);
  EXPECT_EQ(h.edges.size(), 9u);
  EXPECT_EQ(h.stats.new_edges, 0u);
}

TEST(EdgeCases, DenseGraphAllSourcesSpot) {
  const Graph g = erdos_renyi(10, 0.6, 7);
  for (Vertex s = 0; s < g.num_vertices(); ++s) {
    const FtStructure h = build_cons2ftbfs(g, s);
    const std::vector<Vertex> sources = {s};
    EXPECT_FALSE(verify_exhaustive(g, h.edges, sources, 2).has_value());
  }
}

TEST(EdgeCases, WeightSeedZeroWorks) {
  const Graph g = erdos_renyi(14, 0.3, 9);
  Cons2Options opt;
  opt.weight_seed = 0;
  const FtStructure h = build_cons2ftbfs(g, 0, opt);
  const std::vector<Vertex> sources = {0};
  EXPECT_FALSE(verify_exhaustive(g, h.edges, sources, 2).has_value());
}

TEST(EdgeCases, VerifierOnEmptyStructureReportsTreeGap) {
  const Graph g = path_graph(4);
  const std::vector<EdgeId> empty;
  const std::vector<Vertex> sources = {0};
  const auto violation = verify_exhaustive(g, empty, sources, 0);
  ASSERT_TRUE(violation.has_value());
  EXPECT_TRUE(violation->faults.empty());
}

}  // namespace
}  // namespace ftbfs
