#include "graph/graph.h"

#include <gtest/gtest.h>

#include "graph/generators.h"

namespace ftbfs {
namespace {

TEST(GraphBuilder, BuildsTriangle) {
  GraphBuilder b(3);
  const EdgeId e01 = b.add_edge(0, 1);
  const EdgeId e12 = b.add_edge(1, 2);
  const EdgeId e02 = b.add_edge(2, 0);
  const Graph g = std::move(b).build();

  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_EQ(g.find_edge(0, 1), e01);
  EXPECT_EQ(g.find_edge(1, 0), e01);
  EXPECT_EQ(g.find_edge(1, 2), e12);
  EXPECT_EQ(g.find_edge(0, 2), e02);
}

TEST(GraphBuilder, CanonicalizesEndpoints) {
  GraphBuilder b(4);
  const EdgeId e = b.add_edge(3, 1);
  const Graph g = std::move(b).build();
  EXPECT_EQ(g.edge(e).u, 1u);
  EXPECT_EQ(g.edge(e).v, 3u);
}

TEST(GraphBuilder, HasEdgeSeesBothDirections) {
  GraphBuilder b(3);
  b.add_edge(0, 2);
  EXPECT_TRUE(b.has_edge(0, 2));
  EXPECT_TRUE(b.has_edge(2, 0));
  EXPECT_FALSE(b.has_edge(0, 1));
}

TEST(Graph, NeighborsSortedAndComplete) {
  GraphBuilder b(5);
  b.add_edge(2, 4);
  b.add_edge(2, 0);
  b.add_edge(2, 3);
  b.add_edge(2, 1);
  const Graph g = std::move(b).build();
  const auto nbrs = g.neighbors(2);
  ASSERT_EQ(nbrs.size(), 4u);
  for (std::size_t i = 0; i + 1 < nbrs.size(); ++i) {
    EXPECT_LT(nbrs[i].to, nbrs[i + 1].to);
  }
  EXPECT_EQ(g.degree(2), 4u);
  EXPECT_EQ(g.degree(0), 1u);
}

TEST(Graph, OtherEndpoint) {
  GraphBuilder b(3);
  const EdgeId e = b.add_edge(0, 2);
  const Graph g = std::move(b).build();
  EXPECT_EQ(g.other_endpoint(e, 0), 2u);
  EXPECT_EQ(g.other_endpoint(e, 2), 0u);
}

TEST(Graph, FindEdgeAbsent) {
  const Graph g = path_graph(4);
  EXPECT_EQ(g.find_edge(0, 3), kInvalidEdge);
  EXPECT_FALSE(g.has_edge(0, 2));
  EXPECT_TRUE(g.has_edge(1, 2));
}

TEST(Graph, ArcEdgeIdsMatchEndpoints) {
  const Graph g = erdos_renyi(40, 0.15, 7);
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    for (const Arc& arc : g.neighbors(v)) {
      const Edge& e = g.edge(arc.id);
      EXPECT_TRUE((e.u == v && e.v == arc.to) || (e.v == v && e.u == arc.to));
    }
  }
}

TEST(Graph, DegreeSumIsTwiceEdges) {
  const Graph g = erdos_renyi(60, 0.1, 3);
  std::uint64_t total = 0;
  for (Vertex v = 0; v < g.num_vertices(); ++v) total += g.degree(v);
  EXPECT_EQ(total, 2ull * g.num_edges());
}

TEST(FromEdges, ListsSortedByNeighbourWithInputIds) {
  const std::vector<Edge> edges = {{2, 4}, {0, 2}, {3, 5}, {2, 3}, {1, 2}};
  EdgeId duplicate = 0;
  const Graph g = Graph::from_edges(6, edges, &duplicate);
  EXPECT_EQ(duplicate, kInvalidEdge);
  EXPECT_EQ(g.edges(), edges);
  const auto nbrs = g.neighbors(2);
  ASSERT_EQ(nbrs.size(), 4u);
  const Vertex want_to[] = {0, 1, 3, 4};
  const EdgeId want_id[] = {1, 4, 3, 0};
  for (std::size_t i = 0; i < nbrs.size(); ++i) {
    EXPECT_EQ(nbrs[i].to, want_to[i]);
    EXPECT_EQ(nbrs[i].id, want_id[i]);
  }
  EXPECT_EQ(g.find_edge(5, 3), 2u);
}

// The first duplicate in id order is reported, whichever pair it repeats.
TEST(FromEdges, ReportsFirstDuplicate) {
  EdgeId duplicate = 0;
  (void)Graph::from_edges(5, {{3, 4}, {0, 1}, {0, 1}, {3, 4}}, &duplicate);
  EXPECT_EQ(duplicate, 2u);
  (void)Graph::from_edges(5, {{3, 4}, {0, 1}, {3, 4}, {0, 1}, {3, 4}},
                          &duplicate);
  EXPECT_EQ(duplicate, 2u);
  (void)Graph::from_edges(5, {{0, 1}, {1, 2}, {0, 2}}, &duplicate);
  EXPECT_EQ(duplicate, kInvalidEdge);
}

TEST(SubgraphFromEdges, KeepsSelectedEdgesOnly) {
  GraphBuilder b(4);
  const EdgeId e01 = b.add_edge(0, 1);
  b.add_edge(1, 2);
  const EdgeId e23 = b.add_edge(2, 3);
  const Graph g = std::move(b).build();

  const std::vector<EdgeId> keep = {e01, e23};
  const Graph h = subgraph_from_edges(g, keep);
  EXPECT_EQ(h.num_vertices(), 4u);
  EXPECT_EQ(h.num_edges(), 2u);
  EXPECT_TRUE(h.has_edge(0, 1));
  EXPECT_FALSE(h.has_edge(1, 2));
  EXPECT_TRUE(h.has_edge(2, 3));
}

TEST(IsConnected, PathConnectedAfterSplitNot) {
  EXPECT_TRUE(is_connected(path_graph(10)));
  GraphBuilder b(4);
  b.add_edge(0, 1);
  b.add_edge(2, 3);
  EXPECT_FALSE(is_connected(std::move(b).build()));
}

TEST(IsConnected, EmptyAndSingleton) {
  GraphBuilder b0(1);
  EXPECT_TRUE(is_connected(std::move(b0).build()));
}

TEST(Describe, MentionsCounts) {
  const Graph g = path_graph(5);
  EXPECT_EQ(describe(g), "Graph(n=5, m=4)");
}

}  // namespace
}  // namespace ftbfs
