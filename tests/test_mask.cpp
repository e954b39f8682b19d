#include "graph/mask.h"

#include <gtest/gtest.h>

#include "graph/generators.h"

namespace ftbfs {
namespace {

TEST(GraphMask, BlockAndClear) {
  const Graph g = path_graph(4);
  GraphMask m(g);
  m.block_vertex(1);
  m.block_edge(2);
  EXPECT_TRUE(m.vertex_blocked(1));
  EXPECT_TRUE(m.edge_blocked(2));
  EXPECT_FALSE(m.vertex_blocked(0));
  m.clear();
  EXPECT_FALSE(m.vertex_blocked(1));
  EXPECT_FALSE(m.edge_blocked(2));
}

TEST(GraphMask, ClearIsCheapAndRepeatable) {
  const Graph g = path_graph(4);
  GraphMask m(g);
  for (int round = 0; round < 1000; ++round) {
    m.clear();
    m.block_vertex(static_cast<Vertex>(round % 4));
    EXPECT_TRUE(m.vertex_blocked(round % 4));
    EXPECT_FALSE(m.vertex_blocked((round + 1) % 4));
  }
}

TEST(GraphMask, EdgeUsableRespectsEndpoints) {
  const Graph g = path_graph(3);
  const EdgeId e01 = g.find_edge(0, 1);
  GraphMask m(g);
  EXPECT_TRUE(m.edge_usable(e01, 0, 1));
  m.block_vertex(1);
  EXPECT_FALSE(m.edge_usable(e01, 0, 1));
  EXPECT_FALSE(m.edge_usable(e01, 1, 0));
}

TEST(GraphMask, RecordsDistinctBlocksUntilClear) {
  const Graph g = path_graph(5);
  GraphMask m(g);
  m.block_vertex(3);
  m.block_edge(1);
  m.block_vertex(1);
  m.block_vertex(3);  // already blocked: recorded once
  m.block_edge(1);
  EXPECT_EQ(std::vector<Vertex>(m.blocked_vertices().begin(),
                                m.blocked_vertices().end()),
            (std::vector<Vertex>{3, 1}));
  EXPECT_EQ(std::vector<EdgeId>(m.blocked_edges().begin(),
                                m.blocked_edges().end()),
            (std::vector<EdgeId>{1}));
  m.clear();
  EXPECT_TRUE(m.blocked_vertices().empty());
  EXPECT_TRUE(m.blocked_edges().empty());
  m.block_edge(1);  // a block from before clear() does not suppress this one
  EXPECT_EQ(m.blocked_edges().size(), 1u);
}

// The epoch is 32 bits wide: a long-running server that clears a pooled mask
// per query wraps it. Drives clear() across the wrap for real (~4.3e9 calls).
TEST(GraphMask, EpochWrapKeepsStampsDead) {
  const Graph g = complete_graph(3);
  const EdgeId e01 = g.find_edge(0, 1);
  const EdgeId e12 = g.find_edge(1, 2);
  GraphMask m(g);
  // Stamps from the first epoch, which the wrap would otherwise revive.
  m.block_vertex(2);
  m.block_edge(e12);
  auto expect_fresh = [&] {
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      EXPECT_FALSE(m.vertex_blocked(v)) << "vertex " << v;
    }
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      EXPECT_FALSE(m.edge_blocked(e)) << "edge " << e;
    }
  };
  // 2^32 - 1 clears bring the epoch to its wrap point.
  for (std::uint64_t i = 0; i < (std::uint64_t{1} << 32) - 1; ++i) m.clear();
  expect_fresh();
  EXPECT_TRUE(m.edge_usable(e01, 0, 1));
  EXPECT_TRUE(m.blocked_vertices().empty());
  m.clear();  // back on the epoch the stamps were set in
  expect_fresh();
  m.block_vertex(1);
  EXPECT_TRUE(m.vertex_blocked(1));
  EXPECT_FALSE(m.vertex_blocked(2));
}

TEST(BlockEdges, BlocksAll) {
  const Graph g = cycle_graph(5);
  GraphMask m(g);
  const std::vector<EdgeId> faults = {0, 2, 4};
  block_edges(m, faults);
  EXPECT_TRUE(m.edge_blocked(0));
  EXPECT_FALSE(m.edge_blocked(1));
  EXPECT_TRUE(m.edge_blocked(2));
  EXPECT_TRUE(m.edge_blocked(4));
}

}  // namespace
}  // namespace ftbfs
