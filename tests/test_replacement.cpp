// Replacement paths P_{s,t,F} = SP(s, t, G∖F, W) through PathSelector::w_path,
// the engine of the f-failure chain construction: the caller blocks F on the
// selector's mask and asks for the W-unique path.
#include "core/selector.h"

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "spath/bfs.h"

namespace ftbfs {
namespace {

class ReplacementTest : public ::testing::Test {
 protected:
  // The W-unique s→t path avoiding `faults`.
  std::optional<RPath> avoiding(Vertex s, Vertex t,
                                std::span<const EdgeId> faults) {
    sel_.mask().clear();
    block_edges(sel_.mask(), faults);
    return sel_.w_path(s, t);
  }

  Graph g_ = erdos_renyi(40, 0.12, 77);
  WeightAssignment w_{g_, 77};
  PathSelector sel_{g_, w_};
};

TEST_F(ReplacementTest, NoFaultsIsShortestPath) {
  const auto rp = avoiding(0, 20, {});
  ASSERT_TRUE(rp.has_value());
  EXPECT_EQ(rp->key.hops, bfs_distance(g_, 0, 20));
  EXPECT_TRUE(is_simple_path_in(g_, rp->verts));
}

TEST_F(ReplacementTest, AvoidsFaultEdges) {
  // Fail the first edge of the shortest path, repeatedly, and check avoidance.
  Vertex s = 0, t = 25;
  auto rp = avoiding(s, t, {});
  ASSERT_TRUE(rp.has_value());
  const EdgeId first = g_.find_edge(rp->verts[0], rp->verts[1]);
  const std::vector<EdgeId> faults = {first};
  const auto rp2 = avoiding(s, t, faults);
  ASSERT_TRUE(rp2.has_value());
  EXPECT_FALSE(contains_edge(g_, rp2->verts, first));
  EXPECT_GE(rp2->key.hops, rp->key.hops);
}

TEST_F(ReplacementTest, KeyMatchesPath) {
  const std::vector<EdgeId> faults = {0, 5};
  const auto rp = avoiding(3, 30, faults);
  ASSERT_TRUE(rp.has_value());
  EXPECT_EQ(rp->key.hops, path_length(rp->verts));
  EXPECT_EQ(rp->key, path_key(g_, w_, rp->verts));
}

TEST_F(ReplacementTest, DisconnectionReturnsNullopt) {
  const Graph g = path_graph(4);
  const WeightAssignment w(g, 1);
  PathSelector sel(g, w);
  sel.mask().block_edge(g.find_edge(1, 2));
  EXPECT_FALSE(sel.w_path(0, 3).has_value());
}

TEST_F(ReplacementTest, BlockedVertexMask) {
  sel_.mask().clear();
  sel_.mask().block_vertex(1);
  const auto rp = sel_.w_path(0, 20);
  ASSERT_TRUE(rp.has_value());
  EXPECT_FALSE(contains_vertex(rp->verts, 1));
}

TEST_F(ReplacementTest, RunCounterAdvances) {
  const std::uint64_t before = sel_.dijkstra_runs();
  (void)avoiding(0, 1, {});
  EXPECT_EQ(sel_.dijkstra_runs(), before + 1);
}

TEST_F(ReplacementTest, WUniquePathStableAcrossCalls) {
  const auto a = avoiding(2, 33, {});
  const auto b = avoiding(2, 33, {});
  ASSERT_TRUE(a && b);
  EXPECT_EQ(a->verts, b->verts);
}

// Replacement path on a cycle: failing one direction forces the other.
TEST(ReplacementCycle, ForcedDetour) {
  const Graph g = cycle_graph(5);
  const WeightAssignment w(g, 9);
  PathSelector sel(g, w);
  sel.mask().block_edge(g.find_edge(0, 1));
  const auto rp = sel.w_path(0, 1);
  ASSERT_TRUE(rp.has_value());
  EXPECT_EQ(rp->key.hops, 4u);
  EXPECT_EQ(rp->verts, (Path{0, 4, 3, 2, 1}));
}

}  // namespace
}  // namespace ftbfs
