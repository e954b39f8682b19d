#include "spath/tree_index.h"

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "spath/weights.h"

namespace ftbfs {
namespace {

TreeIndex make_index(const Graph& g, Vertex root, SpResult& out,
                     std::uint64_t seed = 1) {
  const WeightAssignment w(g, seed);
  Dijkstra dij(g, w);
  out = dij.run(root);
  return TreeIndex(g, out, root);
}

TEST(TreeIndex, PathGraphChain) {
  const Graph g = path_graph(6);
  SpResult sp;
  const TreeIndex t = make_index(g, 0, sp);
  for (Vertex v = 0; v < 6; ++v) {
    EXPECT_EQ(t.depth(v), v);
    EXPECT_TRUE(t.ancestor_of(0, v));
    if (v > 0) {
      EXPECT_EQ(t.parent(v), v - 1);
    }
  }
  EXPECT_TRUE(t.ancestor_of(2, 5));
  EXPECT_FALSE(t.ancestor_of(5, 2));
}

TEST(TreeIndex, AncestorIsReflexive) {
  const Graph g = erdos_renyi(30, 0.15, 3);
  SpResult sp;
  const TreeIndex t = make_index(g, 0, sp);
  for (Vertex v = 0; v < 30; ++v) {
    if (t.reached(v)) {
      EXPECT_TRUE(t.ancestor_of(v, v));
    }
  }
}

TEST(TreeIndex, AncestorMatchesParentChains) {
  const Graph g = erdos_renyi(40, 0.12, 7);
  SpResult sp;
  const TreeIndex t = make_index(g, 0, sp);
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    if (!t.reached(v)) continue;
    // Walk the parent chain; every vertex on it (and only those among the
    // sampled candidates) is an ancestor.
    std::vector<bool> on_chain(g.num_vertices(), false);
    for (Vertex cur = v; cur != kInvalidVertex; cur = t.parent(cur)) {
      on_chain[cur] = true;
    }
    for (Vertex a = 0; a < g.num_vertices(); ++a) {
      if (!t.reached(a)) continue;
      EXPECT_EQ(t.ancestor_of(a, v), on_chain[a])
          << "a=" << a << " v=" << v;
    }
  }
}

TEST(TreeIndex, DepthsMatchSsspHops) {
  const Graph g = erdos_renyi(50, 0.1, 9);
  SpResult sp;
  const TreeIndex t = make_index(g, 0, sp);
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    if (sp.reached(v)) {
      EXPECT_EQ(t.depth(v), sp.hops(v));
    } else {
      EXPECT_FALSE(t.reached(v));
    }
  }
}

TEST(TreeIndex, ChildrenInverseOfParent) {
  const Graph g = erdos_renyi(30, 0.2, 11);
  SpResult sp;
  const TreeIndex t = make_index(g, 0, sp);
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    for (const Vertex c : t.children(v)) {
      EXPECT_EQ(t.parent(c), v);
    }
  }
}

TEST(TreeIndex, PreorderVisitsEveryReachedVertexOnce) {
  const Graph g = erdos_renyi(30, 0.15, 13);
  SpResult sp;
  const TreeIndex t = make_index(g, 0, sp);
  std::vector<int> seen(g.num_vertices(), 0);
  for (const Vertex v : t.preorder()) ++seen[v];
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(seen[v], t.reached(v) ? 1 : 0);
  }
  // Parents precede children.
  std::vector<std::size_t> pos(g.num_vertices(), 0);
  for (std::size_t i = 0; i < t.preorder().size(); ++i) {
    pos[t.preorder()[i]] = i;
  }
  for (const Vertex v : t.preorder()) {
    if (v != 0) {
      EXPECT_LT(pos[t.parent(v)], pos[v]);
    }
  }
}

TEST(TreeIndex, UnreachedIsolated) {
  GraphBuilder b(5);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(3, 4);
  const Graph g = std::move(b).build();
  SpResult sp;
  const TreeIndex t = make_index(g, 0, sp);
  EXPECT_FALSE(t.reached(3));
  EXPECT_FALSE(t.ancestor_of(0, 3));
  EXPECT_FALSE(t.ancestor_of(3, 3));
  EXPECT_EQ(t.preorder().size(), 3u);
}

TEST(TreeIndex, BuildsFromBfsTree) {
  const Graph g = erdos_renyi(40, 0.12, 3);
  Bfs bfs(g);
  const BfsResult tree = bfs.run(0);
  const TreeIndex t(g, tree, 0);
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(t.reached(v), tree.hops[v] != kInfHops);
    if (!t.reached(v)) continue;
    EXPECT_EQ(t.depth(v), tree.hops[v]);  // BFS depth == hop distance
    EXPECT_EQ(t.parent(v), tree.parent[v]);
    EXPECT_EQ(t.parent_edge(v), tree.parent_edge[v]);
  }
}

TEST(TreeIndex, SubtreeSpansArePreorderSlices) {
  const Graph g = erdos_renyi(48, 0.1, 9);
  Bfs bfs(g);
  const TreeIndex t(g, bfs.run(0), 0);
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    const std::span<const Vertex> span = t.subtree_span(v);
    if (!t.reached(v)) {
      EXPECT_TRUE(span.empty());
      EXPECT_EQ(t.subtree_size(v), 0u);
      continue;
    }
    EXPECT_EQ(span.size(), t.subtree_size(v));
    ASSERT_FALSE(span.empty());
    EXPECT_EQ(span.front(), v);  // slice starts at the subtree root
    // The slice is exactly the descendant set (ancestor test agrees), and
    // subtree sizes are consistent with it.
    std::size_t descendants = 0;
    for (Vertex w = 0; w < g.num_vertices(); ++w) {
      if (t.ancestor_of(v, w)) ++descendants;
    }
    EXPECT_EQ(descendants, span.size());
    for (const Vertex w : span) EXPECT_TRUE(t.ancestor_of(v, w));
    EXPECT_EQ(t.preorder()[t.preorder_index(v)], v);
  }
  // Root slice covers every reached vertex.
  EXPECT_EQ(t.subtree_span(0).size(), t.preorder().size());
}

}  // namespace
}  // namespace ftbfs
