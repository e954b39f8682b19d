#include "core/selector.h"

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "graph/generators.h"
#include "reference_dijkstra.h"
#include "spath/bfs.h"
#include "spath/dijkstra.h"

namespace ftbfs {
namespace {

// select_single_fault's path computed the slow way: full-BFS distance tests,
// a linear scan for the minimal divergence index k, and the binary-heap
// Dijkstra for the W-unique path in G(u_k, u_i) ∖ {e_i}.
std::optional<Path> reference_selection(const Graph& g,
                                        const WeightAssignment& w,
                                        const Path& pi, std::size_t i) {
  const Vertex s = pi.front();
  const Vertex v = pi.back();
  const EdgeId e_i = g.find_edge(pi[i], pi[i + 1]);
  GraphMask mask(g);
  Bfs bfs(g);
  mask.block_edge(e_i);
  const std::uint32_t target = bfs.run(s, &mask).hops[v];
  if (target == kInfHops) return std::nullopt;
  for (std::size_t k = 0; k <= i; ++k) {
    mask.clear();
    mask.block_edge(e_i);
    block_pi_segment(mask, pi, k, i);
    if (bfs.run(s, &mask).hops[v] == target) {
      return extract_path(reference_dijkstra(g, w, s, &mask), v);
    }
  }
  ADD_FAILURE() << "k == i must be feasible";
  return std::nullopt;
}

TEST(VertexIndexMap, BindAndLookup) {
  VertexIndexMap map(10);
  map.bind({3, 5, 7});
  EXPECT_TRUE(map.on_path(5));
  EXPECT_EQ(map.pos(5), 1u);
  EXPECT_EQ(map.pos(7), 2u);
  EXPECT_FALSE(map.on_path(4));
  EXPECT_EQ(map.pos(4), kNpos);
  map.bind({4});
  EXPECT_FALSE(map.on_path(5));  // rebinding invalidates old entries
  EXPECT_TRUE(map.on_path(4));
}

TEST(BlockPiSegment, BlocksInteriorOnly) {
  const Graph g = path_graph(6);
  GraphMask m(g);
  const Path pi = {0, 1, 2, 3, 4, 5};
  block_pi_segment(m, pi, 1, 3);
  EXPECT_FALSE(m.vertex_blocked(1));  // u_k itself stays
  EXPECT_TRUE(m.vertex_blocked(2));
  EXPECT_TRUE(m.vertex_blocked(3));
  EXPECT_FALSE(m.vertex_blocked(4));
}

// Fixture graph engineered so that two equal-length replacement routes exist,
// one diverging at s and one diverging later; the selection must prefer the
// earlier divergence point (Fig. 2(a) of the paper).
class EarliestDivergence : public ::testing::Test {
 protected:
  EarliestDivergence() {
    GraphBuilder b(9);
    // π(s,v): 0-1-2-3 — the unique length-3 route; both alternatives below
    // have length 4, so π is unambiguous regardless of perturbations.
    b.add_edge(0, 1);
    b.add_edge(1, 2);
    b.add_edge(2, 3);
    // Detour A (diverges at 0): 0-4-5-6-3, length 4.
    b.add_edge(0, 4);
    b.add_edge(4, 5);
    b.add_edge(5, 6);
    b.add_edge(6, 3);
    // Detour B (diverges at 1): 1-7-8-3, total 0-1-7-8-3 length 4.
    b.add_edge(1, 7);
    b.add_edge(7, 8);
    b.add_edge(8, 3);
    g_ = std::move(b).build();
  }

  Graph g_;
};

TEST_F(EarliestDivergence, PrefersDivergenceClosestToSource) {
  const WeightAssignment w(g_, 123);
  PathSelector sel(g_, w);
  sel.mask().clear();
  const SpResult tree = sel.w_sssp(0);
  const Path pi = extract_path(tree, 3);
  ASSERT_EQ(pi, (Path{0, 1, 2, 3}));

  VertexIndexMap pos(g_.num_vertices());
  pos.bind(pi);
  // Fail e_2 = (2,3): both 0-4-5-6-3 and 0-1-7-8-3 have length 4; the
  // algorithm must take the one diverging at 0.
  const auto s1 = select_single_fault(sel, pi, pos, 2);
  ASSERT_TRUE(s1.has_value());
  EXPECT_EQ(s1->x, 0u);
  EXPECT_EQ(s1->y, 3u);
  EXPECT_EQ(s1->path, (Path{0, 4, 5, 6, 3}));
  EXPECT_EQ(s1->detour, (Path{0, 4, 5, 6, 3}));
  EXPECT_EQ(s1->x_pi_index, 0u);
  EXPECT_EQ(s1->y_pi_index, 3u);
}

TEST_F(EarliestDivergence, MidPathFaultStillPrefersEarliest) {
  const WeightAssignment w(g_, 123);
  PathSelector sel(g_, w);
  sel.mask().clear();
  const SpResult tree = sel.w_sssp(0);
  const Path pi = extract_path(tree, 3);
  VertexIndexMap pos(g_.num_vertices());
  pos.bind(pi);
  // Fail e_1 = (1,2): candidates 0-4-5-6-3 (div at 0) and 0-1-7-8-3 (div at
  // 1), both length 4 — earliest divergence wins again.
  const auto s1 = select_single_fault(sel, pi, pos, 1);
  ASSERT_TRUE(s1.has_value());
  EXPECT_EQ(s1->x, 0u);
  EXPECT_EQ(s1->path, (Path{0, 4, 5, 6, 3}));
}

TEST_F(EarliestDivergence, TopEdgeFaultForcesEarlyDetour) {
  const WeightAssignment w(g_, 123);
  PathSelector sel(g_, w);
  sel.mask().clear();
  const SpResult tree = sel.w_sssp(0);
  const Path pi = extract_path(tree, 3);
  VertexIndexMap pos(g_.num_vertices());
  pos.bind(pi);
  // Fail e_0 = (0,1): detour B needs (0,1), so A is the only optimal route.
  const auto s1 = select_single_fault(sel, pi, pos, 0);
  ASSERT_TRUE(s1.has_value());
  EXPECT_EQ(s1->path, (Path{0, 4, 5, 6, 3}));
}

TEST(SelectSingleFault, DisconnectingFaultReturnsNullopt) {
  const Graph g = path_graph(5);
  const WeightAssignment w(g, 7);
  PathSelector sel(g, w);
  sel.mask().clear();
  const SpResult tree = sel.w_sssp(0);
  const Path pi = extract_path(tree, 4);
  VertexIndexMap pos(g.num_vertices());
  pos.bind(pi);
  EXPECT_FALSE(select_single_fault(sel, pi, pos, 2).has_value());
}

TEST(SelectSingleFault, DecompositionHoldsOnRandomGraphs) {
  for (const std::uint64_t seed : {11ull, 12ull, 13ull, 14ull}) {
    const Graph g = erdos_renyi(36, 0.12, seed);
    const WeightAssignment w(g, seed);
    PathSelector sel(g, w);
    sel.mask().clear();
    const SpResult tree = sel.w_sssp(0);
    VertexIndexMap pos(g.num_vertices());
    for (Vertex v = 1; v < g.num_vertices(); ++v) {
      if (!tree.reached(v)) continue;
      const Path pi = extract_path(tree, v);
      pos.bind(pi);
      for (std::size_t i = 0; i + 1 < pi.size(); ++i) {
        const auto s1 = select_single_fault(sel, pi, pos, i);
        if (!s1) continue;
        // Claim 3.4: P = π(s,x) ∘ D ∘ π(y,v), detour interior off π, the
        // failed edge spanned by the detour.
        EXPECT_TRUE(is_simple_path_in(g, s1->path));
        EXPECT_LE(s1->x_pi_index, i);
        EXPECT_GT(s1->y_pi_index, i);
        for (std::size_t p = 1; p + 1 < s1->detour.size(); ++p) {
          EXPECT_FALSE(contains_vertex(pi, s1->detour[p]));
        }
        // Prefix of the path follows π up to x.
        for (std::size_t p = 0; p <= s1->x_pi_index; ++p) {
          EXPECT_EQ(s1->path[p], pi[p]);
        }
      }
    }
  }
}

TEST(SelectSingleFault, MatchesFullBfsHeapReference) {
  std::vector<std::pair<std::string, Graph>> graphs;
  for (const std::uint64_t seed : {21ull, 22ull, 23ull}) {
    graphs.emplace_back("er" + std::to_string(seed),
                        erdos_renyi(40, 0.1, seed));
  }
  graphs.emplace_back("grid", grid_graph(6, 7));
  graphs.emplace_back("hypercube", hypercube_graph(5));
  for (const auto& [name, g] : graphs) {
    SCOPED_TRACE(name);
    const WeightAssignment w(g, 99);
    PathSelector sel(g, w);
    sel.mask().clear();
    const SpResult tree = sel.w_sssp(0);
    VertexIndexMap pos(g.num_vertices());
    for (Vertex v = 1; v < g.num_vertices(); ++v) {
      if (!tree.reached(v)) continue;
      const Path pi = extract_path(tree, v);
      pos.bind(pi);
      for (std::size_t i = 0; i + 1 < pi.size(); ++i) {
        const auto got = select_single_fault(sel, pi, pos, i);
        const std::optional<Path> want = reference_selection(g, w, pi, i);
        ASSERT_EQ(got.has_value(), want.has_value())
            << "target " << v << " edge " << i;
        if (got) {
          EXPECT_EQ(got->path, *want) << "target " << v << " edge " << i;
        }
      }
    }
  }
}

// The early-exit probe returns exactly the full BFS's hop count, kInfHops
// included, under every mask kind the construction builds.
TEST(PathSelector, HopProbeMatchesFullBfs) {
  // Two components: vertices 30..34 are never reachable from 0..29.
  GraphBuilder b(35);
  const Graph er = erdos_renyi(30, 0.12, 4);
  for (EdgeId e = 0; e < er.num_edges(); ++e) {
    b.add_edge(er.edge(e).u, er.edge(e).v);
  }
  for (Vertex v = 30; v + 1 < 35; ++v) b.add_edge(v, v + 1);
  const Graph g = std::move(b).build();
  const WeightAssignment w(g, 4);
  PathSelector sel(g, w);
  Bfs bfs(g);
  GraphMask& m = sel.mask();
  using MaskKind = std::pair<std::string, std::function<void(GraphMask&)>>;
  const std::vector<MaskKind> kinds = {
      {"none", [](GraphMask&) {}},
      {"edges",
       [](GraphMask& mk) {
         for (const EdgeId e : {0u, 3u, 7u, 11u}) mk.block_edge(e);
       }},
      {"vertices",
       [](GraphMask& mk) {
         for (const Vertex v : {2u, 5u, 9u}) mk.block_vertex(v);
       }},
      {"source", [](GraphMask& mk) { mk.block_vertex(0); }},
      {"whitelist",
       [&g](GraphMask& mk) {
         mk.restrict_incident_edges(1);
         for (const Arc& arc : g.neighbors(1)) {
           if (arc.to % 2 == 0) mk.allow_edge(arc.id);
         }
       }},
  };
  std::size_t unreachable = 0;
  for (const auto& [kind, apply] : kinds) {
    SCOPED_TRACE(kind);
    for (const Vertex s : {0u, 1u, 5u, 31u}) {
      for (Vertex t = 0; t < g.num_vertices(); ++t) {
        m.clear();
        apply(m);
        const std::uint32_t want = bfs.run(s, &m).hops[t];
        EXPECT_EQ(sel.hop_distance(s, t), want) << s << "->" << t;
        unreachable += want == kInfHops ? 1 : 0;
      }
    }
  }
  EXPECT_GT(unreachable, 0u);  // the kInfHops case was exercised
}

TEST(PathSelector, CountersAdvance) {
  const Graph g = cycle_graph(6);
  const WeightAssignment w(g, 2);
  PathSelector sel(g, w);
  sel.mask().clear();
  (void)sel.hop_distance(0, 3);
  (void)sel.w_path(0, 3);
  EXPECT_EQ(sel.bfs_runs(), 1u);
  EXPECT_EQ(sel.dijkstra_runs(), 1u);
  // No per-edge memo: every single-fault distance is one probe.
  const EdgeId e = g.find_edge(0, 1);
  EXPECT_EQ(sel.single_fault_distance(0, 3, e), 3u);
  EXPECT_EQ(sel.single_fault_distance(0, 1, e), 5u);
  EXPECT_EQ(sel.bfs_runs(), 3u);
}

}  // namespace
}  // namespace ftbfs
