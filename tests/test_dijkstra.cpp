#include "spath/dijkstra.h"

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "graph/generators.h"
#include "graph/mask.h"
#include "reference_dijkstra.h"
#include "spath/bfs.h"
#include "spath/path.h"
#include "util/rng.h"

namespace ftbfs {
namespace {

TEST(Dijkstra, HopsAgreeWithBfs) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    const Graph g = erdos_renyi(60, 0.08, seed);
    const WeightAssignment w(g, seed);
    Dijkstra dij(g, w);
    Bfs bfs(g);
    const SpResult& dr = dij.run(0);
    const BfsResult& br = bfs.run(0);
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      if (br.hops[v] == kInfHops) {
        EXPECT_FALSE(dr.reached(v));
      } else {
        EXPECT_EQ(dr.hops(v), br.hops[v]);
      }
    }
  }
}

TEST(Dijkstra, ParentChainConsistent) {
  const Graph g = erdos_renyi(40, 0.1, 9);
  const WeightAssignment w(g, 9);
  Dijkstra dij(g, w);
  const SpResult& r = dij.run(0);
  for (Vertex v = 1; v < g.num_vertices(); ++v) {
    if (!r.reached(v)) continue;
    const Vertex p = r.parent[v];
    EXPECT_EQ(w.extend(r.dist[p], r.parent_edge[v]), r.dist[v]);
  }
}

TEST(Dijkstra, UniqueShortestPathsUnderW) {
  // The W-key of the found path must be strictly smaller than that of any
  // other equal-hop path: verify on a cycle, where two simple s-t routes
  // exist for the antipodal vertex.
  const Graph g = cycle_graph(6);
  const WeightAssignment w(g, 17);
  Dijkstra dij(g, w);
  const SpResult& r = dij.run(0);
  const Path chosen = extract_path(r, 3);
  ASSERT_EQ(chosen.size(), 4u);
  // The other direction.
  Path other;
  if (chosen[1] == 1) {
    other = {0, 5, 4, 3};
  } else {
    other = {0, 1, 2, 3};
  }
  EXPECT_LT(path_key(g, w, chosen), path_key(g, w, other));
}

TEST(Dijkstra, MaskRespected) {
  const Graph g = cycle_graph(8);
  const WeightAssignment w(g, 3);
  Dijkstra dij(g, w);
  GraphMask m(g);
  m.block_edge(g.find_edge(0, 1));
  const SpResult& r = dij.run(0, &m);
  EXPECT_EQ(r.hops(1), 7u);
}

TEST(Dijkstra, EarlyExitTargetSettled) {
  const Graph g = erdos_renyi(80, 0.1, 12);
  const WeightAssignment w(g, 12);
  Dijkstra dij(g, w);
  Bfs bfs(g);
  const std::uint32_t want = bfs.run(0).hops[42];
  const SpResult& r = dij.run(0, nullptr, 42);
  EXPECT_EQ(r.hops(42), want);
  const SpResult full = reference_dijkstra(g, w, 0, nullptr);
  EXPECT_EQ(r.dist[42], full.dist[42]);
  EXPECT_EQ(extract_path(r, 42), extract_path(full, 42));
}

TEST(Dijkstra, BlockedSource) {
  const Graph g = path_graph(3);
  const WeightAssignment w(g, 1);
  Dijkstra dij(g, w);
  GraphMask m(g);
  m.block_vertex(0);
  const SpResult& r = dij.run(0, &m);
  EXPECT_FALSE(r.reached(0));
  EXPECT_FALSE(r.reached(1));
}

TEST(ExtractPath, SourceAndTarget) {
  const Graph g = path_graph(5);
  const WeightAssignment w(g, 1);
  Dijkstra dij(g, w);
  const SpResult& r = dij.run(1);
  const Path p = extract_path(r, 4);
  EXPECT_EQ(p, (Path{1, 2, 3, 4}));
  EXPECT_EQ(extract_path(r, 1), Path{1});
}

TEST(ExtractPath, UnreachableEmpty) {
  GraphBuilder b(3);
  b.add_edge(0, 1);
  const Graph g = std::move(b).build();
  const WeightAssignment w(g, 1);
  Dijkstra dij(g, w);
  const SpResult& r = dij.run(0);
  EXPECT_TRUE(extract_path(r, 2).empty());
}

// Consistency: the subpath of a W-unique shortest path between two of its
// vertices is itself the W-unique shortest path (needed throughout §3).
TEST(Dijkstra, SubpathConsistency) {
  const Graph g = erdos_renyi(50, 0.12, 31);
  const WeightAssignment w(g, 31);
  Dijkstra dij(g, w);
  const SpResult full = dij.run(0);
  const Path p = extract_path(full, 17);
  if (p.size() >= 3) {
    const Vertex mid = p[p.size() / 2];
    const SpResult& from_mid = dij.run(mid);
    const Path tail = extract_path(from_mid, 17);
    const Path expected = subpath_by_vertex(p, mid, 17);
    EXPECT_EQ(tail, expected);
  }
}

// One mask configuration of the sweep-vs-heap comparison.
struct MaskCase {
  std::string name;
  std::function<void(GraphMask&)> apply;
};

// Mask kinds the construction uses: none, blocked edges, and blocked vertices
// (the source included).
std::vector<MaskCase> mask_cases(const Graph& g, Vertex source,
                                 std::uint64_t seed) {
  Rng rng(seed);
  const auto pick_vertex = [&] {
    return static_cast<Vertex>(rng.next_below(g.num_vertices()));
  };
  const auto pick_edge = [&] {
    return static_cast<EdgeId>(rng.next_below(g.num_edges()));
  };
  std::vector<EdgeId> edges;
  for (int i = 0; i < 6; ++i) edges.push_back(pick_edge());
  std::vector<Vertex> verts;
  for (int i = 0; i < 4; ++i) {
    const Vertex v = pick_vertex();
    if (v != source) verts.push_back(v);
  }
  return {
      {"none", [](GraphMask&) {}},
      {"edges",
       [edges](GraphMask& m) {
         for (const EdgeId e : edges) m.block_edge(e);
       }},
      {"vertices",
       [verts](GraphMask& m) {
         for (const Vertex v : verts) m.block_vertex(v);
       }},
      {"source", [source](GraphMask& m) { m.block_vertex(source); }},
  };
}

TEST(Dijkstra, LayeredSweepMatchesHeapReference) {
  std::vector<std::pair<std::string, Graph>> graphs;
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    graphs.emplace_back("er_sparse" + std::to_string(seed),
                        erdos_renyi(120, 0.03, seed));
    graphs.emplace_back("er_dense" + std::to_string(seed),
                        erdos_renyi(60, 0.2, seed));
  }
  graphs.emplace_back("grid", grid_graph(9, 11));
  graphs.emplace_back("hypercube", hypercube_graph(6));
  graphs.emplace_back("cycle", cycle_graph(31));

  for (const auto& [name, g] : graphs) {
    for (const std::uint64_t wseed : {5ull, 6ull, 7ull}) {
      const WeightAssignment w(g, wseed);
      Dijkstra dij(g, w);
      GraphMask mask(g);
      const Vertex source = static_cast<Vertex>(wseed % g.num_vertices());
      for (const MaskCase& mc : mask_cases(g, source, wseed)) {
        SCOPED_TRACE(name + " seed " + std::to_string(wseed) + " mask " +
                     mc.name);
        mask.clear();
        mc.apply(mask);
        const SpResult want = reference_dijkstra(g, w, source, &mask);
        const SpResult& got = dij.run(source, &mask);
        EXPECT_EQ(got.dist, want.dist);
        EXPECT_EQ(got.parent, want.parent);
        EXPECT_EQ(got.parent_edge, want.parent_edge);
        // Early exit: the target's key and path are those of the full run.
        for (Vertex t = 0; t < g.num_vertices(); t += 7) {
          const SpResult& early = dij.run(source, &mask, t);
          EXPECT_EQ(early.dist[t], want.dist[t]) << "target " << t;
          EXPECT_EQ(extract_path(early, t), extract_path(want, t))
              << "target " << t;
        }
      }
    }
  }
}

}  // namespace
}  // namespace ftbfs
