#include "core/selector.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/single_ftbfs.h"
#include "graph/generators.h"
#include "reference_dijkstra.h"
#include "spath/bfs.h"
#include "spath/dijkstra.h"
#include "util/rng.h"

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
  map.bind(Path{3, 5, 7});
  EXPECT_TRUE(map.on_path(5));
  EXPECT_EQ(map.pos(5), 1u);
  EXPECT_EQ(map.pos(7), 2u);
  EXPECT_FALSE(map.on_path(4));
  EXPECT_EQ(map.pos(4), kNpos);
  map.bind(Path{4});
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

// Graphs for the batch checks: ER graphs, a grid, a hypercube, a cycle, and an
// ER graph with a pendant path hung off it, whose edges are bridges (a fault
// there disconnects every target below it).
std::vector<std::pair<std::string, Graph>> batch_graphs() {
  std::vector<std::pair<std::string, Graph>> graphs;
  for (const std::uint64_t seed : {21ull, 22ull}) {
    graphs.emplace_back("er" + std::to_string(seed),
                        erdos_renyi(40, 0.1, seed));
  }
  GraphBuilder b(36);
  const Graph er = erdos_renyi(30, 0.15, 5);
  for (EdgeId e = 0; e < er.num_edges(); ++e) {
    b.add_edge(er.edge(e).u, er.edge(e).v);
  }
  for (Vertex v = 29; v + 1 < 36; ++v) b.add_edge(v, v + 1);
  graphs.emplace_back("er+bridges", std::move(b).build());
  graphs.emplace_back("grid", grid_graph(6, 7));
  graphs.emplace_back("hypercube", hypercube_graph(5));
  graphs.emplace_back("cycle", cycle_graph(13));
  return graphs;
}

// The batch below the tree edge above c against the slow reference, for
// every target: same connectivity, same path, same last edge, and a
// decomposition that reassembles into that path. Returns how many targets
// the fault disconnects.
std::size_t expect_batch_matches_reference(const Graph& g,
                                           const WeightAssignment& w,
                                           const SelectorBaseline& base,
                                           Vertex c,
                                           const SingleFaultBatch& batch) {
  const TreeIndex& idx = base.index();
  const std::span<const Vertex> below = idx.subtree_span(c);
  EXPECT_EQ(batch.choices.size(), below.size());
  const std::uint32_t i = idx.depth(c) - 1;  // the edge above c is π edge i
  std::size_t disconnected = 0;
  for (std::size_t k = 0; k < std::min(below.size(), batch.choices.size());
       ++k) {
    const SingleFaultChoice& ch = batch.choices[k];
    EXPECT_EQ(ch.target, below[k]);
    const Path pi = extract_path(base.tree(), ch.target);
    const std::optional<Path> want =
        reference_selection(g, w, pi, i);
    EXPECT_EQ(ch.connected(), want.has_value())
        << "edge above " << c << " target " << ch.target;
    if (!want || !ch.connected()) {
      disconnected += want ? 0 : 1;
      continue;
    }
    const std::span<const Vertex> d = batch.detour(ch);
    Path got(pi.begin(), pi.begin() + ch.x_pi_index);
    got.insert(got.end(), d.begin(), d.end());
    got.insert(got.end(), pi.begin() + ch.y_pi_index + 1, pi.end());
    EXPECT_EQ(got, *want) << "edge above " << c << " target " << ch.target;
    EXPECT_EQ(ch.last_edge, last_edge(g, *want));
    EXPECT_LE(ch.x_pi_index, i);
    EXPECT_GT(ch.y_pi_index, i);
    for (std::size_t p = 1; p + 1 < d.size(); ++p) {
      EXPECT_FALSE(contains_vertex(pi, d[p]));  // detour interior off π
    }
  }
  return disconnected;
}

// Every batch of every batch graph against the slow reference. Across them,
// some step-1 passes after the first search backward from their targets,
// and some give up doing so and repair instead.
TEST(SelectSingleFaultsBelow, MatchesSlowReferenceForEveryTreeEdge) {
  std::size_t disconnected = 0;
  KernelCounts kernels;
  for (const auto& [name, g] : batch_graphs()) {
    SCOPED_TRACE(name);
    const WeightAssignment w(g, 99);
    const SelectorBaseline base(g, w, 0);
    const TreeIndex& idx = base.index();
    PathSelector sel(g, w, &base);
    for (const Vertex c : idx.preorder()) {
      if (c == 0) continue;
      disconnected += expect_batch_matches_reference(
          g, w, base, c,
          select_single_faults_below(sel, 0, idx.parent_edge(c)));
    }
    kernels += sel.kernel_counts();
  }
  EXPECT_GT(disconnected, 0u);  // the bridges gave nullopt
  EXPECT_GT(kernels.sweep_backward, 0u);
  EXPECT_GT(kernels.probe_backward, 0u);
  EXPECT_GT(kernels.backward_abandoned, 0u);
}

// One batch whose targets sit at slack dist − depth 0 and 3, some of them
// able to leave π at s (k = 0) and some not. π(s, 3) = 0-1-2-3 and e = (2, 3);
// the targets are subtree(3):
//   q = 0-4-5-6-7, a route to depth 4 that avoids π[1 .. 2];
//   r = 1-8-9-10, a route to depth 4 below π[1];
//   a1 = 11 and a = 12 hang below 3, a1 next to q and a next to q and r;
//   z = 13 hangs below 3 with nothing else;
//   b1 = 14 and b = 15 hang below 3, b next to r only;
//   200 leaves below 2 make the cut region large enough for the backward
//   pass to answer without giving up.
// In G ∖ {e}, a and b keep their depth 5 (slack 0), 3 and z come back
// through a1 at 6 and 7 (slack 3). k = 0 is feasible for a, a1, 3 and z
// (through q) but not for b1 and b, which need r and so π[1]. With all
// targets let in at one key, or the last bucket left out, a and b are
// never explored at k = 0 and a's k0 comes out 1, where W prefers r.
Graph mixed_slack_graph() {
  GraphBuilder gb(216);
  gb.add_edge(0, 1);
  gb.add_edge(1, 2);
  gb.add_edge(2, 3);
  for (const auto& [x, y] : {std::pair<Vertex, Vertex>{0, 4}, {4, 5}, {5, 6},
                             {6, 7}, {1, 8}, {8, 9}, {9, 10}, {3, 11},
                             {11, 12}, {11, 7}, {12, 7}, {12, 10}, {3, 13},
                             {3, 14}, {14, 15}, {15, 10}}) {
    gb.add_edge(x, y);
  }
  for (Vertex leaf = 16; leaf < 216; ++leaf) gb.add_edge(2, leaf);
  return std::move(gb).build();
}

TEST(SelectSingleFaultsBelow, MixedSlackBatchMatchesReference) {
  const Graph g = mixed_slack_graph();
  const WeightAssignment w(g, 7);
  const SelectorBaseline base(g, w, 0);
  const TreeIndex& idx = base.index();
  ASSERT_EQ(idx.parent(3), 2u);
  ASSERT_EQ(idx.parent(12), 11u);  // W picks a1 over q and r
  ASSERT_EQ(idx.parent(15), 14u);  // ... and b1 over r
  const EdgeId e = g.find_edge(2, 3);
  // The slacks and which targets can leave π at s, the slow way.
  GraphMask m(g);
  Bfs bfs(g);
  m.block_edge(e);
  const std::vector<std::uint32_t> dist = bfs.run(0, &m).hops;
  const Path via_r = extract_path(reference_dijkstra(g, w, 0, &m), 12);
  EXPECT_EQ(via_r, (Path{0, 1, 8, 9, 10, 12}));  // W prefers r in G ∖ {e}
  block_pi_segment(m, Path{0, 1, 2}, 0, 2);
  const std::vector<std::uint32_t> at_k0 = bfs.run(0, &m).hops;
  std::vector<std::uint32_t> slacks;
  std::size_t feasible = 0;
  for (const Vertex v : idx.subtree_span(3)) {
    slacks.push_back(dist[v] - idx.depth(v));
    feasible += at_k0[v] == dist[v] ? 1 : 0;
  }
  std::sort(slacks.begin(), slacks.end());
  EXPECT_EQ(slacks, (std::vector<std::uint32_t>{0, 0, 1, 2, 3, 3}));
  EXPECT_EQ(feasible, 4u);

  PathSelector sel(g, w, &base);
  const KernelCounts& k = sel.kernel_counts();
  EXPECT_EQ(expect_batch_matches_reference(
                g, w, base, 3, select_single_faults_below(sel, 0, e)),
            0u);
  // The first probe repairs; the k = 0 sweep, b and b1's probe of k = 1 and
  // their sweep there all search backward, and none gives up.
  EXPECT_EQ(k.probe_repair + k.probe_search, 1u);
  EXPECT_EQ(k.sweep_backward, 2u);
  EXPECT_EQ(k.probe_backward, 1u);
  EXPECT_EQ(k.sweep_repair + k.sweep_search + k.backward_abandoned, 0u);
}

// single_ftbfs against a per-target replay in id order — the loop it replaced:
// kept edges and every structure stat, at several job counts. Which endpoint
// a new edge is credited to shows only in max_new_per_vertex, and only on
// some graphs, so many small ER graphs join the batch graphs (the credit
// rule with min and max swapped fails on er30-35).
TEST(SelectSingleFaultsBelow, SingleFtbfsMatchesPerTargetReplay) {
  std::vector<std::pair<std::string, Graph>> graphs = batch_graphs();
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    graphs.emplace_back("er30-" + std::to_string(seed),
                        erdos_renyi(30, 0.15, seed));
  }
  for (const auto& [name, g] : graphs) {
    SCOPED_TRACE(name);
    const WeightAssignment w(g, 1);
    PathSelector sel(g, w);
    const SpResult& tree = sel.baseline(0).tree();
    VertexIndexMap pos(g.num_vertices());
    std::vector<bool> in_h(g.num_edges(), false);
    FtBfsStats want;
    for (Vertex v = 1; v < g.num_vertices(); ++v) {
      if (tree.reached(v) && !in_h[tree.parent_edge[v]]) {
        in_h[tree.parent_edge[v]] = true;
        ++want.tree_edges;
      }
    }
    for (Vertex v = 1; v < g.num_vertices(); ++v) {
      if (!tree.reached(v)) continue;
      const Path pi = extract_path(tree, v);
      pos.bind(pi);
      std::uint64_t new_here = 0;
      for (std::size_t i = 0; i + 1 < pi.size(); ++i) {
        ++want.fault_pairs_considered;
        const auto s1 = select_single_fault(sel, pi, pos, i);
        if (!s1 || in_h[last_edge(g, s1->path)]) continue;
        in_h[last_edge(g, s1->path)] = true;
        ++want.new_edges;
        ++new_here;
      }
      want.max_new_per_vertex = std::max(want.max_new_per_vertex, new_here);
    }
    std::vector<EdgeId> want_edges;
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      if (in_h[e]) want_edges.push_back(e);
    }
    for (const unsigned jobs : {1u, 3u, 8u}) {
      SingleFtbfsOptions opt;
      opt.jobs = jobs;
      const FtStructure h = build_single_ftbfs(g, 0, opt);
      EXPECT_EQ(h.edges, want_edges) << "jobs " << jobs;
      EXPECT_EQ(h.stats.tree_edges, want.tree_edges) << "jobs " << jobs;
      EXPECT_EQ(h.stats.new_edges, want.new_edges) << "jobs " << jobs;
      EXPECT_EQ(h.stats.classes.single, want.new_edges) << "jobs " << jobs;
      EXPECT_EQ(h.stats.max_new_per_vertex, want.max_new_per_vertex)
          << "jobs " << jobs;
      EXPECT_EQ(h.stats.fault_pairs_considered, want.fault_pairs_considered)
          << "jobs " << jobs;
    }
  }
}

// Host graphs for the kernel checks: two components (vertices 30..34 are never
// reachable from 0..29), a grid, and a hypercube — deep and shallow trees, so
// that both the repair and the early-exit branch of each kernel run.
std::vector<std::pair<std::string, Graph>> kernel_graphs() {
  std::vector<std::pair<std::string, Graph>> graphs;
  GraphBuilder b(35);
  const Graph er = erdos_renyi(30, 0.12, 4);
  for (EdgeId e = 0; e < er.num_edges(); ++e) {
    b.add_edge(er.edge(e).u, er.edge(e).v);
  }
  for (Vertex v = 30; v + 1 < 35; ++v) b.add_edge(v, v + 1);
  graphs.emplace_back("er+path", std::move(b).build());
  graphs.emplace_back("grid", grid_graph(7, 8));
  graphs.emplace_back("hypercube", hypercube_graph(6));
  return graphs;
}

using MaskKind = std::pair<std::string, std::function<void(GraphMask&)>>;

// Every mask kind the constructions build, placed relative to T0(s): plain
// edge and vertex blocks, a blocked source, a π-segment block of Eq. (3), a
// detour-tail block of Eq. (4), a cut above the source in another source's
// tree, and a deep cut that leaves most targets outside the cut region.
std::vector<MaskKind> kernel_masks(const Graph& g, const WeightAssignment& w,
                                   Vertex s) {
  const SelectorBaseline base(g, w, s);
  const SpResult& tree = base.tree();
  // The deepest target gives the longest π(s, v).
  Vertex deep = s;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    if (tree.reached(v) && tree.hops(v) > tree.hops(deep)) deep = v;
  }
  const Path pi = extract_path(tree, deep);
  const std::size_t len = pi.size() - 1;
  const EdgeId e_mid = len >= 2 ? g.find_edge(pi[len / 2], pi[len / 2 + 1])
                                : kInvalidEdge;
  const EdgeId e_last =
      len >= 1 ? g.find_edge(pi[len - 1], pi[len]) : kInvalidEdge;
  // Vertices off π, for the detour tail.
  std::vector<Vertex> off_pi;
  for (Vertex v = 0; v < g.num_vertices() && off_pi.size() < 4; v += 3) {
    if (!contains_vertex(pi, v) && v != s) off_pi.push_back(v);
  }
  // A vertex whose T0(0) parent edge is cut: the source of the "other tree"
  // case when s != 0.
  const SelectorBaseline base0(g, w, 0);
  const EdgeId above_s = base0.tree().parent_edge[s];
  return {
      {"none", [](GraphMask&) {}},
      {"edges",
       [](GraphMask& mk) {
         for (const EdgeId e : {0u, 3u, 7u, 11u}) mk.block_edge(e);
       }},
      {"vertices",
       [](GraphMask& mk) {
         for (const Vertex v : {2u, 5u, 9u}) mk.block_vertex(v);
       }},
      {"source", [s](GraphMask& mk) { mk.block_vertex(s); }},
      {"pi_segment",
       [=](GraphMask& mk) {
         if (e_mid == kInvalidEdge) return;
         mk.block_edge(e_mid);
         block_pi_segment(mk, pi, 1, len / 2);
       }},
      {"detour_tail",
       [=](GraphMask& mk) {
         if (e_mid == kInvalidEdge) return;
         mk.block_edge(e_mid);
         for (const Vertex v : off_pi) mk.block_vertex(v);
       }},
      {"cut_above_source",
       [=](GraphMask& mk) {
         if (above_s != kInvalidEdge) mk.block_edge(above_s);
       }},
      {"deep_cut",
       [=](GraphMask& mk) {
         if (e_last != kInvalidEdge) mk.block_edge(e_last);
       }},
  };
}

// Host graphs for the bounded calls of step 3: sparse ER (shallow T0, few
// shortest paths), a grid (T0 depth tight across whole rectangles) and a
// cycle (one long detour).
std::vector<std::pair<std::string, Graph>> step3_graphs() {
  std::vector<std::pair<std::string, Graph>> graphs;
  graphs.emplace_back("er", erdos_renyi(60, 0.08, 12));
  graphs.emplace_back("grid", grid_graph(7, 8));
  graphs.emplace_back("cycle", cycle_graph(24));
  return graphs;
}

// The masks step 3 of Cons2FTBFS builds for F = {e_i, t}, t an edge of the
// detour D_i that the single-fault selection of e_i took: the two edges
// alone; π(s, v)'s interior below u_k removed as well (G(u_k, v) ∖ F); and
// G(u_x, v) ∖ F minus the detour tail D[l+1 ..] (G_D(w_l) ∖ F).
std::vector<MaskKind> step3_masks(const Graph& g, const WeightAssignment& w,
                                  Vertex s) {
  const SelectorBaseline base(g, w, s);
  PathSelector sel(g, w, &base);
  VertexIndexMap pos(g.num_vertices());
  std::vector<MaskKind> masks;
  for (Vertex v = 0; v < g.num_vertices(); v += 3) {
    if (v == s || !base.tree().reached(v)) continue;
    const Path pi = extract_path(base.tree(), v);
    pos.bind(pi);
    for (std::size_t i = 0; i + 1 < pi.size(); ++i) {
      const auto d = select_single_fault(sel, pi, pos, i);
      if (!d) continue;
      const EdgeId e = g.find_edge(pi[i], pi[i + 1]);
      for (std::size_t r = 0; r + 1 < d->detour.size(); r += 2) {
        const EdgeId t = g.find_edge(d->detour[r], d->detour[r + 1]);
        const std::size_t x = d->x_pi_index;
        const std::size_t k = i / 2;
        const std::string at = " v=" + std::to_string(v) +
                               " i=" + std::to_string(i) +
                               " r=" + std::to_string(r);
        masks.push_back({"two_edges" + at, [=](GraphMask& m) {
                           m.block_edge(e);
                           m.block_edge(t);
                         }});
        masks.push_back({"pi_interior" + at, [=](GraphMask& m) {
                           m.block_edge(e);
                           m.block_edge(t);
                           block_pi_segment(m, pi, k, pi.size() - 2);
                         }});
        const Path detour = d->detour;
        masks.push_back({"detour_tail" + at, [=](GraphMask& m) {
                           m.block_edge(e);
                           m.block_edge(t);
                           block_pi_segment(m, pi, x, pi.size() - 2);
                           for (std::size_t l = r + 1; l < detour.size(); ++l) {
                             if (detour[l] != v) m.block_vertex(detour[l]);
                           }
                         }});
      }
    }
  }
  return masks;
}

// Whether the mask cuts t's T0 root path: the case in which hop_distance
// searches and probed_hops may be read.
bool cut_by(const SelectorBaseline& base, const GraphMask& m, Vertex t) {
  const TreeIndex& idx = base.index();
  for (Vertex x = t; idx.reached(x); x = idx.parent(x)) {
    if (m.vertex_blocked(x)) return true;
    if (x == idx.root()) return false;
    if (m.edge_blocked(idx.parent_edge(x))) return true;
  }
  return false;
}

// Bounds a caller may pass for a target at distance `want` (kInfHops: cut
// off) and T0 depth `depth`: each at_least is at most the distance, and the
// at_most values fall on both sides of it.
std::vector<HopBounds> bounds_for(std::uint32_t want, std::uint32_t depth) {
  std::vector<HopBounds> out = {{.at_least = depth},
                                {.at_most = depth + 1},
                                {.at_least = depth, .at_most = depth + 6}};
  if (want != kInfHops) {
    out.push_back({.at_least = want});
    out.push_back({.at_least = want, .at_most = want});
    out.push_back({.at_least = depth, .at_most = want - 1});
  }
  return out;
}

// The hop probe returns exactly the full BFS's hop count, kInfHops included,
// under every mask kind — whether it answers from the baseline, repairs the
// cut region, or searches.
TEST(PathSelector, HopProbeMatchesFullBfs) {
  for (const auto& [name, g] : kernel_graphs()) {
    SCOPED_TRACE(name);
    const WeightAssignment w(g, 4);
    // The shared baseline is T0(0); other sources build their own.
    const SelectorBaseline base0(g, w, 0);
    PathSelector sel(g, w, &base0);
    Bfs bfs(g);
    GraphMask& m = sel.mask();
    std::size_t unreachable = 0;
    for (const Vertex s : {0u, 1u, 5u, 31u}) {
      if (s >= g.num_vertices()) continue;
      for (const auto& [kind, apply] : kernel_masks(g, w, s)) {
        SCOPED_TRACE(kind);
        for (Vertex t = 0; t < g.num_vertices(); ++t) {
          m.clear();
          apply(m);
          const std::uint32_t want = bfs.run(s, &m).hops[t];
          ASSERT_EQ(sel.hop_distance(s, t), want) << s << "->" << t;
          unreachable += want == kInfHops ? 1 : 0;
        }
      }
    }
    EXPECT_GT(unreachable, 0u);  // the kInfHops case was exercised
    const KernelCounts& k = sel.kernel_counts();
    EXPECT_GT(k.probe_baseline, 0u);
    EXPECT_GT(k.probe_repair, 0u);
    EXPECT_GT(k.probe_search, 0u);
  }

  // Bounded probes on step 3's masks: the answer is the BFS distance, or
  // kInfHops beyond at_most, whichever pass gave it — the backward one, a
  // forward one it gave up for, or a forward one the gate chose. After a
  // finite answer, every neighbour of t across an unblocked edge reads its
  // exact distance if it is closer than t, and at least t's distance if not.
  KernelCounts bounded;
  std::size_t beyond = 0;
  for (const auto& [name, g] : step3_graphs()) {
    SCOPED_TRACE(name);
    const WeightAssignment w(g, 5);
    const SelectorBaseline base(g, w, 0);
    PathSelector sel(g, w, &base);
    Bfs bfs(g);
    GraphMask& m = sel.mask();
    for (const auto& [kind, apply] : step3_masks(g, w, 0)) {
      SCOPED_TRACE(kind);
      m.clear();
      apply(m);
      const std::vector<std::uint32_t> want = bfs.run(0, &m).hops;
      for (Vertex t = 0; t < g.num_vertices(); ++t) {
        if (!base.index().reached(t)) continue;  // no depth to bound
        for (const HopBounds& hb :
             bounds_for(want[t], base.index().depth(t))) {
          const std::uint32_t got = sel.hop_distance(0, t, hb);
          ASSERT_EQ(got, want[t] <= hb.at_most ? want[t] : kInfHops)
              << "t " << t << " bounds " << hb.at_least << ".."
              << hb.at_most;
          beyond += want[t] != kInfHops && want[t] > hb.at_most ? 1 : 0;
          if (got == kInfHops || !cut_by(base, m, t)) continue;
          for (const Arc& arc : g.neighbors(t)) {
            if (m.edge_blocked(arc.id) || m.vertex_blocked(arc.to)) continue;
            if (want[arc.to] < got) {
              EXPECT_EQ(sel.probed_hops(arc.to), want[arc.to]) << arc.to;
            } else {
              EXPECT_GE(sel.probed_hops(arc.to), got) << arc.to;
            }
          }
        }
      }
    }
    bounded += sel.kernel_counts();
  }
  EXPECT_GT(beyond, 0u);
  EXPECT_GT(bounded.probe_backward, 0u);
  EXPECT_GT(bounded.probe_repair, 0u);
  EXPECT_GT(bounded.probe_search, 0u);
  EXPECT_GT(bounded.backward_abandoned, 0u);
}

// The W-sweep returns the path and key of a full sweep of the masked graph —
// the layered Dijkstra::run and the heap reference alike.
TEST(PathSelector, WPathMatchesFullSweep) {
  for (const auto& [name, g] : kernel_graphs()) {
    SCOPED_TRACE(name);
    const WeightAssignment w(g, 8);
    const SelectorBaseline base0(g, w, 0);
    PathSelector sel(g, w, &base0);
    Dijkstra dij(g, w);
    GraphMask& m = sel.mask();
    for (const Vertex s : {0u, 1u, 5u, 31u}) {
      if (s >= g.num_vertices()) continue;
      for (const auto& [kind, apply] : kernel_masks(g, w, s)) {
        SCOPED_TRACE(kind);
        m.clear();
        apply(m);
        const SpResult want = reference_dijkstra(g, w, s, &m);
        EXPECT_EQ(dij.run(s, &m).dist, want.dist);
        for (Vertex t = 0; t < g.num_vertices(); ++t) {
          m.clear();
          apply(m);
          const std::optional<RPath> got = sel.w_path(s, t);
          ASSERT_EQ(got.has_value(), want.reached(t)) << s << "->" << t;
          if (!got) continue;
          EXPECT_EQ(got->key, want.dist[t]) << s << "->" << t;
          EXPECT_EQ(got->verts, extract_path(want, t)) << s << "->" << t;
          EXPECT_EQ(got->verts, extract_path(dij.run(s, &m, t), t))
              << s << "->" << t;
        }
      }
    }
    const KernelCounts& k = sel.kernel_counts();
    EXPECT_GT(k.sweep_baseline, 0u);
    EXPECT_GT(k.sweep_repair, 0u);
    EXPECT_GT(k.sweep_search, 0u);
  }

  // Bounded sweeps on step 3's masks: the heap reference's path and key, or
  // nullopt beyond at_most, whichever pass gave them.
  KernelCounts bounded;
  for (const auto& [name, g] : step3_graphs()) {
    SCOPED_TRACE(name);
    const WeightAssignment w(g, 9);
    const SelectorBaseline base(g, w, 0);
    PathSelector sel(g, w, &base);
    GraphMask& m = sel.mask();
    for (const auto& [kind, apply] : step3_masks(g, w, 0)) {
      SCOPED_TRACE(kind);
      m.clear();
      apply(m);
      const SpResult want = reference_dijkstra(g, w, 0, &m);
      for (Vertex t = 0; t < g.num_vertices(); ++t) {
        if (!base.index().reached(t)) continue;  // no depth to bound
        const std::uint32_t hops = want.reached(t) ? want.dist[t].hops
                                                   : kInfHops;
        for (const HopBounds& hb : bounds_for(hops, base.index().depth(t))) {
          const std::optional<RPath> got = sel.w_path(0, t, hb);
          ASSERT_EQ(got.has_value(), want.reached(t) && hops <= hb.at_most)
              << "t " << t << " bounds " << hb.at_least << ".."
              << hb.at_most;
          if (!got) continue;
          EXPECT_EQ(got->key, want.dist[t]) << "t " << t;
          EXPECT_EQ(got->verts, extract_path(want, t)) << "t " << t;
        }
      }
    }
    bounded += sel.kernel_counts();
  }
  EXPECT_GT(bounded.sweep_backward, 0u);
  EXPECT_GT(bounded.sweep_repair, 0u);
  EXPECT_GT(bounded.sweep_search, 0u);
}

// Step 3's one-probe rule against a full BFS over an explicitly built
// G_{τ−1}(v) ∖ F: v's edges cut down to a kept subset, F = {e_i, t} removed.
// The rule reads the probe step 3 makes — unbounded, and bounded below by
// |P_i| = dist(s, v, G ∖ {e_i}) — on ER graphs, a grid and a cycle.
TEST(PathSelector, KeptEdgeRuleMatchesRestrictedGraph) {
  std::size_t satisfied = 0, new_ending = 0;
  std::vector<std::pair<std::uint64_t, Graph>> graphs;
  for (const std::uint64_t seed : {31ull, 32ull, 33ull, 34ull}) {
    graphs.emplace_back(seed, erdos_renyi(45, 0.09, seed));
  }
  graphs.emplace_back(35, grid_graph(6, 7));
  graphs.emplace_back(36, cycle_graph(20));
  KernelCounts bounded;
  for (const auto& [seed, g] : graphs) {
    const WeightAssignment w(g, seed);
    const SelectorBaseline base(g, w, 0);
    PathSelector sel(g, w, &base);
    PathSelector bounded_sel(g, w, &base);
    VertexIndexMap pos(g.num_vertices());
    Rng rng(seed);
    for (Vertex v = 1; v < g.num_vertices(); ++v) {
      if (!base.tree().reached(v)) continue;
      const Path pi = extract_path(base.tree(), v);
      pos.bind(pi);
      for (std::size_t i = 0; i + 1 < pi.size(); ++i) {
        const auto sel_i = select_single_fault(sel, pi, pos, i);
        if (!sel_i) continue;
        const EdgeId e_i = g.find_edge(pi[i], pi[i + 1]);
        for (std::size_t r = 0; r + 1 < sel_i->detour.size(); ++r) {
          const EdgeId t =
              g.find_edge(sel_i->detour[r], sel_i->detour[r + 1]);
          std::vector<EdgeId> kept;
          for (const Arc& arc : g.neighbors(v)) {
            if (rng.next_below(2) == 0) kept.push_back(arc.id);
          }
          GraphMask& m = sel.mask();
          m.clear();
          m.block_edge(e_i);
          m.block_edge(t);
          const std::uint32_t target = sel.hop_distance(0, v);
          if (target == kInfHops) continue;
          const bool got = reaches_through_kept_edge(sel, v, kept, target);
          const KernelCounts before = bounded_sel.kernel_counts();
          bounded_sel.mask().clear();
          bounded_sel.mask().block_edge(e_i);
          bounded_sel.mask().block_edge(t);
          const auto single_hops =
              static_cast<std::uint32_t>(sel_i->path.size() - 1);
          EXPECT_EQ(bounded_sel.hop_distance(0, v, {.at_least = single_hops}),
                    target);
          EXPECT_EQ(reaches_through_kept_edge(bounded_sel, v, kept, target),
                    got);
          bounded += bounded_sel.kernel_counts() - before;

          std::vector<EdgeId> restricted;
          for (EdgeId e = 0; e < g.num_edges(); ++e) {
            if (e == e_i || e == t) continue;
            const Edge& ed = g.edge(e);
            const bool at_v = ed.u == v || ed.v == v;
            if (at_v &&
                std::find(kept.begin(), kept.end(), e) == kept.end()) {
              continue;
            }
            restricted.push_back(e);
          }
          const Graph gr = subgraph_from_edges(g, restricted);
          const bool want = bfs_distance(gr, 0, v) == target;
          EXPECT_EQ(got, want) << "v " << v << " i " << i << " r " << r;
          (want ? satisfied : new_ending)++;
        }
      }
    }
  }
  EXPECT_GT(satisfied, 0u);
  EXPECT_GT(new_ending, 0u);
  EXPECT_GT(bounded.probe_backward, 0u);
  EXPECT_GT(bounded.probe_repair + bounded.probe_search, 0u);
}

// Steps 2 and 3's probe-free rule, for random splits of v's edges into kept
// and unkept. Step 3's form (strict = false): whenever it fires, the probe of
// G ∖ F reaches v through a kept edge, and when it fires by the equality
// rule alone (floor 0) the probe finds dist(s, v, G ∖ {e_i}). Step 2's form
// (strict = true), on step-3 pairs and on pairs of π edges: whenever it
// fires, the W-selected path of G ∖ F ends in a kept edge. The depth floor
// must decide pairs that the equality rule alone misses.
TEST(PathSelector, T0WitnessAgreesWithProbe) {
  std::size_t fired = 0, fired_tree_t = 0, fired_by_floor = 0, silent = 0;
  std::size_t strict_fired = 0, strict_pi_pi = 0;
  for (const std::uint64_t seed : {41ull, 42ull, 43ull}) {
    const Graph g = erdos_renyi(50, 0.08, seed);
    const WeightAssignment w(g, seed);
    const SelectorBaseline base(g, w, 0);
    PathSelector sel(g, w, &base);
    VertexIndexMap pos(g.num_vertices());
    Rng rng(seed);
    // A random two thirds of v's edges, and the least T0 depth across the
    // others.
    std::vector<EdgeId> kept;
    std::uint32_t floor = kInfHops;
    auto split = [&](Vertex v) {
      kept.clear();
      floor = kInfHops;
      for (const Arc& arc : g.neighbors(v)) {
        if (rng.next_below(3) != 0) {
          kept.push_back(arc.id);
        } else {
          floor = std::min(floor, base.index().depth(arc.to));
        }
      }
    };
    // Masks G ∖ {a, b}.
    auto block = [&](EdgeId a, EdgeId b) {
      GraphMask& m = sel.mask();
      m.clear();
      m.block_edge(a);
      m.block_edge(b);
    };
    // Whether the W-selected path of the current mask ends in a kept edge.
    auto ends_kept = [&](Vertex v) {
      const auto rp = sel.w_path(0, v);
      return rp.has_value() &&
             std::find(kept.begin(), kept.end(), last_edge(g, rp->verts)) !=
                 kept.end();
    };
    for (Vertex v = 1; v < g.num_vertices(); ++v) {
      if (!base.tree().reached(v)) continue;
      const Path pi = extract_path(base.tree(), v);
      pos.bind(pi);
      for (std::size_t i = 0; i + 1 < pi.size(); ++i) {
        const EdgeId e_i = g.find_edge(pi[i], pi[i + 1]);
        for (std::size_t j = i + 1; j + 1 < pi.size(); ++j) {
          const EdgeId e_j = g.find_edge(pi[j], pi[j + 1]);
          split(v);
          if (!satisfied_in_t0(g, base, v, kept, e_i, e_j, 0, floor, true)) {
            continue;
          }
          ++strict_pi_pi;
          block(e_i, e_j);
          EXPECT_TRUE(ends_kept(v)) << "v " << v << " i " << i << " j " << j;
        }
        const auto sel_i = select_single_fault(sel, pi, pos, i);
        if (!sel_i) continue;
        const auto hops_i = static_cast<std::uint32_t>(sel_i->path.size() - 1);
        for (std::size_t r = 0; r + 1 < sel_i->detour.size(); ++r) {
          const EdgeId t =
              g.find_edge(sel_i->detour[r], sel_i->detour[r + 1]);
          split(v);
          const bool equality =
              satisfied_in_t0(g, base, v, kept, e_i, t, hops_i, 0, false);
          const bool loose =
              satisfied_in_t0(g, base, v, kept, e_i, t, hops_i, floor, false);
          const bool strict =
              satisfied_in_t0(g, base, v, kept, e_i, t, 0, floor, true);
          EXPECT_TRUE(loose || (!equality && !strict));
          if (!loose) {
            ++silent;
            continue;
          }
          ++fired;
          fired_by_floor += equality ? 0 : 1;
          fired_tree_t += base.edge_child(t) != kInvalidVertex ? 1 : 0;
          block(e_i, t);
          const std::uint32_t target = sel.hop_distance(0, v);
          if (equality) {
            EXPECT_EQ(target, hops_i) << "v " << v << " i " << i << " r " << r;
          }
          EXPECT_TRUE(reaches_through_kept_edge(sel, v, kept, target))
              << "v " << v << " i " << i << " r " << r;
          if (strict) {
            ++strict_fired;
            EXPECT_TRUE(ends_kept(v)) << "v " << v << " i " << i << " r " << r;
          }
        }
      }
    }
  }
  EXPECT_GT(fired, 0u);
  EXPECT_GT(fired_tree_t, 0u);
  EXPECT_GT(fired_by_floor, 0u);
  EXPECT_GT(silent, 0u);
  EXPECT_GT(strict_fired, 0u);
  EXPECT_GT(strict_pi_pi, 0u);
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
  sel.mask().clear();
  sel.mask().block_edge(g.find_edge(0, 1));
  EXPECT_EQ(sel.hop_distance(0, 3), 3u);
  EXPECT_EQ(sel.hop_distance(0, 1), 5u);
  EXPECT_EQ(sel.bfs_runs(), 3u);
  // Every call lands in exactly one kernel route.
  const KernelCounts& k = sel.kernel_counts();
  EXPECT_EQ(k.probe_baseline + k.probe_backward + k.probe_repair +
                k.probe_search,
            3u);
  EXPECT_EQ(k.sweeps(), 1u);
  EXPECT_GE(k.probe_baseline, 1u);  // the unmasked probe
  // Unbounded calls never search backward.
  EXPECT_EQ(k.probe_backward + k.sweep_backward + k.backward_abandoned, 0u);
}

// A broom: the path 0-1-2 with 48 leaves 3..50 below 2, and a second route
// 0-51-52-53-3 to leaf 3. Cutting (0, 1) cuts {1, 2, leaves}, 50 vertices,
// so the backward pass may expand 3 of them. Bounded near its target's
// depth it answers alone, and it gives up (for a forward pass with the same
// answer) once it would expand more.
TEST(PathSelector, BackwardPassAnswersNearItsTarget) {
  GraphBuilder gb(54);
  gb.add_edge(0, 1);
  gb.add_edge(1, 2);
  for (Vertex leaf = 3; leaf <= 50; ++leaf) gb.add_edge(2, leaf);
  gb.add_edge(0, 51);
  gb.add_edge(51, 52);
  gb.add_edge(52, 53);
  gb.add_edge(53, 3);
  const Graph g = std::move(gb).build();
  const WeightAssignment w(g, 2);
  PathSelector sel(g, w);
  sel.mask().block_edge(g.find_edge(0, 1));
  const KernelCounts& k = sel.kernel_counts();
  // Leaf 3 (depth 3): expands 3, 2 and 1, and closes 0-51-52-53-3.
  EXPECT_EQ(sel.hop_distance(0, 3, {.at_least = 3}), 4u);
  EXPECT_EQ(sel.probed_hops(53), 3u);  // a neighbour outside the cut
  EXPECT_GE(sel.probed_hops(2), 4u);   // a farther neighbour inside it
  EXPECT_EQ(sel.w_path(0, 3, {.at_most = 4})->verts,
            (Path{0, 51, 52, 53, 3}));
  // Vertex 1 (depth 1) is 6 hops away: beyond at_most = 3 after two
  // expansions, and beyond the slack of the bound 4 without any.
  EXPECT_EQ(sel.hop_distance(0, 1, {.at_most = 3}), kInfHops);
  EXPECT_EQ(k.probe_backward, 2u);
  EXPECT_EQ(k.sweep_backward, 1u);
  EXPECT_EQ(k.backward_vertices, 3u + 3u + 2u);
  EXPECT_EQ(sel.hop_distance(0, 1, {.at_most = 4}), kInfHops);
  EXPECT_EQ(k.probe_backward, 2u);
  EXPECT_EQ(k.probe_repair + k.probe_search, 1u);
  // Leaf 4 (depth 3) is 6 hops away too, through 3: the pass expands 4, 2,
  // 1 and would expand the other leaves, so it gives up.
  EXPECT_EQ(sel.hop_distance(0, 4, {.at_least = 3}), 6u);
  EXPECT_EQ(k.backward_abandoned, 1u);
  EXPECT_EQ(k.probe_repair + k.probe_search, 2u);
  EXPECT_EQ(sel.bfs_runs(), 4u);
  EXPECT_EQ(sel.dijkstra_runs(), 1u);
}

}  // namespace
}  // namespace ftbfs
