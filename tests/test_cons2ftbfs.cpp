#include "core/cons2ftbfs.h"

#include <gtest/gtest.h>

#include <cmath>

#include "core/verify.h"
#include "graph/generators.h"
#include "spath/bfs.h"

namespace ftbfs {
namespace {

// Exhaustive dual-failure verification on one graph.
void expect_valid_dual(const Graph& g, Vertex s, const FtStructure& h) {
  const std::vector<Vertex> sources = {s};
  const auto violation = verify_exhaustive(g, h.edges, sources, 2);
  EXPECT_FALSE(violation.has_value())
      << (violation ? violation->describe(g) : "");
}

TEST(Cons2Ftbfs, TinyCycle) {
  const Graph g = cycle_graph(5);
  const FtStructure h = build_cons2ftbfs(g, 0);
  expect_valid_dual(g, 0, h);
  // A cycle is only 2-edge-connected; the whole cycle is needed.
  EXPECT_EQ(h.edges.size(), g.num_edges());
}

TEST(Cons2Ftbfs, CompleteGraphStaysSparse) {
  const Graph g = complete_graph(10);
  const FtStructure h = build_cons2ftbfs(g, 0);
  expect_valid_dual(g, 0, h);
  EXPECT_LT(h.edges.size(), g.num_edges());
}

TEST(Cons2Ftbfs, PathGraphIsItself) {
  const Graph g = path_graph(8);
  const FtStructure h = build_cons2ftbfs(g, 0);
  expect_valid_dual(g, 0, h);
  EXPECT_EQ(h.edges.size(), g.num_edges());
}

// Every π edge of a path is a bridge for the targets below it, so step (2)
// considers no pair and step (3) has no detour: the only fault pairs are
// step (1)'s, one per (v, e) with e on π(s,v).
TEST(Cons2Ftbfs, PathConsidersOnlySingleFaults) {
  const Graph g = path_graph(60);
  const FtStructure h = build_cons2ftbfs(g, 0);
  std::uint64_t depth_sum = 0;
  for (Vertex v = 0; v < g.num_vertices(); ++v) depth_sum += v;
  EXPECT_EQ(h.stats.fault_pairs_considered, depth_sum);
  EXPECT_EQ(h.edges.size(), g.num_edges());
}

TEST(Cons2Ftbfs, GridGraph) {
  const Graph g = grid_graph(4, 4);
  const FtStructure h = build_cons2ftbfs(g, 0);
  expect_valid_dual(g, 0, h);
}

TEST(Cons2Ftbfs, Hypercube) {
  const Graph g = hypercube_graph(4);
  const FtStructure h = build_cons2ftbfs(g, 0);
  expect_valid_dual(g, 0, h);
}

TEST(Cons2Ftbfs, BarbellAcrossSparseCut) {
  const Graph g = barbell_graph(14, 3);
  const FtStructure h = build_cons2ftbfs(g, 0);
  expect_valid_dual(g, 0, h);
}

TEST(Cons2Ftbfs, DisconnectedGraphCoversReachablePart) {
  GraphBuilder b(7);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(2, 0);
  b.add_edge(4, 5);  // island
  const Graph g = std::move(b).build();
  const FtStructure h = build_cons2ftbfs(g, 0);
  expect_valid_dual(g, 0, h);
}

TEST(Cons2Ftbfs, SourceDegreeOne) {
  GraphBuilder b(6);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(2, 3);
  b.add_edge(3, 4);
  b.add_edge(4, 1);
  b.add_edge(2, 5);
  b.add_edge(5, 3);
  const Graph g = std::move(b).build();
  const FtStructure h = build_cons2ftbfs(g, 0);
  expect_valid_dual(g, 0, h);
}

TEST(Cons2Ftbfs, StatsAreConsistent) {
  const Graph g = erdos_renyi(24, 0.2, 5);
  const FtStructure h = build_cons2ftbfs(g, 0);
  EXPECT_EQ(h.edges.size(), h.stats.tree_edges + h.stats.new_edges);
  EXPECT_GT(h.stats.fault_pairs_considered, 0u);
  EXPECT_EQ(h.stats.divergence_fallbacks, 0u);
  // Classification partitions all recorded new edges.
  EXPECT_EQ(h.stats.classes.total(), h.stats.new_edges);
}

TEST(Cons2Ftbfs, DeterministicForSeed) {
  const Graph g = erdos_renyi(20, 0.25, 9);
  const FtStructure h1 = build_cons2ftbfs(g, 0);
  const FtStructure h2 = build_cons2ftbfs(g, 0);
  EXPECT_EQ(h1.edges, h2.edges);
}

TEST(Cons2Ftbfs, ClassifyOffMatchesEdgeSet) {
  const Graph g = erdos_renyi(20, 0.25, 9);
  Cons2Options opt;
  opt.classify_paths = false;
  const FtStructure h1 = build_cons2ftbfs(g, 0, opt);
  const FtStructure h2 = build_cons2ftbfs(g, 0);
  EXPECT_EQ(h1.edges, h2.edges);
  EXPECT_EQ(h1.stats.classes.total(), 0u);
}

TEST(Cons2Ftbfs, ContainsBfsTreeDistances) {
  const Graph g = erdos_renyi(30, 0.15, 2);
  const FtStructure h = build_cons2ftbfs(g, 0);
  const Graph hg = materialize(g, h);
  Bfs bg(g), bh(hg);
  const auto& rg = bg.run(0);
  const auto& rh = bh.run(0);
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(rg.hops[v], rh.hops[v]);
  }
}

// The central sweep: exhaustive dual-failure verification over many random
// instances, spanning densities and seeds.
struct SweepParam {
  Vertex n;
  double p;
  std::uint64_t seed;
};

class Cons2Sweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(Cons2Sweep, ExhaustiveDualFailure) {
  const SweepParam param = GetParam();
  const Graph g = erdos_renyi(param.n, param.p, param.seed);
  const FtStructure h = build_cons2ftbfs(g, 0);
  expect_valid_dual(g, 0, h);
  EXPECT_EQ(h.stats.divergence_fallbacks, 0u);
}

std::vector<SweepParam> sweep_params() {
  std::vector<SweepParam> params;
  for (const Vertex n : {8u, 12u, 16u, 20u, 24u}) {
    for (const double p : {0.10, 0.25, 0.45}) {
      for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        params.push_back({n, p, seed});
      }
    }
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, Cons2Sweep,
                         ::testing::ValuesIn(sweep_params()),
                         [](const auto& info) {
                           return "n" + std::to_string(info.param.n) + "_p" +
                                  std::to_string(int(info.param.p * 100)) +
                                  "_s" + std::to_string(info.param.seed);
                         });

// Different weight seeds give different (but all valid) structures.
class Cons2SeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Cons2SeedSweep, AnyWeightSeedIsValid) {
  const Graph g = erdos_renyi(14, 0.3, 77);
  Cons2Options opt;
  opt.weight_seed = GetParam();
  const FtStructure h = build_cons2ftbfs(g, 0, opt);
  expect_valid_dual(g, 0, h);
}

INSTANTIATE_TEST_SUITE_P(WeightSeeds, Cons2SeedSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// Every source of a fixed graph must work.
class Cons2SourceSweep : public ::testing::TestWithParam<Vertex> {};

TEST_P(Cons2SourceSweep, AnySourceIsValid) {
  const Graph g = erdos_renyi(13, 0.3, 31);
  const Vertex s = GetParam();
  const FtStructure h = build_cons2ftbfs(g, s);
  const std::vector<Vertex> sources = {s};
  const auto violation = verify_exhaustive(g, h.edges, sources, 2);
  EXPECT_FALSE(violation.has_value())
      << (violation ? violation->describe(g) : "");
}

INSTANTIATE_TEST_SUITE_P(Sources, Cons2SourceSweep,
                         ::testing::Range<Vertex>(0, 13));

// Exhaustive verification on structured (non-ER) families.
struct FamilyCase {
  const char* name;
  Graph (*make)(std::uint64_t seed);
};

Graph fam_grid(std::uint64_t) { return grid_graph(4, 5); }
Graph fam_hypercube(std::uint64_t) { return hypercube_graph(4); }
Graph fam_barbell(std::uint64_t) { return barbell_graph(14, 2); }
Graph fam_chords(std::uint64_t seed) { return path_with_chords(18, 10, seed); }
Graph fam_connected(std::uint64_t seed) {
  return random_connected(18, 34, seed);
}
Graph fam_bipartite(std::uint64_t) { return complete_bipartite(4, 6); }
Graph fam_cycle(std::uint64_t) { return cycle_graph(14); }

class Cons2FamilySweep
    : public ::testing::TestWithParam<std::tuple<FamilyCase, std::uint64_t>> {
};

TEST_P(Cons2FamilySweep, ExhaustiveDualFailure) {
  const auto& [fam, seed] = GetParam();
  const Graph g = fam.make(seed);
  Cons2Options opt;
  opt.weight_seed = seed;
  const FtStructure h = build_cons2ftbfs(g, 0, opt);
  expect_valid_dual(g, 0, h);
  EXPECT_EQ(h.stats.divergence_fallbacks, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    StructuredFamilies, Cons2FamilySweep,
    ::testing::Combine(
        ::testing::Values(FamilyCase{"grid", &fam_grid},
                          FamilyCase{"hypercube", &fam_hypercube},
                          FamilyCase{"barbell", &fam_barbell},
                          FamilyCase{"chords", &fam_chords},
                          FamilyCase{"connected", &fam_connected},
                          FamilyCase{"bipartite", &fam_bipartite},
                          FamilyCase{"cycle", &fam_cycle}),
        ::testing::Values<std::uint64_t>(1, 2, 3)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param).name) + "_s" +
             std::to_string(std::get<1>(info.param));
    });

// Size bound sanity: |E(H)| <= c * n^{5/3} with a generous constant (Thm 1.1
// proves c exists; the benches chart the actual constants).
TEST(Cons2Ftbfs, SizeWithinTheoremBound) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    for (const Vertex n : {20u, 40u, 60u}) {
      const Graph g = erdos_renyi(n, 0.2, seed);
      const FtStructure h = build_cons2ftbfs(g, 0);
      const double bound = 4.0 * std::pow(n, 5.0 / 3.0);
      EXPECT_LT(static_cast<double>(h.edges.size()), bound)
          << "n=" << n << " seed=" << seed;
    }
  }
}

}  // namespace
}  // namespace ftbfs
