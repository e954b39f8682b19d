// Pins the kept edges of Cons2FTBFS, one graph per family, to constants
// recorded before the step-2/3 selection shortcuts (docs/perf.md) went in;
// er1000, a sparse graph where many step-2/3 calls take the backward pass,
// was recorded before the goal-directed single-target passes went in.
// A construction change that is meant to be invisible — a pass skipped
// because nesting already decides it, a probe reordered, a pair loop
// narrowed — must leave these digests alone, at every job count. The graphs
// reach every branch of the new-ending selection: the x = s one-sweep answer,
// its miss, and a π-divergence k0 other than x. The kfail_ftbfs digests were
// recorded while it still ran a full Dijkstra per chain, before it moved onto
// the selector's fault-local kernels. The single_ftbfs digests were recorded
// before step (1)'s batches searched backward from their targets. er2000,
// the graph `ftbfs gen --family er --n 2000 --p 0.004 --seed 1` writes, was
// recorded before steps (2) and (3) skipped the pairs a kept edge settles;
// it is the family on which step (2) keeping too few edges shows.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/cons2ftbfs.h"
#include "core/kfail_ftbfs.h"
#include "core/single_ftbfs.h"
#include "graph/generators.h"

namespace ftbfs {
namespace {

// FNV-1a (64-bit) over the little-endian bytes of the kept edge ids, in
// ascending order.
std::uint64_t digest(const std::vector<EdgeId>& edges) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const EdgeId e : edges) {
    for (unsigned b = 0; b < 4; ++b) {
      h ^= (e >> (8 * b)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  }
  return h;
}

struct Pinned {
  std::string name;
  std::function<Graph()> make;
  std::size_t kept;
  std::uint64_t digest;
};

const std::vector<Pinned>& pinned() {
  static const std::vector<Pinned> graphs = {
      {"er300", [] { return erdos_renyi(300, 8.0 / 300, 11); }, 801,
       0xc4a5e57786c19d50ull},
      {"connected200", [] { return random_connected(200, 1000, 7); }, 533,
       0xbf368356053a9e39ull},
      {"grid12x12", [] { return grid_graph(12, 12); }, 264,
       0x0fe6ee467389752dull},
      {"cycle60", [] { return cycle_graph(60); }, 60,
       0x4912f1e2ae5a8045ull},
      {"path80", [] { return path_graph(80); }, 79,
       0xe757d9c9d122eb1aull},
      {"barbell40", [] { return barbell_graph(40, 3); }, 105,
       0xbf12bdef3ae6f6a6ull},
      {"hypercube7", [] { return hypercube_graph(7); }, 346,
       0x4973f96abf5ceff6ull},
      {"er1000", [] { return erdos_renyi(1000, 8.0 / 1000, 13); }, 2654,
       0x05d86165da44bf69ull},
      {"chords150", [] { return path_with_chords(150, 30, 5); }, 179,
       0x4d51ddb72586c386ull},
      {"er2000", [] { return erdos_renyi(2000, 0.004, 1); }, 5352,
       0x0080f5169c3bca87ull},
  };
  return graphs;
}

TEST(KeptEdgeDigest, Cons2MatchesPinnedAtEveryJobCount) {
  for (const Pinned& p : pinned()) {
    const Graph g = p.make();
    for (const unsigned jobs : {1u, 2u, 4u, 8u}) {
      Cons2Options opt;
      opt.jobs = jobs;
      opt.classify_paths = false;
      const FtStructure h = build_cons2ftbfs(g, 0, opt);
      EXPECT_EQ(h.edges.size(), p.kept) << p.name << " jobs=" << jobs;
      EXPECT_EQ(digest(h.edges), p.digest)
          << p.name << " jobs=" << jobs << " digest 0x" << std::hex
          << digest(h.edges);
    }
  }
}

TEST(KeptEdgeDigest, SingleMatchesPinnedAtEveryJobCount) {
  struct SinglePinned {
    const char* name;
    std::size_t kept;
    std::uint64_t digest;
  };
  const std::vector<SinglePinned> want = {
      {"er1000", 1930, 0x20ff4b3b97fabbabull},
      {"grid12x12", 264, 0x0fe6ee467389752dull},
      {"hypercube7", 247, 0x944028067264f7c3ull},
      {"chords150", 179, 0x4d51ddb72586c386ull},
  };
  for (const SinglePinned& p : want) {
    const auto it =
        std::find_if(pinned().begin(), pinned().end(),
                     [&p](const Pinned& q) { return q.name == p.name; });
    ASSERT_NE(it, pinned().end()) << p.name;
    const Graph g = it->make();
    for (const unsigned jobs : {1u, 2u, 4u, 8u}) {
      SingleFtbfsOptions opt;
      opt.jobs = jobs;
      const FtStructure h = build_single_ftbfs(g, 0, opt);
      EXPECT_EQ(h.edges.size(), p.kept) << p.name << " jobs=" << jobs;
      EXPECT_EQ(digest(h.edges), p.digest)
          << p.name << " jobs=" << jobs << " digest 0x" << std::hex
          << digest(h.edges);
    }
  }
}

TEST(KeptEdgeDigest, KFailMatchesPinned) {
  struct KFailPinned {
    bool vertex_faults;
    unsigned f;
    std::size_t kept;
    std::uint64_t digest;
  };
  const Graph g = erdos_renyi(200, 6.0 / 200, 17);
  for (const KFailPinned& p : {KFailPinned{false, 2, 554, 0xc2b707169fadc2e4ull},
                               KFailPinned{false, 3, 672, 0x90a2ac0f3c4044d1ull},
                               KFailPinned{true, 2, 550, 0x2185a0d34fa2cf38ull}}) {
    const KFailResult r = p.vertex_faults ? build_kfail_ftbfs_vertex(g, 0, p.f)
                                          : build_kfail_ftbfs(g, 0, p.f);
    const char* model = p.vertex_faults ? "vertex" : "edge";
    EXPECT_EQ(r.structure.edges.size(), p.kept) << model << " f=" << p.f;
    EXPECT_EQ(digest(r.structure.edges), p.digest)
        << model << " f=" << p.f << " digest 0x" << std::hex
        << digest(r.structure.edges);
  }
}

}  // namespace
}  // namespace ftbfs
