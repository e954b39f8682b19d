// Pins the kept edges of Cons2FTBFS, one graph per family, to constants
// recorded before the step-2/3 selection shortcuts (docs/perf.md) went in.
// A construction change that is meant to be invisible — a pass skipped
// because nesting already decides it, a probe reordered, a pair loop
// narrowed — must leave these digests alone, at every job count. The graphs
// reach every branch of the new-ending selection: the x = s one-sweep answer,
// its miss, and a π-divergence k0 other than x.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/cons2ftbfs.h"
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
      {"chords150", [] { return path_with_chords(150, 30, 5); }, 179,
       0x4d51ddb72586c386ull},
  };
  return graphs;
}

TEST(KeptEdgeDigest, Cons2MatchesPinnedAtEveryJobCount) {
  for (const Pinned& p : pinned()) {
    const Graph g = p.make();
    for (const unsigned jobs : {1u, 4u}) {
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

}  // namespace
}  // namespace ftbfs
