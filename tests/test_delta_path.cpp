// The fault-delta query path (docs/perf.md) must be *observationally
// equivalent* to the pre-delta full-masked-BFS path: bit-identical distances
// from every hops-reading API, and — for the parent-exposing APIs, which now
// route through the parent-carrying repair BFS — a valid shortest-path tree
// with the same hop counts (the specific parent among equal-hop candidates
// is tie-break-dependent: BFS parentage depends on queue order, which a
// bounded repair cannot reproduce; docs/perf.md "Parent repair"). These
// tests pit a delta-enabled engine/service against a delta-disabled twin
// over randomized graphs × fault sets × budgets — including the threshold-
// fallback boundary at fractions 0 (always fall back) and 1 (never) — check
// every repair-path parent tree and path for validity, compare serve
// responses across delta on/off and across the delta-compressed scenario
// cache's representation thresholds, and pin down the fast/repair/full
// counter accounting the serving stats surface. The engine's repaired region
// (the vertices an answer may change) is checked against full masked BFSs,
// and every resident cache line — filled from that region — against a
// brute-force O(n) diff with the baseline, serially and from four threads.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "engine/query_engine.h"
#include "engine/registry.h"
#include "graph/generators.h"
#include "persist/service_io.h"
#include "service/oracle_service.h"
#include "service/protocol.h"
#include "util/rng.h"

namespace ftbfs {
namespace {

FaultQueryEngine::DeltaOptions delta_off() {
  return {.enabled = false, .max_affected_fraction = 0.5};
}

// A fault set biased toward tree damage: half the edges are drawn from the
// baseline tree of `h_edges`' structure (parent edges of random vertices in
// g — most survive into H), half uniformly; optional vertex faults.
struct FaultDraw {
  std::vector<EdgeId> edges;
  std::vector<Vertex> vertices;
  [[nodiscard]] FaultSpec spec() const { return FaultSpec{edges, vertices}; }
};

FaultDraw draw_faults(Rng& rng, const Graph& g, const BfsResult& tree,
                      std::size_t max_edges, std::size_t max_vertices) {
  FaultDraw out;
  const std::size_t ne = rng.next_below(max_edges + 1);
  for (std::size_t i = 0; i < ne; ++i) {
    if (rng.next_below(2) == 0) {
      const Vertex v = static_cast<Vertex>(rng.next_below(g.num_vertices()));
      if (tree.parent_edge[v] != kInvalidEdge) {
        out.edges.push_back(tree.parent_edge[v]);
        continue;
      }
    }
    out.edges.push_back(static_cast<EdgeId>(rng.next_below(g.num_edges())));
  }
  for (std::size_t i = 0; i < rng.next_below(max_vertices + 1); ++i) {
    out.vertices.push_back(
        static_cast<Vertex>(rng.next_below(g.num_vertices())));
  }
  return out;
}

// True iff the canonical fault set hits g-edge `ge` / vertex `v`.
bool edge_faulted(const CanonicalFaultSet& canon, EdgeId ge) {
  return std::binary_search(canon.edges().begin(), canon.edges().end(), ge);
}
bool vertex_faulted(const CanonicalFaultSet& canon, Vertex v) {
  return std::binary_search(canon.vertices().begin(), canon.vertices().end(),
                            v);
}

// `r` must be a valid shortest-path tree of H ∖ F with hops bit-identical to
// the full masked BFS (`truth`): every reached non-source vertex hangs off a
// usable H edge to a parent exactly one hop closer; the source and the
// unreachable carry sentinel parents. `h` is the engine's structure graph
// (H edge ids), faults are host-graph ids.
void expect_valid_tree(const Graph& g, const Graph& h, Vertex source,
                       const FaultSpec& faults, const BfsResult& r,
                       const BfsResult& truth) {
  const CanonicalFaultSet canon = faults.canonicalize();
  ASSERT_EQ(r.hops, truth.hops);
  for (Vertex v = 0; v < h.num_vertices(); ++v) {
    SCOPED_TRACE("vertex " + std::to_string(v));
    if (v == source && r.hops[v] == 0) {
      EXPECT_EQ(r.parent[v], kInvalidVertex);
      EXPECT_EQ(r.parent_edge[v], kInvalidEdge);
      continue;
    }
    if (r.hops[v] == kInfHops) {
      EXPECT_EQ(r.parent[v], kInvalidVertex);
      EXPECT_EQ(r.parent_edge[v], kInvalidEdge);
      continue;
    }
    const Vertex p = r.parent[v];
    const EdgeId he = r.parent_edge[v];
    ASSERT_NE(p, kInvalidVertex);
    ASSERT_NE(he, kInvalidEdge);
    ASSERT_LT(he, h.num_edges());
    const Edge& edge = h.edge(he);
    EXPECT_TRUE((edge.u == p && edge.v == v) || (edge.u == v && edge.v == p));
    EXPECT_EQ(r.hops[p] + 1, r.hops[v]);
    // The parent edge must be usable under the fault set (host ids).
    const EdgeId ge = g.find_edge(edge.u, edge.v);
    ASSERT_NE(ge, kInvalidEdge);
    EXPECT_FALSE(edge_faulted(canon, ge));
    EXPECT_FALSE(vertex_faulted(canon, p));
    EXPECT_FALSE(vertex_faulted(canon, v));
  }
}

// `path`, if present, must be a real shortest path: right endpoints, length
// matching the full-BFS distance, consecutive hops along usable H edges.
void expect_valid_path(const Graph& g, const Graph& h, Vertex source,
                       Vertex target, const FaultSpec& faults,
                       std::uint32_t true_hops,
                       const std::optional<Path>& path) {
  const CanonicalFaultSet canon = faults.canonicalize();
  ASSERT_EQ(path.has_value(), true_hops != kInfHops);
  if (!path.has_value()) return;
  ASSERT_FALSE(path->empty());
  EXPECT_EQ(path->front(), source);
  EXPECT_EQ(path->back(), target);
  ASSERT_EQ(path->size(), static_cast<std::size_t>(true_hops) + 1);
  for (std::size_t i = 0; i + 1 < path->size(); ++i) {
    const EdgeId he = h.find_edge((*path)[i], (*path)[i + 1]);
    ASSERT_NE(he, kInvalidEdge)
        << "step " << (*path)[i] << "->" << (*path)[i + 1] << " not in H";
    const EdgeId ge = g.find_edge((*path)[i], (*path)[i + 1]);
    EXPECT_FALSE(edge_faulted(canon, ge));
  }
  for (const Vertex v : *path) EXPECT_FALSE(vertex_faulted(canon, v));
}

// One engine pair (delta on / off) over the same structure; every
// hops-reading API must agree exactly, and the parent-exposing APIs must
// produce valid shortest-path trees/paths with the full-BFS hop counts.
void expect_engines_agree(const Graph& g, std::span<const EdgeId> h_edges,
                          Vertex source, std::uint64_t seed, int rounds,
                          double fraction) {
  FaultQueryEngine delta(g, h_edges);
  delta.set_delta_options({.enabled = true, .max_affected_fraction = fraction});
  FaultQueryEngine full(g, h_edges);
  full.set_delta_options(delta_off());

  // The baseline tree of G guides the tree-damage bias (H's own tree differs,
  // but parent edges of G frequently land on H tree edges too).
  Bfs bfs(g);
  const BfsResult g_tree = bfs.run(source);

  Rng rng(seed);
  std::vector<FaultDraw> draws;
  std::vector<FaultSpec> specs;
  for (int r = 0; r < rounds; ++r) {
    draws.push_back(draw_faults(rng, g, g_tree, 4, 1));
  }
  for (const FaultDraw& d : draws) specs.push_back(d.spec());

  const Vertex n = g.num_vertices();
  std::vector<Vertex> targets = {0, static_cast<Vertex>(n / 3),
                                 static_cast<Vertex>(n / 2),
                                 static_cast<Vertex>(n - 1)};
  for (std::size_t r = 0; r < draws.size(); ++r) {
    const FaultSpec spec = specs[r];
    SCOPED_TRACE("round " + std::to_string(r));

    // all_distances: the full vector, every vertex.
    EXPECT_EQ(delta.all_distances(source, spec), full.all_distances(source, spec));

    // distance: single-target early-exit path.
    const Vertex t = targets[r % targets.size()];
    EXPECT_EQ(delta.distance(source, t, spec), full.distance(source, t, spec));

    // query: the parent-exposing primitive. Hops bit-identical; parents a
    // valid shortest-path tree (repair parents may pick a different
    // equal-hop candidate than the full BFS's queue order did).
    const BfsResult& fr = full.query(source, spec);
    const BfsResult& dr = delta.query(source, spec);
    expect_valid_tree(g, delta.structure_graph(), source, spec, dr, fr);

    // shortest_path: a real shortest path of the exact full-BFS length.
    const std::optional<Path> dp = delta.shortest_path(source, t, spec);
    expect_valid_path(g, delta.structure_graph(), source, t, spec,
                      fr.hops[t], dp);
  }

  // batch: whole matrix in one call, then from four racing callers, each on
  // its own leased scratch.
  const std::vector<std::uint32_t> expected = full.batch(source, specs, targets);
  EXPECT_EQ(delta.batch(source, specs, targets), expected);
  std::vector<std::vector<std::uint32_t>> raced(4);
  std::vector<std::thread> callers;
  for (auto& out : raced) {
    callers.emplace_back(
        [&, o = &out] { *o = delta.batch(source, specs, targets); });
  }
  for (std::thread& c : callers) c.join();
  for (const auto& out : raced) EXPECT_EQ(out, expected);
}

TEST(DeltaPath, MatchesFullBfsOnRandomGraphs) {
  for (const std::uint64_t seed : {1u, 7u, 23u}) {
    const Graph g = erdos_renyi(64, 0.1, seed);
    BuildRequest req;
    req.graph = &g;
    req.sources = {0};
    req.fault_budget = 2;
    const BuildResult built =
        BuilderRegistry::instance().build("cons2ftbfs", req);
    expect_engines_agree(g, built.structure.edges, 0, seed * 101, 40, 0.5);
  }
}

TEST(DeltaPath, MatchesFullBfsOnIdentityEngine) {
  const Graph g = erdos_renyi(80, 0.08, 3);
  std::vector<EdgeId> all(g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) all[e] = e;
  expect_engines_agree(g, all, 5, 99, 40, 0.5);
}

TEST(DeltaPath, MatchesFullBfsOnSparseTreelikeGraph) {
  // Tree-heavy host: almost every fault is a tree fault, subtrees are large,
  // so the threshold fallback triggers regularly at fraction 0.25.
  const Graph g = path_with_chords(96, 10, 5);
  std::vector<EdgeId> all(g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) all[e] = e;
  expect_engines_agree(g, all, 0, 55, 40, 0.25);
}

TEST(DeltaPath, ThresholdBoundaryFractions) {
  const Graph g = erdos_renyi(48, 0.12, 13);
  std::vector<EdgeId> all(g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) all[e] = e;
  // fraction 0: every damaged query must fall back to the full BFS (answers
  // still exact); fraction 1: the repair never falls back.
  expect_engines_agree(g, all, 0, 77, 30, 0.0);
  expect_engines_agree(g, all, 0, 78, 30, 1.0);

  FaultQueryEngine never_repair(g);
  never_repair.set_delta_options(
      {.enabled = true, .max_affected_fraction = 0.0});
  Bfs bfs(g);
  const BfsResult tree = bfs.run(0);
  EdgeId tree_edge = kInvalidEdge;  // any tree edge (the graph may leave
                                    // high-numbered vertices unreached)
  for (Vertex v = g.num_vertices(); v-- > 0 && tree_edge == kInvalidEdge;) {
    tree_edge = tree.parent_edge[v];
  }
  ASSERT_NE(tree_edge, kInvalidEdge);
  const EdgeId faults[1] = {tree_edge};
  (void)never_repair.all_distances(0, edge_faults(faults));
  const FaultQueryEngine::PathStats stats = never_repair.path_stats();
  EXPECT_EQ(stats.repair_bfs, 0u);
  EXPECT_EQ(stats.full_bfs, 1u);
}

TEST(DeltaPath, CountersClassifyQueries) {
  const Graph g = cycle_graph(32);  // every edge is either tree or the one
                                    // cross edge closing the cycle
  FaultQueryEngine engine(g);
  Bfs bfs(g);
  const BfsResult tree = bfs.run(0);

  // Fault a non-tree edge: fast path, answers straight from the baseline.
  EdgeId non_tree = kInvalidEdge;
  std::vector<bool> is_tree(g.num_edges(), false);
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    if (tree.parent_edge[v] != kInvalidEdge) is_tree[tree.parent_edge[v]] = true;
  }
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (!is_tree[e]) non_tree = e;
  }
  ASSERT_NE(non_tree, kInvalidEdge);
  const EdgeId nt_faults[1] = {non_tree};
  (void)engine.all_distances(0, edge_faults(nt_faults));
  FaultQueryEngine::PathStats stats = engine.path_stats();
  EXPECT_EQ(stats.fast_path_hits, 1u);
  EXPECT_EQ(stats.repair_bfs, 0u);
  EXPECT_EQ(stats.full_bfs, 0u);

  // Fault the tree edge above the BFS tree's deepest leaf: a one-vertex
  // subtree, repaired via the other side of the cycle.
  const EdgeId leaf_edge = tree.parent_edge[16];
  ASSERT_NE(leaf_edge, kInvalidEdge);
  const EdgeId tr_faults[1] = {leaf_edge};
  (void)engine.all_distances(0, edge_faults(tr_faults));
  stats = engine.path_stats();
  EXPECT_EQ(stats.fast_path_hits, 1u);
  EXPECT_EQ(stats.repair_bfs, 1u);
  EXPECT_EQ(stats.full_bfs, 0u);

  // Single-target distance whose target sits outside the damage: answered
  // from the baseline without running the repair.
  const std::uint32_t d = engine.distance(0, 8, edge_faults(tr_faults));
  EXPECT_EQ(d, 8u);
  stats = engine.path_stats();
  EXPECT_EQ(stats.fast_path_hits, 2u);
  EXPECT_EQ(stats.repair_bfs, 1u);

  // Faulted source: full BFS reports the all-unreachable result.
  const Vertex src_fault[1] = {0};
  const auto& hops = engine.all_distances(0, vertex_faults(src_fault));
  for (Vertex v = 0; v < g.num_vertices(); ++v) EXPECT_EQ(hops[v], kInfHops);
  stats = engine.path_stats();
  EXPECT_EQ(stats.full_bfs, 1u);

  // The parent-exposing APIs take the same tiers: each call moves exactly
  // one counter.
  using Moved = std::array<std::uint64_t, 3>;
  const auto moved = [&](const auto& call) {
    const FaultQueryEngine::PathStats before = engine.path_stats();
    call();
    const FaultQueryEngine::PathStats after = engine.path_stats();
    return Moved{after.fast_path_hits - before.fast_path_hits,
                 after.repair_bfs - before.repair_bfs,
                 after.full_bfs - before.full_bfs};
  };
  const Moved fast{1, 0, 0};
  const Moved repaired{0, 1, 0};
  const Moved full{0, 0, 1};
  const FaultSpec nt = edge_faults(nt_faults);
  const FaultSpec tr = edge_faults(tr_faults);
  const FaultSpec src = vertex_faults(src_fault);
  std::optional<Path> path;
  EXPECT_EQ(moved([&] { (void)engine.query(0, nt); }), fast);
  EXPECT_EQ(moved([&] { path = engine.shortest_path(0, 8, nt); }), fast);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->size(), 9u);
  EXPECT_EQ(moved([&] { EXPECT_EQ(engine.query(0, tr).hops[16], 16u); }),
            repaired);
  // A target the damage misses keeps its baseline path; the cut-off leaf
  // needs the repair.
  EXPECT_EQ(moved([&] { path = engine.shortest_path(0, 8, tr); }), fast);
  EXPECT_EQ(moved([&] { path = engine.shortest_path(0, 16, tr); }), repaired);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->size(), 17u);
  EXPECT_EQ(moved([&] { EXPECT_EQ(engine.query(0, src).hops[5], kInfHops); }),
            full);
  EXPECT_EQ(moved([&] { path = engine.shortest_path(0, 5, src); }), full);
  EXPECT_FALSE(path.has_value());

  // Every query is accounted to exactly one path.
  stats = engine.path_stats();
  EXPECT_EQ(stats.fast_path_hits + stats.repair_bfs + stats.full_bfs,
            engine.queries_answered());
}

TEST(DeltaPath, RepairHandlesDisconnection) {
  // Cutting the path graph's edge (k-1, k) disconnects the whole tail; the
  // repair must report every tail vertex unreachable.
  const Graph g = path_graph(20);
  FaultQueryEngine engine(g);
  engine.set_delta_options({.enabled = true, .max_affected_fraction = 1.0});
  const EdgeId cut[1] = {g.find_edge(9, 10)};
  const auto& hops = engine.all_distances(0, edge_faults(cut));
  for (Vertex v = 0; v < 10; ++v) EXPECT_EQ(hops[v], v);
  for (Vertex v = 10; v < 20; ++v) EXPECT_EQ(hops[v], kInfHops);
  EXPECT_EQ(engine.path_stats().repair_bfs, 1u);
}

TEST(DeltaPath, RepairReroutesAroundDamage) {
  // Grid: cutting one tree edge leaves plenty of detours; repaired distances
  // must match a fresh ground-truth engine with the delta disabled.
  const Graph g = grid_graph(8, 8);
  FaultQueryEngine delta(g);
  delta.set_delta_options({.enabled = true, .max_affected_fraction = 1.0});
  FaultQueryEngine full(g);
  full.set_delta_options(delta_off());
  Bfs bfs(g);
  const BfsResult tree = bfs.run(0);
  for (Vertex v : {static_cast<Vertex>(9), static_cast<Vertex>(27),
                   static_cast<Vertex>(63)}) {
    const EdgeId faults[1] = {tree.parent_edge[v]};
    EXPECT_EQ(delta.all_distances(0, edge_faults(faults)),
              full.all_distances(0, edge_faults(faults)));
  }
  EXPECT_GT(delta.path_stats().repair_bfs, 0u);
}

// Small-damage parent-exposing queries must take the repair path — the full
// BFS counter stays put. This is the PR's headline behavior change: before
// the parent-carrying repair, any damaged query()/shortest_path() fell back
// to the full masked BFS.
TEST(DeltaPath, ParentQueriesTakeRepairPath) {
  const Graph g = grid_graph(8, 8);
  FaultQueryEngine engine(g);
  FaultQueryEngine full(g);
  full.set_delta_options(delta_off());
  Bfs bfs(g);
  const BfsResult tree = bfs.run(0);
  const EdgeId faults[1] = {tree.parent_edge[27]};  // interior tree edge
  const FaultSpec spec = edge_faults(faults);

  // query: repaired tree, not a full BFS.
  const BfsResult& fr = full.query(0, spec);
  const BfsResult& dr = engine.query(0, spec);
  expect_valid_tree(g, engine.structure_graph(), 0, spec, dr, fr);
  FaultQueryEngine::PathStats stats = engine.path_stats();
  EXPECT_EQ(stats.repair_bfs, 1u);
  EXPECT_EQ(stats.full_bfs, 0u);

  // shortest_path to a vertex inside the damaged subtree: repair again.
  const std::optional<Path> into = engine.shortest_path(0, 27, spec);
  expect_valid_path(g, engine.structure_graph(), 0, 27, spec, fr.hops[27],
                    into);
  stats = engine.path_stats();
  EXPECT_EQ(stats.repair_bfs, 2u);
  EXPECT_EQ(stats.full_bfs, 0u);

  // shortest_path to an unaffected vertex: the baseline tree answers without
  // even running the repair.
  const std::optional<Path> outside = engine.shortest_path(0, 8, spec);
  expect_valid_path(g, engine.structure_graph(), 0, 8, spec, fr.hops[8],
                    outside);
  stats = engine.path_stats();
  EXPECT_EQ(stats.fast_path_hits, 1u);
  EXPECT_EQ(stats.repair_bfs, 2u);
  EXPECT_EQ(stats.full_bfs, 0u);
}

// --- through the service ----------------------------------------------------

std::vector<QueryRequest> service_workload(const Graph& g, int count,
                                           std::uint64_t seed) {
  Rng rng(seed);
  Bfs bfs(g);
  const BfsResult tree = bfs.run(0);
  std::vector<QueryRequest> out;
  for (int i = 0; i < count; ++i) {
    QueryRequest req;
    req.id = i;
    req.source = 0;
    const FaultDraw d = draw_faults(rng, g, tree, 3, 1);
    req.fault_edges = d.edges;
    req.fault_vertices = d.vertices;
    switch (rng.next_below(4)) {
      case 0:
        req.kind = QueryKind::kAllDistances;
        break;
      case 1:
        req.kind = QueryKind::kPath;
        req.targets = {static_cast<Vertex>(rng.next_below(g.num_vertices()))};
        break;
      case 2:
        req.kind = QueryKind::kReachability;
        req.targets = {static_cast<Vertex>(rng.next_below(g.num_vertices())),
                       static_cast<Vertex>(rng.next_below(g.num_vertices()))};
        break;
      default:
        req.kind = QueryKind::kDistance;
        req.targets = {static_cast<Vertex>(rng.next_below(g.num_vertices()))};
        break;
    }
    req.consistency =
        rng.next_below(4) == 0 ? Consistency::kBestEffort
                               : Consistency::kExactOrRefuse;
    out.push_back(std::move(req));
  }
  return out;
}

TEST(DeltaPath, ServeMatchesFullBfsServiceWithDeltaOnAndOff) {
  const Graph g = erdos_renyi(60, 0.1, 21);
  ServiceConfig on;
  ServiceConfig off;
  off.delta_queries = false;
  off.cache_delta_max_fraction = 0.0;
  OracleService delta_service(g, on);
  OracleService full_service(g, off);
  const std::vector<QueryRequest> requests = service_workload(g, 250, 31);
  for (const QueryRequest& req : requests) {
    const QueryResponse dr = delta_service.serve(req);
    const QueryResponse fr = full_service.serve(req);
    if (req.kind != QueryKind::kPath) {
      // Non-path payloads are bit-identical — the wire bytes cannot drift.
      EXPECT_EQ(format_response_line(dr), format_response_line(fr))
          << "request " << req.id;
      continue;
    }
    // Path responses: everything but the vertex lists must match (lengths
    // included — resp.distances carries them); the delta paths themselves
    // must be valid shortest paths, but may realize a different tie-break
    // than the full BFS (see the file comment).
    EXPECT_EQ(dr.status, fr.status) << "request " << req.id;
    EXPECT_EQ(dr.exact, fr.exact);
    EXPECT_EQ(dr.served_by, fr.served_by);
    EXPECT_EQ(dr.cache_hit, fr.cache_hit);
    EXPECT_EQ(dr.distances, fr.distances);
    ASSERT_EQ(dr.paths.size(), fr.paths.size());
    const CanonicalFaultSet canon =
        FaultSpec{req.fault_edges, req.fault_vertices}.canonicalize();
    for (std::size_t i = 0; i < dr.paths.size(); ++i) {
      ASSERT_EQ(dr.paths[i].empty(), fr.paths[i].empty());
      if (dr.paths[i].empty()) continue;
      EXPECT_EQ(dr.paths[i].size(), fr.paths[i].size());
      EXPECT_EQ(dr.paths[i].front(), req.source);
      EXPECT_EQ(dr.paths[i].back(), req.targets[i]);
      for (std::size_t j = 0; j + 1 < dr.paths[i].size(); ++j) {
        const EdgeId ge = g.find_edge(dr.paths[i][j], dr.paths[i][j + 1]);
        ASSERT_NE(ge, kInvalidEdge);
        EXPECT_FALSE(edge_faulted(canon, ge));
      }
      for (const Vertex v : dr.paths[i]) {
        EXPECT_FALSE(vertex_faulted(canon, v));
      }
    }
  }
  // The delta service actually used its fast/repair tiers (not everything
  // fell back), and the disabled twin never did.
  const ServiceStats ds = delta_service.stats();
  EXPECT_GT(ds.fast_path_hits + ds.repair_bfs, 0u);
  const ServiceStats fs = full_service.stats();
  EXPECT_EQ(fs.fast_path_hits, 0u);
  EXPECT_EQ(fs.repair_bfs, 0u);
  EXPECT_GT(fs.full_bfs, 0u);
}

// The delta-compressed scenario cache is a representation change only: the
// response stream must be byte-identical with compression off (threshold 0,
// every line a full vector), at the default, and with every diff compressed
// (threshold ∞) — and the hit/miss/eviction counters must not move either.
TEST(DeltaPath, ServeBytesIdenticalAcrossCacheDeltaThresholds) {
  const Graph g = erdos_renyi(60, 0.1, 77);
  ServiceConfig full_lines;
  full_lines.cache_delta_max_fraction = 0.0;  // escape hatch always
  ServiceConfig defaults;
  ServiceConfig always_delta;
  always_delta.cache_delta_max_fraction = 1e9;  // compress every diff
  ServiceConfig uncached;
  uncached.cache_capacity = 0;
  OracleService s_full(g, full_lines);
  OracleService s_default(g, defaults);
  OracleService s_delta(g, always_delta);
  OracleService s_uncached(g, uncached);
  const std::vector<QueryRequest> requests = service_workload(g, 300, 93);
  for (const QueryRequest& req : requests) {
    const QueryResponse full_resp = s_full.serve(req);
    const std::string line = format_response_line(full_resp);
    EXPECT_EQ(line, format_response_line(s_default.serve(req)))
        << "request " << req.id;
    EXPECT_EQ(line, format_response_line(s_delta.serve(req)))
        << "request " << req.id;
    // The uncached twin must agree on everything but the cache_hit
    // attribution flag.
    QueryResponse raw = s_uncached.serve(req);
    raw.cache_hit = false;
    QueryResponse norm = full_resp;
    norm.cache_hit = false;
    EXPECT_EQ(format_response_line(norm), format_response_line(raw))
        << "request " << req.id;
  }
  // Identical admission decisions (hit/miss/eviction accounting does not
  // depend on the line representation)…
  const ServiceStats full_stats = s_full.stats();
  const ServiceStats default_stats = s_default.stats();
  const ServiceStats delta_stats = s_delta.stats();
  for (const ServiceStats* s : {&default_stats, &delta_stats}) {
    EXPECT_EQ(s->cache_hits, full_stats.cache_hits);
    EXPECT_EQ(s->cache_misses, full_stats.cache_misses);
    EXPECT_EQ(s->cache_evictions, full_stats.cache_evictions);
    EXPECT_EQ(s->cache_lines, full_stats.cache_lines);
  }
  // …while compressed lines hold a fraction of the resident bytes.
  ASSERT_GT(full_stats.cache_lines, 0u);
  EXPECT_GT(full_stats.cache_resident_bytes, 0u);
  EXPECT_LT(delta_stats.cache_resident_bytes,
            full_stats.cache_resident_bytes);
}

TEST(DeltaPath, ServiceStatsExposeQueryPathCounters) {
  const Graph g = erdos_renyi(40, 0.15, 5);
  ServiceConfig config;
  config.cache_capacity = 0;  // every request reaches an engine
  OracleService service(g, config);
  const std::vector<QueryRequest> requests = service_workload(g, 100, 77);
  std::uint64_t engine_served = 0;
  for (const QueryRequest& req : requests) {
    const QueryResponse resp = service.serve(req);
    if (resp.status == StatusCode::kOk ||
        resp.status == StatusCode::kDisconnected) {
      ++engine_served;
    }
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.fast_path_hits + stats.repair_bfs + stats.full_bfs,
            engine_served);
  EXPECT_GT(stats.fast_path_hits, 0u);
}

// --- the repaired region ----------------------------------------------------

// `region` must list distinct vertices and include every vertex whose hops
// differ from the baseline.
void expect_region_covers(const std::vector<std::uint32_t>& hops,
                          const std::vector<std::uint32_t>& base,
                          std::span<const Vertex> region) {
  std::vector<bool> listed(hops.size(), false);
  for (const Vertex v : region) {
    ASSERT_LT(v, hops.size());
    EXPECT_FALSE(listed[v]) << "vertex " << v << " listed twice";
    listed[v] = true;
  }
  for (Vertex v = 0; v < hops.size(); ++v) {
    if (hops[v] != base[v]) {
      EXPECT_TRUE(listed[v]) << "changed vertex " << v << " not listed";
    }
  }
}

std::vector<Vertex> sorted(std::span<const Vertex> region) {
  std::vector<Vertex> out(region.begin(), region.end());
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<Vertex> range(Vertex first, Vertex last) {
  std::vector<Vertex> out;
  for (Vertex v = first; v <= last; ++v) out.push_back(v);
  return out;
}

// Randomized edge, vertex and mixed fault sets against a delta-off twin: the
// answer is exact, and whenever a region is reported it covers every vertex
// the faults changed. Each engine sees all three tiers.
void expect_regions_cover(const Graph& g, std::span<const EdgeId> h_edges,
                          Vertex source, double fraction, std::uint64_t seed) {
  FaultQueryEngine engine(g, h_edges);
  engine.set_delta_options(
      {.enabled = true, .max_affected_fraction = fraction});
  FaultQueryEngine truth(g, h_edges);
  truth.set_delta_options(delta_off());
  const std::vector<std::uint32_t>* base = engine.baseline_hops(source);
  ASSERT_NE(base, nullptr);
  Bfs bfs(g);
  const BfsResult g_tree = bfs.run(source);
  Rng rng(seed);
  FaultQueryEngine::ScratchLease lease = engine.acquire_scratch();
  int fast = 0;
  int repaired = 0;
  int full = 0;
  for (int r = 0; r < 80; ++r) {
    SCOPED_TRACE("round " + std::to_string(r));
    const FaultDraw d = draw_faults(rng, g, g_tree, 2, 1);
    const std::vector<std::uint32_t>& hops =
        engine.all_distances(lease, source, d.spec());
    ASSERT_EQ(hops, truth.all_distances(source, d.spec()));
    const std::optional<std::span<const Vertex>> region =
        FaultQueryEngine::repaired_region(lease);
    if (!region.has_value()) {
      ++full;
      continue;
    }
    ++(region->empty() ? fast : repaired);
    expect_region_covers(hops, *base, *region);
  }
  EXPECT_GT(fast, 0);
  EXPECT_GT(repaired, 0);
  EXPECT_GT(full, 0);
}

TEST(DeltaPath, RepairedRegionCoversEveryChangedVertex) {
  const Graph er = erdos_renyi(64, 0.1, 5);
  BuildRequest req;
  req.graph = &er;
  req.sources = {0};
  req.fault_budget = 2;
  const BuildResult built =
      BuilderRegistry::instance().build("cons2ftbfs", req);
  // The fraction 0.05 (three vertices) makes the threshold fallback common.
  expect_regions_cover(er, built.structure.edges, 0, 0.05, 11);

  const Graph chords = path_with_chords(96, 10, 5);
  std::vector<EdgeId> all(chords.num_edges());
  for (EdgeId e = 0; e < chords.num_edges(); ++e) all[e] = e;
  expect_regions_cover(chords, all, 0, 0.25, 12);

  const Graph grid = grid_graph(8, 8);
  all.resize(grid.num_edges());
  for (EdgeId e = 0; e < grid.num_edges(); ++e) all[e] = e;
  expect_regions_cover(grid, all, 0, 0.1, 13);
}

TEST(DeltaPath, RepairedRegionPerTier) {
  const Graph g = path_graph(20);
  FaultQueryEngine engine(g);
  engine.set_delta_options({.enabled = true, .max_affected_fraction = 1.0});
  const std::vector<std::uint32_t>& base = *engine.baseline_hops(0);
  FaultQueryEngine::ScratchLease lease = engine.acquire_scratch();
  const auto region = [&] { return FaultQueryEngine::repaired_region(lease); };

  // Nested cut points: subtree(10) lies inside subtree(5), listed once; the
  // whole tail disconnects, so every listed vertex changed.
  const EdgeId nested[2] = {g.find_edge(4, 5), g.find_edge(9, 10)};
  const std::vector<std::uint32_t>& cut =
      engine.all_distances(lease, 0, edge_faults(nested));
  ASSERT_TRUE(region().has_value());
  EXPECT_EQ(region()->size(), 15u);
  EXPECT_EQ(sorted(*region()), range(5, 19));
  for (Vertex v = 5; v < 20; ++v) EXPECT_EQ(cut[v], kInfHops);
  expect_region_covers(cut, base, *region());

  // A vertex fault cuts below itself.
  const Vertex seven[1] = {7};
  (void)engine.all_distances(lease, 0, vertex_faults(seven));
  ASSERT_TRUE(region().has_value());
  EXPECT_EQ(sorted(*region()), range(7, 19));

  // Mixed: an edge cut nested under a vertex fault.
  const EdgeId below[1] = {g.find_edge(11, 12)};
  (void)engine.all_distances(lease, 0, FaultSpec{below, seven});
  ASSERT_TRUE(region().has_value());
  EXPECT_EQ(sorted(*region()), range(7, 19));

  // A distance whose target the damage misses is answered from the
  // baseline: nothing changed, the region is empty.
  const std::uint32_t d = engine.distance(lease, 0, 3, edge_faults(nested));
  EXPECT_EQ(d, 3u);
  ASSERT_TRUE(region().has_value());
  EXPECT_TRUE(region()->empty());
  // …and one inside the damage runs the repair.
  EXPECT_EQ(engine.distance(lease, 0, 12, edge_faults(nested)), kInfHops);
  ASSERT_TRUE(region().has_value());
  EXPECT_EQ(sorted(*region()), range(5, 19));

  // The faulted source takes the full BFS: no region.
  const Vertex source[1] = {0};
  (void)engine.all_distances(lease, 0, vertex_faults(source));
  EXPECT_FALSE(region().has_value());

  // A parent-exposing query reports none either, whichever tier answers.
  (void)engine.query(lease, 0, edge_faults(nested));
  EXPECT_FALSE(region().has_value());
  (void)engine.distance(lease, 0, 3, edge_faults(nested));
  (void)engine.shortest_path(lease, 0, 3, edge_faults(nested));
  EXPECT_FALSE(region().has_value());
  (void)engine.shortest_path(lease, 0, 12, edge_faults(nested));
  EXPECT_FALSE(region().has_value());

  // The fast path: a cycle's one non-tree edge changes nothing.
  const Graph c = cycle_graph(32);
  FaultQueryEngine cycle(c);
  Bfs bfs(c);
  const BfsResult tree = bfs.run(0);
  std::vector<bool> is_tree(c.num_edges(), false);
  for (Vertex v = 0; v < c.num_vertices(); ++v) {
    if (tree.parent_edge[v] != kInvalidEdge) is_tree[tree.parent_edge[v]] = true;
  }
  EdgeId non_tree = kInvalidEdge;
  for (EdgeId e = 0; e < c.num_edges(); ++e) {
    if (!is_tree[e]) non_tree = e;
  }
  ASSERT_NE(non_tree, kInvalidEdge);
  FaultQueryEngine::ScratchLease cycle_lease = cycle.acquire_scratch();
  const EdgeId nt[1] = {non_tree};
  (void)cycle.all_distances(cycle_lease, 0, edge_faults(nt));
  ASSERT_TRUE(FaultQueryEngine::repaired_region(cycle_lease).has_value());
  EXPECT_TRUE(FaultQueryEngine::repaired_region(cycle_lease)->empty());
  // The leaf opposite the source is re-reached at the same depth: listed,
  // though unchanged — the region is a superset.
  const EdgeId leaf[1] = {tree.parent_edge[16]};
  const std::vector<std::uint32_t>& around =
      cycle.all_distances(cycle_lease, 0, edge_faults(leaf));
  ASSERT_TRUE(FaultQueryEngine::repaired_region(cycle_lease).has_value());
  EXPECT_EQ(sorted(*FaultQueryEngine::repaired_region(cycle_lease)),
            std::vector<Vertex>{16});
  EXPECT_EQ(around[16], 16u);

  // The threshold fallback and a disabled delta path run the full BFS.
  FaultQueryEngine never(g);
  never.set_delta_options({.enabled = true, .max_affected_fraction = 0.0});
  FaultQueryEngine::ScratchLease never_lease = never.acquire_scratch();
  (void)never.all_distances(never_lease, 0, edge_faults(nested));
  EXPECT_FALSE(FaultQueryEngine::repaired_region(never_lease).has_value());
  FaultQueryEngine off(g);
  off.set_delta_options(delta_off());
  FaultQueryEngine::ScratchLease off_lease = off.acquire_scratch();
  (void)off.all_distances(off_lease, 0, edge_faults(nt));
  EXPECT_FALSE(FaultQueryEngine::repaired_region(off_lease).has_value());
}

// --- cache lines against a brute-force diff ---------------------------------

// A service with the identity entry (0) and a cons2 entry (1) pinned to
// source 0, plus a delta-off twin engine per entry for the ground truth.
struct LineFixture {
  const Graph& g;
  OracleService service;
  std::vector<FaultQueryEngine> truth;
  std::vector<FaultDraw> scenarios;

  LineFixture(const Graph& graph, double fraction)
      : g(graph), service(graph, config(fraction)) {
    truth.emplace_back(g);
    BuildResult built;
    EXPECT_EQ(service.build_structure("cons2", 0, 2, FaultModel::kEdge,
                                      "cons2ftbfs", &built),
              1u);
    truth.emplace_back(g, built.structure.edges);
    for (FaultQueryEngine& t : truth) t.set_delta_options(delta_off());
  }

  static ServiceConfig config(double fraction) {
    ServiceConfig c;
    c.lazy_build = false;
    c.cache_delta_max_fraction = fraction;
    return c;
  }

  // `count` scenarios of up to two edges and one vertex, plus the faulted
  // source (a full-BFS answer that differs everywhere).
  void draw_scenarios(std::size_t count, std::uint64_t seed) {
    Bfs bfs(g);
    const BfsResult tree = bfs.run(0);
    Rng rng(seed);
    for (std::size_t i = 0; i < count; ++i) {
      scenarios.push_back(draw_faults(rng, g, tree, 2, 1));
    }
    scenarios.push_back(FaultDraw{{}, {0}});
  }

  // truth_hops[entry][scenario]: the exact distance vectors.
  [[nodiscard]] std::vector<std::vector<std::vector<std::uint32_t>>>
  truth_hops() {
    std::vector<std::vector<std::vector<std::uint32_t>>> out(truth.size());
    for (std::size_t e = 0; e < truth.size(); ++e) {
      for (const FaultDraw& d : scenarios) {
        out[e].push_back(truth[e].all_distances(0, d.spec()));
      }
    }
    return out;
  }

  // A request for scenario `i` pinned to `entry`, of a kind drawn from
  // `pick`: all-distances reads lines through materialize(), multi-target
  // distance/reachability through at(), and a single-target distance reads
  // a resident line without reserving one.
  [[nodiscard]] QueryRequest request(std::size_t i, std::size_t entry,
                                     std::uint64_t pick, std::int64_t id) const {
    QueryRequest req;
    req.id = id;
    req.source = 0;
    req.structure = entry == 0 ? "identity" : "cons2";
    req.consistency = Consistency::kBestEffort;
    req.fault_edges = scenarios[i].edges;
    req.fault_vertices = scenarios[i].vertices;
    const Vertex n = g.num_vertices();
    switch (pick % 4) {
      case 0:
        req.kind = QueryKind::kAllDistances;
        break;
      case 1:
        req.kind = QueryKind::kDistance;
        req.targets = {1, static_cast<Vertex>(n / 3),
                       static_cast<Vertex>(n / 2), n - 1};
        break;
      case 2:
        req.kind = QueryKind::kReachability;
        req.targets = {static_cast<Vertex>(pick % n), n - 2};
        break;
      default:
        req.kind = QueryKind::kDistance;
        req.targets = {static_cast<Vertex>(pick % n)};
        break;
    }
    return req;
  }

  // Every ready line: its representation and payload must equal what a
  // brute-force O(n) comparison of the exact distances with the baseline
  // gives — strictly increasing vertices, exactly the changed ones, delta
  // iff that diff fits the threshold. Returns how many lines were delta.
  std::size_t expect_lines_match_brute_force(double fraction) {
    const SnapshotImage image = PersistAccess::export_service(service, true);
    EXPECT_FALSE(image.cache_lines.empty());
    const std::size_t limit = static_cast<std::size_t>(
        fraction * static_cast<double>(g.num_vertices()));
    std::size_t delta_lines = 0;
    for (const CacheLineImage& line : image.cache_lines) {
      const std::vector<std::uint32_t>& w = line.key_words;
      EXPECT_GE(w.size(), 3u);
      if (w.size() < 3) continue;
      const std::size_t entry = w[0];
      const Vertex source = w[1];
      const std::vector<EdgeId> edges(w.begin() + 3, w.begin() + 3 + w[2]);
      const std::vector<Vertex> vertices(w.begin() + 3 + w[2], w.end());
      SCOPED_TRACE("entry " + std::to_string(entry) + ", " +
                   std::to_string(edges.size()) + " edges, " +
                   std::to_string(vertices.size()) + " vertices");
      EXPECT_LT(entry, truth.size());
      if (entry >= truth.size()) continue;
      const std::vector<std::uint32_t> hops =
          truth[entry].all_distances(source, FaultSpec{edges, vertices});
      const std::vector<std::uint32_t>* base =
          fraction > 0.0 ? service.engine(entry).baseline_hops(source)
                         : nullptr;
      std::vector<std::uint64_t> brute;
      if (base != nullptr) {
        for (Vertex v = 0; v < hops.size(); ++v) {
          if (hops[v] != (*base)[v]) {
            brute.push_back((static_cast<std::uint64_t>(v) << 32) | hops[v]);
          }
        }
      }
      const bool want_delta = base != nullptr && brute.size() <= limit;
      EXPECT_EQ(line.delta, want_delta);
      if (!line.delta) {
        EXPECT_EQ(line.hops, hops);
        continue;
      }
      ++delta_lines;
      for (std::size_t i = 1; i < line.diff.size(); ++i) {
        EXPECT_LT(line.diff[i - 1] >> 32, line.diff[i] >> 32)
            << "diff not strictly increasing at " << i;
      }
      EXPECT_EQ(line.diff, brute);
    }
    return delta_lines;
  }
};

void expect_response_matches(const QueryRequest& req, const QueryResponse& resp,
                             const std::vector<std::uint32_t>& hops) {
  ASSERT_TRUE(resp.status == StatusCode::kOk ||
              resp.status == StatusCode::kDisconnected)
      << "request " << req.id << ": " << resp.error;
  if (req.kind == QueryKind::kAllDistances) {
    EXPECT_EQ(resp.distances, hops) << "request " << req.id;
    return;
  }
  ASSERT_EQ(resp.distances.size(), req.targets.size());
  for (std::size_t j = 0; j < req.targets.size(); ++j) {
    EXPECT_EQ(resp.distances[j], hops[req.targets[j]])
        << "request " << req.id << " target " << req.targets[j];
  }
}

// Lines filled from the repaired region, read back through at() and
// materialize(), over a path-like graph (repairs and threshold fallbacks
// both common) and a random one, at compression off, the default and always.
TEST(DeltaPath, CacheLinesMatchBruteForceDiff) {
  const Graph chords = path_with_chords(120, 12, 9);
  const Graph er = erdos_renyi(80, 0.08, 4);
  for (const Graph* g : {&chords, &er}) {
    for (const double fraction : {0.0, 0.25, 1e9}) {
      SCOPED_TRACE("n " + std::to_string(g->num_vertices()) + ", fraction " +
                   std::to_string(fraction));
      LineFixture f(*g, fraction);
      f.draw_scenarios(30, 71);
      const auto hops = f.truth_hops();
      Rng rng(5);
      for (std::int64_t id = 0; id < 400; ++id) {
        const std::size_t i = rng.next_below(f.scenarios.size());
        const std::size_t entry = rng.next_below(2);
        const QueryRequest req = f.request(i, entry, rng.next_u64(), id);
        expect_response_matches(req, f.service.serve(req), hops[entry][i]);
      }
      const ServiceStats stats = f.service.stats();
      EXPECT_GT(stats.cache_hits, 0u);
      EXPECT_GT(stats.fast_path_hits, 0u);
      EXPECT_GT(stats.repair_bfs, 0u);
      EXPECT_GT(stats.full_bfs, 0u);
      const std::size_t delta_lines =
          f.expect_lines_match_brute_force(fraction);
      if (fraction == 0.0) {
        EXPECT_EQ(delta_lines, 0u);
      } else {
        EXPECT_GT(delta_lines, 0u);
      }
    }
  }
}

// Four workers fill and hit shared scenarios (every worker serves them) and
// distinct ones (one worker each); the changed set lives in each worker's
// leased scratch, so TSan watches the fills race.
TEST(DeltaPath, ThreadedFillsMatchBruteForceDiff) {
  const Graph g = path_with_chords(160, 16, 3);
  constexpr unsigned kWorkers = 4;
  constexpr std::size_t kShared = 12;
  constexpr std::size_t kDistinct = 8;
  LineFixture f(g, 0.25);
  f.draw_scenarios(kShared + kWorkers * kDistinct, 19);
  const auto hops = f.truth_hops();
  std::vector<std::thread> crew;
  for (unsigned w = 0; w < kWorkers; ++w) {
    crew.emplace_back([&, w] {
      Rng rng(100 + w);
      for (std::int64_t id = 0; id < 300; ++id) {
        // Half the stream on the shared scenarios (the faulted source is
        // the last one), half on this worker's own slice.
        const std::size_t i =
            rng.next_below(2) == 0
                ? (rng.next_below(kShared + 1) == kShared
                       ? f.scenarios.size() - 1
                       : rng.next_below(kShared))
                : kShared + w * kDistinct + rng.next_below(kDistinct);
        const std::size_t entry = rng.next_below(2);
        const QueryRequest req = f.request(i, entry, rng.next_u64(), id);
        expect_response_matches(req, f.service.serve(req), hops[entry][i]);
      }
    });
  }
  for (std::thread& t : crew) t.join();
  EXPECT_GT(f.service.stats().repair_bfs, 0u);
  EXPECT_GT(f.expect_lines_match_brute_force(0.25), 0u);
}

}  // namespace
}  // namespace ftbfs
