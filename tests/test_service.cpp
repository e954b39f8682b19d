// Tests for the serving layer: every QueryResponse status code is reachable
// and maps to the right situation (never an abort), cached answers are
// byte-identical to uncached ones, canonicalization sorts and dedupes fault
// ids, routing picks the cheapest capable backend, and a pinned
// structure entry answers exactly what an engine over that structure does.
#include <gtest/gtest.h>

#include <algorithm>

#include "engine/registry.h"
#include "graph/generators.h"
#include "graph/mask.h"
#include "service/oracle_service.h"
#include "service/protocol.h"
#include "sim/failure_sim.h"
#include "spath/bfs.h"
#include "util/failpoint.h"
#include "util/rng.h"

namespace ftbfs {
namespace {

QueryRequest distance_request(Vertex source, std::vector<Vertex> targets,
                              std::vector<EdgeId> fault_edges = {}) {
  QueryRequest req;
  req.source = source;
  req.targets = std::move(targets);
  req.fault_edges = std::move(fault_edges);
  return req;
}

// --- FaultSpec canonicalization (satellite) --------------------------------

// Builds `algo` for source 0 of g under the given edge-fault budget.
BuildResult build_at_zero(const char* algo, const Graph& g, unsigned budget) {
  BuildRequest req;
  req.graph = &g;
  req.sources = {0};
  req.fault_budget = budget;
  return BuilderRegistry::instance().build(algo, req);
}

TEST(CanonicalFaults, SortsAndDedupes) {
  const std::vector<EdgeId> edges = {7, 2, 7, 2, 5};
  const std::vector<Vertex> vertices = {3, 3, 1};
  const CanonicalFaultSet canon =
      FaultSpec{edges, vertices}.canonicalize();
  EXPECT_EQ(std::vector<EdgeId>(canon.edges().begin(), canon.edges().end()),
            (std::vector<EdgeId>{2, 5, 7}));
  EXPECT_EQ(std::vector<Vertex>(canon.vertices().begin(),
                                canon.vertices().end()),
            (std::vector<Vertex>{1, 3}));
  EXPECT_EQ(canon.size(), 5u);  // distinct ids, not 8 raw ids
  EXPECT_EQ((FaultSpec{edges, vertices}.size()), 8u);
}

// --- status codes ----------------------------------------------------------

TEST(Service, OkCarriesExactDistances) {
  const Graph g = erdos_renyi(40, 0.15, 11);
  OracleService service(g);
  const std::vector<EdgeId> faults = {1, 6};
  QueryResponse resp = service.serve(distance_request(0, {5, 9, 17}, faults));
  EXPECT_EQ(resp.status, StatusCode::kOk);
  EXPECT_TRUE(resp.exact);
  GraphMask mask(g);
  for (const EdgeId e : faults) mask.block_edge(e);
  Bfs bfs(g);
  const BfsResult& truth = bfs.run(0, &mask);
  ASSERT_EQ(resp.distances.size(), 3u);
  EXPECT_EQ(resp.distances[0], truth.hops[5]);
  EXPECT_EQ(resp.distances[1], truth.hops[9]);
  EXPECT_EQ(resp.distances[2], truth.hops[17]);
}

TEST(Service, UnknownSourceForOutOfRangeIds) {
  const Graph g = cycle_graph(10);
  OracleService service(g);
  EXPECT_EQ(service.serve(distance_request(99, {1})).status,
            StatusCode::kUnknownSource);
  EXPECT_EQ(service.serve(distance_request(0, {99})).status,
            StatusCode::kUnknownSource);
  EXPECT_EQ(service.serve(distance_request(0, {1}, {999})).status,
            StatusCode::kUnknownSource);
  QueryRequest vertex_fault = distance_request(0, {1});
  vertex_fault.fault_vertices = {99};
  EXPECT_EQ(service.serve(vertex_fault).status, StatusCode::kUnknownSource);
  QueryRequest pinned = distance_request(0, {1});
  pinned.structure = "no-such-structure";
  EXPECT_EQ(service.serve(pinned).status, StatusCode::kUnknownSource);
}

TEST(Service, UnknownSourceWhenLazyBuildDisabled) {
  const Graph g = cycle_graph(10);
  ServiceConfig config;
  config.lazy_build = false;
  OracleService service(g, config);
  const QueryResponse resp = service.serve(distance_request(3, {1}));
  EXPECT_EQ(resp.status, StatusCode::kUnknownSource);
  EXPECT_FALSE(resp.error.empty());
}

TEST(Service, BudgetExceededBeyondLazyLimitAndOnPinnedEntry) {
  const Graph g = erdos_renyi(30, 0.25, 7);
  ServiceConfig config;
  config.max_lazy_budget = 2;
  OracleService service(g, config);
  // Four distinct faults exceed what the service will lazily build.
  const QueryResponse resp =
      service.serve(distance_request(0, {5}, {0, 1, 2, 3}));
  EXPECT_EQ(resp.status, StatusCode::kBudgetExceeded);

  // Pinned: a budget-1 entry refuses a 2-fault exact request.
  const BuildResult single = build_at_zero("single_ftbfs", g, 1);
  service.add_structure("single", 0, 1, FaultModel::kEdge,
                        single.structure.edges);
  QueryRequest pinned = distance_request(0, {5}, {0, 1});
  pinned.structure = "single";
  EXPECT_EQ(service.serve(pinned).status, StatusCode::kBudgetExceeded);
}

TEST(Service, UnsupportedFaultModelForMixedAndMismatchedFaults) {
  const Graph g = erdos_renyi(30, 0.25, 9);
  OracleService service(g);
  // Mixed edge+vertex fault sets are covered by no single structure.
  QueryRequest mixed = distance_request(0, {5}, {1});
  mixed.fault_vertices = {7};
  EXPECT_EQ(service.serve(mixed).status, StatusCode::kUnsupportedFaultModel);

  // Pinned: an edge-model structure refuses vertex faults.
  const BuildResult dual = build_at_zero("cons2ftbfs", g, 2);
  service.add_structure("dual", 0, 2, FaultModel::kEdge,
                        dual.structure.edges);
  QueryRequest pinned = distance_request(0, {5});
  pinned.fault_vertices = {7};
  pinned.structure = "dual";
  EXPECT_EQ(service.serve(pinned).status, StatusCode::kUnsupportedFaultModel);
}

TEST(Service, ApproximateStructuresRefuseExactRequests) {
  const Graph g = erdos_renyi(30, 0.25, 33);
  ServiceConfig config;
  config.lazy_build = false;
  OracleService service(g, config);
  const BuildResult swap = build_at_zero("swap_ftbfs", g, 1);
  service.add_structure("swap", 0, 1, FaultModel::kEdge,
                        swap.structure.edges, /*exact=*/false);
  // Pinned exact request: within budget and model, but no exactness
  // guarantee — the refusal must say so, not claim the budget was exceeded.
  QueryRequest pinned = distance_request(0, {5}, {1});
  pinned.structure = "swap";
  QueryResponse resp = service.serve(pinned);
  EXPECT_EQ(resp.status, StatusCode::kUnsupportedFaultModel);
  EXPECT_NE(resp.error.find("approximate"), std::string::npos) << resp.error;
  // Unpinned routing never picks an approximate entry for exact requests.
  resp = service.serve(distance_request(0, {5}, {1}));
  EXPECT_EQ(resp.status, StatusCode::kUnsupportedFaultModel);
  EXPECT_NE(resp.error.find("approximate"), std::string::npos) << resp.error;
  // Best effort serves from the pinned approximate entry, flagged inexact.
  pinned.consistency = Consistency::kBestEffort;
  resp = service.serve(pinned);
  EXPECT_EQ(resp.status, StatusCode::kOk);
  EXPECT_FALSE(resp.exact);
  EXPECT_EQ(resp.served_by, "swap");
}

TEST(Service, DisconnectedWhenEveryTargetUnreachable) {
  const Graph g = path_graph(6);
  OracleService service(g);
  const EdgeId cut = g.find_edge(2, 3);
  QueryResponse resp = service.serve(distance_request(0, {4, 5}, {cut}));
  EXPECT_EQ(resp.status, StatusCode::kDisconnected);
  ASSERT_EQ(resp.distances.size(), 2u);
  EXPECT_EQ(resp.distances[0], kInfHops);
  EXPECT_EQ(resp.distances[1], kInfHops);

  QueryRequest path_req = distance_request(0, {5}, {cut});
  path_req.kind = QueryKind::kPath;
  resp = service.serve(path_req);
  EXPECT_EQ(resp.status, StatusCode::kDisconnected);
  ASSERT_EQ(resp.paths.size(), 1u);
  EXPECT_TRUE(resp.paths[0].empty());

  // A partially reachable target list is kOk with kInfHops entries.
  resp = service.serve(distance_request(0, {1, 5}, {cut}));
  EXPECT_EQ(resp.status, StatusCode::kOk);
  EXPECT_EQ(resp.distances[0], 1u);
  EXPECT_EQ(resp.distances[1], kInfHops);
}

TEST(Service, BestEffortFallsBackToIdentity) {
  const Graph g = erdos_renyi(40, 0.2, 13);
  ServiceConfig config;
  config.max_lazy_budget = 2;
  OracleService service(g, config);
  QueryRequest req = distance_request(0, {7, 21}, {0, 1, 2, 3, 4});
  req.consistency = Consistency::kBestEffort;
  const QueryResponse resp = service.serve(req);
  EXPECT_EQ(resp.status, StatusCode::kOk);
  EXPECT_EQ(resp.served_by, "identity");
  EXPECT_TRUE(resp.exact);  // identity is ground truth
  GraphMask mask(g);
  for (const EdgeId e : req.fault_edges) mask.block_edge(e);
  Bfs bfs(g);
  const BfsResult& truth = bfs.run(0, &mask);
  EXPECT_EQ(resp.distances[0], truth.hops[7]);
  EXPECT_EQ(resp.distances[1], truth.hops[21]);
  EXPECT_EQ(service.stats().identity_served, 1u);
}

// --- scenario cache --------------------------------------------------------

TEST(Service, CachedAnswersAreByteIdenticalToUncached) {
  const Graph g = erdos_renyi(50, 0.12, 31);
  OracleService cached(g);
  ServiceConfig no_cache_config;
  no_cache_config.cache_capacity = 0;
  OracleService uncached(g, no_cache_config);

  QueryRequest req;
  req.source = 0;
  req.kind = QueryKind::kAllDistances;
  req.fault_edges = {9, 4};

  const QueryResponse cold = cached.serve(req);
  const QueryResponse hot = cached.serve(req);
  const QueryResponse raw = uncached.serve(req);
  EXPECT_FALSE(cold.cache_hit);
  EXPECT_TRUE(hot.cache_hit);
  EXPECT_EQ(cold.distances, hot.distances);
  EXPECT_EQ(cold.distances, raw.distances);
  EXPECT_EQ(cached.stats().cache_hits, 1u);

  // Canonicalization: permuted, duplicated ids are the same scenario.
  req.fault_edges = {4, 9, 4};
  const QueryResponse permuted = cached.serve(req);
  EXPECT_TRUE(permuted.cache_hit);
  EXPECT_EQ(permuted.distances, cold.distances);
}

TEST(Service, CacheProjectsFaultsOntoStructure) {
  const Graph g = erdos_renyi(40, 0.2, 17);
  OracleService service(g);
  const BuildResult tree = build_at_zero("kfail_ftbfs", g, 0);
  // Find an edge outside the tree structure: faulting it cannot change
  // answers served from the tree, so both scenarios share one cache line.
  std::vector<bool> in_h(g.num_edges(), false);
  for (const EdgeId e : tree.structure.edges) in_h[e] = true;
  EdgeId outside = kInvalidEdge;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (!in_h[e]) {
      outside = e;
      break;
    }
  }
  ASSERT_NE(outside, kInvalidEdge);
  service.add_structure("tree", 0, 0, FaultModel::kEdge,
                        tree.structure.edges);
  QueryRequest req;
  req.source = 0;
  req.kind = QueryKind::kAllDistances;
  req.structure = "tree";
  req.consistency = Consistency::kBestEffort;
  const QueryResponse cold = service.serve(req);
  req.fault_edges = {outside};
  const QueryResponse projected = service.serve(req);
  EXPECT_TRUE(projected.cache_hit);
  EXPECT_EQ(projected.distances, cold.distances);
}

TEST(Service, LruEvictsOldScenarios) {
  // One line per shard: churn through more scenarios than the cache holds.
  // The exact CLOCK victim order is pinned at one shard by the ShardedCache
  // tests; here the service must stay within capacity, account every miss
  // as a resident line or an eviction, and answer re-served scenarios the
  // same whether they come from the cache or a recomputation.
  const Graph g = cycle_graph(24);
  ServiceConfig config;
  config.cache_capacity = kScenarioCacheShards;
  OracleService service(g, config);
  QueryRequest req;
  req.source = 0;
  req.kind = QueryKind::kAllDistances;
  std::vector<std::vector<EdgeId>> scenarios;
  for (EdgeId e = 0; e < 24; ++e) scenarios.push_back({e});
  for (EdgeId e = 0; e < 24; e += 3) scenarios.push_back({e, (e + 7) % 24});
  std::vector<std::vector<std::uint32_t>> first;
  for (const auto& faults : scenarios) {
    req.fault_edges = faults;
    const QueryResponse resp = service.serve(req);
    ASSERT_EQ(resp.status, StatusCode::kOk);
    first.push_back(resp.distances);
  }
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    req.fault_edges = scenarios[i];
    EXPECT_EQ(service.serve(req).distances, first[i]) << "scenario " << i;
  }
  const ServiceStats stats = service.stats();
  EXPECT_GE(stats.cache_misses, scenarios.size());
  EXPECT_LE(stats.cache_lines, config.cache_capacity);
  EXPECT_EQ(stats.cache_evictions, stats.cache_misses - stats.cache_lines);
}

// --- routing ---------------------------------------------------------------

TEST(Service, RoutesToCheapestCapableStructure) {
  const Graph g = erdos_renyi(40, 0.25, 19);
  ServiceConfig config;
  config.lazy_build = false;
  OracleService service(g, config);
  const BuildResult dual = build_at_zero("cons2ftbfs", g, 2);
  const BuildResult tree = build_at_zero("kfail_ftbfs", g, 0);
  service.add_structure("dual", 0, 2, FaultModel::kEdge,
                        dual.structure.edges);
  service.add_structure("tree", 0, 0, FaultModel::kEdge,
                        tree.structure.edges);
  // Fault-free: both entries serve exactly; the (smaller) tree wins.
  EXPECT_EQ(service.serve(distance_request(0, {5})).served_by, "tree");
  // Two faults: only the dual structure's budget covers the scenario.
  EXPECT_EQ(service.serve(distance_request(0, {5}, {1, 2})).served_by,
            "dual");
}

TEST(Service, LazyBuildPopulatesPoolOnce) {
  const Graph g = erdos_renyi(30, 0.2, 21);
  OracleService service(g);
  EXPECT_EQ(service.pool_size(), 1u);  // identity only
  (void)service.serve(distance_request(0, {5}, {1, 2}));
  EXPECT_EQ(service.pool_size(), 2u);
  EXPECT_EQ(service.stats().structures_built, 1u);
  (void)service.serve(distance_request(0, {9}, {3}));
  EXPECT_EQ(service.pool_size(), 2u);  // same shape reuses the entry
  EXPECT_EQ(service.stats().structures_built, 1u);
}

TEST(Service, FailedLazyBuildRefusesThenRetries) {
  struct DisarmOnExit {
    ~DisarmOnExit() { fp::disarm_all(); }
  } disarm;
  ASSERT_TRUE(fp::arm("service.build_alloc=err(ENOMEM,count=1)"));
  const Graph g = erdos_renyi(30, 0.2, 21);
  OracleService service(g);
  const QueryRequest req = distance_request(0, {5}, {1, 2});

  const QueryResponse failed = service.serve(req);
  EXPECT_EQ(failed.status, StatusCode::kOverloaded);
  EXPECT_EQ(failed.error.rfind("lazy structure build failed (", 0), 0u)
      << failed.error;
  EXPECT_EQ(service.pool_size(), 1u);  // nothing published
  EXPECT_EQ(service.stats().structures_built, 0u);

  // The failure dropped the build key: the same request builds once now.
  const QueryResponse retried = service.serve(req);
  EXPECT_EQ(retried.status, StatusCode::kOk);
  EXPECT_EQ(retried.served_by, pool_entry_name("cons2ftbfs", 0, 2));
  EXPECT_EQ(service.pool_size(), 2u);
  EXPECT_EQ(service.stats().structures_built, 1u);
}

TEST(Service, ReachabilityKind) {
  const Graph g = path_graph(5);
  OracleService service(g);
  QueryRequest req = distance_request(0, {1, 4});
  req.kind = QueryKind::kReachability;
  req.fault_edges = {g.find_edge(3, 4)};
  const QueryResponse resp = service.serve(req);
  EXPECT_EQ(resp.status, StatusCode::kOk);
  ASSERT_EQ(resp.reachable.size(), 2u);
  EXPECT_TRUE(resp.reachable[0]);
  EXPECT_FALSE(resp.reachable[1]);
}

// --- a pinned structure entry vs. an engine over the same structure -------

TEST(PinnedEntry, MatchesDirectEngineAnswers) {
  const Graph g = erdos_renyi(40, 0.15, 27);
  BuildRequest req;
  req.graph = &g;
  req.sources = {0};
  req.fault_budget = 2;
  const BuildResult built = BuilderRegistry::instance().build("cons2ftbfs", req);
  ServiceConfig config;
  config.lazy_build = false;
  OracleService service(g, config);
  service.add_structure("h", 0, 2, FaultModel::kEdge, built.structure.edges);
  FaultQueryEngine direct(g, built.structure);
  Rng rng(3);
  for (int probe = 0; probe < 100; ++probe) {
    std::vector<EdgeId> faults;
    for (std::size_t i = rng.next_below(3); i > 0; --i) {
      faults.push_back(static_cast<EdgeId>(rng.next_below(g.num_edges())));
    }
    const Vertex v = static_cast<Vertex>(rng.next_below(g.num_vertices()));
    QueryRequest pinned = distance_request(0, {v}, faults);
    pinned.structure = "h";
    const QueryResponse dist = service.serve(pinned);
    EXPECT_EQ(dist.served_by, "h");
    EXPECT_TRUE(dist.exact);
    EXPECT_EQ(dist.distances.at(0),
              direct.distance(0, v, edge_faults(faults)));
    pinned.kind = QueryKind::kPath;
    const QueryResponse path = service.serve(pinned);
    const auto via_engine = direct.shortest_path(0, v, edge_faults(faults));
    EXPECT_EQ(path.paths.at(0).empty(), !via_engine.has_value());
    if (via_engine.has_value()) {
      EXPECT_EQ(path.paths.at(0).size(), via_engine->size());
    }
    pinned.kind = QueryKind::kAllDistances;
    EXPECT_EQ(service.serve(pinned).distances,
              direct.all_distances(0, edge_faults(faults)));
  }
}

// --- failure simulator over the service ------------------------------------

TEST(SimOverService, RepeatedTickStatesHitCache) {
  const Graph g = erdos_renyi(30, 0.2, 29);
  SimConfig config;
  config.ticks = 120;
  config.failure_probability = 0.01;
  FailureSimulator sim(g, 0, config);
  std::vector<EdgeId> all(g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) all[e] = e;
  sim.add_overlay("full", all, 2);
  const auto metrics = sim.run();
  EXPECT_EQ(metrics[0].exact, metrics[0].routed);  // full overlay is exact
  // Calm stretches and recurring fault sets must be served from cache.
  EXPECT_GT(sim.service_stats().cache_hits, 0u);
}

// --- JSONL wire format -----------------------------------------------------

TEST(Protocol, ParsesRequestLine) {
  const Graph g = cycle_graph(6);
  const ParsedRequest parsed = parse_request_line(
      R"({"id":7,"source":0,"targets":[2,3],"kind":"path",)"
      R"("consistency":"best_effort","fault_edges":[[1,2]],)"
      R"("fault_vertices":[4],"structure":"identity"})",
      g);
  ASSERT_EQ(parsed.status, ParseStatus::kOk) << parsed.error;
  const QueryRequest& req = parsed.request;
  EXPECT_EQ(req.id, 7);
  EXPECT_EQ(req.source, 0u);
  EXPECT_EQ(req.targets, (std::vector<Vertex>{2, 3}));
  EXPECT_EQ(req.kind, QueryKind::kPath);
  EXPECT_EQ(req.consistency, Consistency::kBestEffort);
  ASSERT_EQ(req.fault_edges.size(), 1u);
  EXPECT_EQ(req.fault_edges[0], g.find_edge(1, 2));
  EXPECT_EQ(req.fault_vertices, (std::vector<Vertex>{4}));
  EXPECT_EQ(req.structure, "identity");
}

TEST(Protocol, RejectsMalformedLines) {
  const Graph g = cycle_graph(6);
  EXPECT_EQ(parse_request_line("not json", g).status, ParseStatus::kSyntax);
  EXPECT_EQ(parse_request_line(R"({"targets":[1]})", g).status,
            ParseStatus::kSyntax);  // missing source
  EXPECT_EQ(parse_request_line(R"({"source":0,"kind":"warp"})", g).status,
            ParseStatus::kSyntax);
  // An edge the graph does not have parses but fails resolution.
  const ParsedRequest missing =
      parse_request_line(R"({"id":3,"source":0,"fault_edges":[[0,3]]})", g);
  EXPECT_EQ(missing.status, ParseStatus::kResolve);
  EXPECT_EQ(missing.request.id, 3);
  // Key order must not matter: an "id" after the unresolvable edge is still
  // echoed so the client can correlate the refusal.
  const ParsedRequest late_id =
      parse_request_line(R"({"source":0,"fault_edges":[[0,3]],"id":42})", g);
  EXPECT_EQ(late_id.status, ParseStatus::kResolve);
  EXPECT_EQ(late_id.request.id, 42);
  // One hostile line must not take the serving loop down with it.
  const std::string bomb(100000, '[');
  EXPECT_EQ(parse_request_line(bomb, g).status, ParseStatus::kSyntax);
  // Ids beyond 32 bits must not wrap onto valid vertices: 2^32 aliasing
  // vertex 0 would be silently *answered*; it has to be refused instead.
  const ParsedRequest huge =
      parse_request_line(R"({"source":4294967296,"targets":[1]})", g);
  ASSERT_EQ(huge.status, ParseStatus::kOk);
  OracleService service(g);
  EXPECT_EQ(service.serve(huge.request).status, StatusCode::kUnknownSource);
}

TEST(Protocol, UnknownKeysBecomeWarningsNotErrors) {
  const Graph g = cycle_graph(6);
  // A typo'd (or future-revision) key must neither reject the line nor be
  // silently ignored: the request is served and the key is echoed back.
  const ParsedRequest parsed =
      parse_request_line(R"({"source":0,"tragets":[1],"teleport":true})", g);
  ASSERT_EQ(parsed.status, ParseStatus::kOk) << parsed.error;
  ASSERT_EQ(parsed.warnings.size(), 2u);
  EXPECT_EQ(parsed.warnings[0], "unknown request key \"tragets\"");
  EXPECT_EQ(parsed.warnings[1], "unknown request key \"teleport\"");

  QueryResponse resp;
  resp.id = 5;
  resp.status = StatusCode::kOk;
  resp.exact = true;
  resp.warnings = parsed.warnings;
  EXPECT_EQ(format_response_line(resp),
            R"({"id":5,"status":"ok","exact":true,"cache_hit":false,)"
            R"("warnings":["unknown request key \"tragets\"",)"
            R"("unknown request key \"teleport\""]})");
}

TEST(Protocol, TenantFieldRoutesThroughResolver) {
  const Graph cyc = cycle_graph(6);
  const Graph path = path_graph(4);
  const auto resolve = [&](const std::string& tenant) -> const Graph* {
    if (tenant.empty() || tenant == "rings") return &cyc;
    if (tenant == "lines") return &path;
    return nullptr;
  };
  // Fault-edge endpoints resolve against the graph the tenant names: (0,5)
  // is an edge of the 6-cycle but not of the 4-path.
  const ParsedRequest on_cycle = parse_request_line(
      R"({"source":0,"targets":[3],"tenant":"rings","fault_edges":[[0,5]]})",
      resolve);
  ASSERT_EQ(on_cycle.status, ParseStatus::kOk) << on_cycle.error;
  EXPECT_EQ(on_cycle.tenant, "rings");
  EXPECT_EQ(on_cycle.request.fault_edges[0], cyc.find_edge(0, 5));
  const ParsedRequest on_path = parse_request_line(
      R"({"source":0,"targets":[3],"tenant":"lines","fault_edges":[[0,5]]})",
      resolve);
  EXPECT_EQ(on_path.status, ParseStatus::kResolve);
  EXPECT_EQ(on_path.resolve_status, StatusCode::kUnknownSource);
  // An unknown tenant is its own refusal — kUnknownTenant, id still echoed.
  const ParsedRequest nowhere = parse_request_line(
      R"({"id":9,"source":0,"tenant":"ghost"})", resolve);
  EXPECT_EQ(nowhere.status, ParseStatus::kResolve);
  EXPECT_EQ(nowhere.resolve_status, StatusCode::kUnknownTenant);
  EXPECT_EQ(nowhere.request.id, 9);
  // The single-graph overload treats any named tenant as unknown.
  EXPECT_EQ(parse_request_line(R"({"source":0,"tenant":"x"})", cyc).status,
            ParseStatus::kResolve);
  EXPECT_EQ(parse_request_line(R"({"source":0,"tenant":""})", cyc).status,
            ParseStatus::kOk);
}

TEST(Protocol, FormatsResponseLine) {
  QueryResponse resp;
  resp.id = 7;
  resp.status = StatusCode::kOk;
  resp.exact = true;
  resp.served_by = "tree";
  resp.cache_hit = true;
  resp.distances = {2, kInfHops};
  EXPECT_EQ(format_response_line(resp),
            R"({"id":7,"status":"ok","exact":true,"served_by":"tree",)"
            R"("cache_hit":true,"distances":[2,-1]})");
}

TEST(Protocol, ServiceRoundTrip) {
  const Graph g = cycle_graph(8);
  OracleService service(g);
  const ParsedRequest parsed = parse_request_line(
      R"({"id":1,"source":0,"targets":[4],"fault_edges":[[0,1]]})", g);
  ASSERT_EQ(parsed.status, ParseStatus::kOk) << parsed.error;
  const std::string line = format_response_line(service.serve(parsed.request));
  EXPECT_NE(line.find("\"status\":\"ok\""), std::string::npos) << line;
  EXPECT_NE(line.find("\"distances\":[4]"), std::string::npos) << line;
}

}  // namespace
}  // namespace ftbfs
