// Sensitivity queries through the typed serving API.
//
// A monitoring dashboard wants, for every (target, possibly-failed-link)
// pair, the exact distance the network would have — the classic distance-
// sensitivity workload ([5,2] in the paper's related work). One OracleService
// answers it from the paper's structure:
//   * the FT-BFS structure pool — the first request lazily builds the
//     dual-failure structure, and every single- and dual-fault scenario is
//     then served from it, with repeated scenarios hitting the scenario
//     cache;
//   * refusals as answers — an over-budget exact request comes back as
//     kBudgetExceeded, and the same request at best_effort consistency is
//     served from the identity engine instead of crashing.
// The example runs the what-if matrix through the service and checks all of
// it against the related work's O(1) table-per-edge oracle
// (SingleFaultOracle), and a sample against a masked BFS over the full graph.
#include <cstdio>
#include <vector>

#include "core/sensitivity_oracle.h"
#include "engine/query_engine.h"
#include "graph/generators.h"
#include "service/oracle_service.h"
#include "util/timer.h"

int main() {
  using namespace ftbfs;

  const Graph g = random_connected(/*n=*/300, /*m=*/900, /*seed=*/11);
  const Vertex noc = 0;  // network operations center
  std::printf("network: %s\n", describe(g).c_str());

  OracleService service(g);

  // The what-if matrix: every link against a sample of targets, as typed
  // single-fault distance requests — all served from the pool.
  std::vector<Vertex> targets;
  for (Vertex v = 1; v < g.num_vertices(); v += 29) targets.push_back(v);

  QueryRequest req;
  req.source = noc;
  req.targets = targets;
  req.kind = QueryKind::kDistance;

  const SingleFaultOracle table(g, noc);  // O(n·m) preprocessing, O(1) reads
  Timer what_if;
  std::uint64_t answers = 0, table_agree = 0;
  std::uint64_t worst_increase = 0;
  EdgeId worst_edge = kInvalidEdge;
  QueryRequest baseline = req;
  const QueryResponse base = service.serve(baseline);  // fault-free distances
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    req.fault_edges = {e};
    const QueryResponse resp = service.serve(req);
    for (std::size_t j = 0; j < targets.size(); ++j) {
      ++answers;
      if (resp.distances[j] == table.distance_avoiding(targets[j], e)) {
        ++table_agree;
      }
      if (resp.distances[j] != kInfHops && base.distances[j] != kInfHops &&
          resp.distances[j] - base.distances[j] > worst_increase) {
        worst_increase = resp.distances[j] - base.distances[j];
        worst_edge = e;
      }
    }
  }
  const double matrix_time = what_if.seconds();
  std::printf("what-if matrix: %llu answers in %.3fs (%.0f ns each, lazy "
              "build included), served by %s\n",
              static_cast<unsigned long long>(answers), matrix_time,
              1e9 * matrix_time / static_cast<double>(answers),
              base.served_by.c_str());
  std::printf("single-fault table oracle: %llu/%llu agree\n",
              static_cast<unsigned long long>(table_agree),
              static_cast<unsigned long long>(answers));

  // Spot-check the service's answers against an independent
  // implementation: a masked BFS over the full graph per scenario.
  FaultQueryEngine ground_truth(g);
  std::uint64_t agree = 0, checked = 0;
  for (EdgeId e = 0; e < g.num_edges(); e += 17) {
    req.fault_edges = {e};
    const QueryResponse resp = service.serve(req);
    const FaultSpec fault = edge_faults(req.fault_edges);
    for (std::size_t j = 0; j < targets.size(); ++j) {
      ++checked;
      if (resp.distances[j] == ground_truth.distance(noc, targets[j], fault)) {
        ++agree;
      }
    }
  }
  std::printf("spot-check vs masked-BFS ground truth: %llu/%llu agree\n\n",
              static_cast<unsigned long long>(agree),
              static_cast<unsigned long long>(checked));

  // Dual-failure scenarios leave the table oracle's range; the paper's
  // structure serves them too, caching repeated scenarios.
  Timer dual_timer;
  req.fault_edges = {3, 57};
  const QueryResponse dual = service.serve(req);
  const double dual_cold = dual_timer.seconds();
  Timer cached_timer;
  const QueryResponse again = service.serve(req);
  const double dual_hot = cached_timer.seconds();
  std::printf("dual-fault scenario served by %s (%.6fs); "
              "repeat: cache_hit=%s in %.6fs\n",
              dual.served_by.c_str(), dual_cold,
              again.cache_hit ? "yes" : "no", dual_hot);

  // Over-budget scenarios: a refusal is an answer, not a crash.
  req.fault_edges = {1, 2, 3, 4, 5};
  const QueryResponse refused = service.serve(req);
  std::printf("5-fault exact request -> status=%s (%s)\n",
              to_string(refused.status), refused.error.c_str());
  req.consistency = Consistency::kBestEffort;
  const QueryResponse effort = service.serve(req);
  std::printf("same request at best_effort -> status=%s, served_by=%s\n",
              to_string(effort.status), effort.served_by.c_str());

  if (worst_edge != kInvalidEdge) {
    const Edge& e = g.edge(worst_edge);
    std::printf("\nmost critical link: (%u,%u) — failing it adds %llu hops "
                "to some route\n",
                e.u, e.v, static_cast<unsigned long long>(worst_increase));
  }
  const ServiceStats& stats = service.stats();
  std::printf("service totals: %llu requests, %llu refused, cache hit rate "
              "%.0f%%, pool size %zu\n",
              static_cast<unsigned long long>(stats.requests),
              static_cast<unsigned long long>(stats.refused),
              100.0 * stats.cache_hit_rate(), service.pool_size());
  return agree == checked && table_agree == answers ? 0 : 1;
}
