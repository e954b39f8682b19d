// Experiment E8 (usage objective (2), §1): routing/query workload. Distances
// queried on the FT-BFS structure under injected faults must match the full
// graph exactly; the structure is a fraction of G's size and queries on it
// are proportionally cheaper. All query paths go through the engine layer:
// the sequential column runs one full-BFS query per fault set (the seed's
// query path), the batched column runs the same workload through
// FaultQueryEngine::batch — one early-exit BFS per fault set over a fixed
// target list — and the service column serves the same sweep through
// OracleService, whose scenario cache interns canonicalized fault sets. The
// workload is a *repeated-scenario sweep* (each fault set drawn from a small
// pool, ~87% duplicates) — the shape a monitoring dashboard or the failure
// simulator generates — so cached scenarios cost a lookup instead of a BFS.
//
// E8b is the concurrency sweep: 1/2/4/8 workers hammer one OracleService
// with the same repeated-scenario workload (sharded cache, lock-striped read
// path), a cold all-distinct workload (BFS-heavy — measures engine scratch-
// lease scaling), and a single-hot-key workload (every worker racing for one
// cache line — the worst-case shard contention). Flags: --small shrinks the
// matrix for CI smoke runs, --json emits a machine-readable summary instead
// of the tables (CI uploads it as BENCH_e8.json).
//
// E8c is the serve-mode scaling sweep at large n (sparse-ER, n=10^5): the
// same repeated-scenario hammer run in-process in the two admission modes —
// ordered (a ticket lock sequences admissions; batch K admissions drain per
// acquisition through RequestSequencer::advance_n) and relaxed (no ordering,
// responses correlate by id) — at 1/2/4/8 workers. Every row records n, mode,
// and batch so the CI gate can key on them; the acceptance bar is relaxed
// speedup > 1 at 4 workers on >= 4 hardware threads, with ordered close
// behind (admission is the only serialized section — BFS misses and payload
// copies run in execute(), outside the ticket lock).
#include <atomic>
#include <cstring>
#include <memory>
#include <numeric>
#include <thread>

#include "bench_util.h"
#include "engine/query_engine.h"
#include "engine/registry.h"
#include "service/oracle_service.h"
#include "service/work_queue.h"
#include "util/concurrency.h"
#include "util/rng.h"

namespace {

using namespace ftbfs;
using namespace ftbfs::bench;

struct SweepRow {
  unsigned threads = 1;
  double us_repeat = 0.0;
  double speedup_repeat = 1.0;
  double hit_rate = 0.0;
  double us_cold = 0.0;
  double speedup_cold = 1.0;
  double us_hot = 0.0;
  double speedup_hot = 1.0;
  std::uint64_t mismatches = 0;
};

// Serves requests[i] for i ≡ worker (mod threads) on each of `threads`
// workers against one shared service; returns wall seconds. Distances are
// checked against `truth` outside the timer via `mismatches`.
double hammer(OracleService& service, const std::vector<QueryRequest>& requests,
              const std::vector<std::uint32_t>& truth, std::size_t cols,
              unsigned threads, std::uint64_t& mismatches) {
  std::vector<std::uint32_t> got(truth.size(), 0);
  Timer timer;
  auto run = [&](unsigned worker) {
    for (std::size_t q = worker; q < requests.size(); q += threads) {
      const QueryResponse resp = service.serve(requests[q]);
      for (std::size_t j = 0; j < cols; ++j) {
        got[q * cols + j] = resp.distances[j];
      }
    }
  };
  if (threads == 1) {
    run(0);
  } else {
    std::vector<std::thread> crew;
    crew.reserve(threads);
    for (unsigned w = 0; w < threads; ++w) crew.emplace_back(run, w);
    for (std::thread& t : crew) t.join();
  }
  const double seconds = timer.seconds();
  for (std::size_t i = 0; i < truth.size(); ++i) {
    if (got[i] != truth[i]) ++mismatches;
  }
  return seconds;
}

// Ordered-mode hammer: workers pull dense runs of `batch` consecutive
// requests from a shared counter, sequence the admissions through a ticket
// lock (ticket = request index, one wait_for/advance_n per run), and execute
// out of order. Returns wall seconds; distances checked outside the timer.
double hammer_ordered(OracleService& service,
                      const std::vector<QueryRequest>& requests,
                      const std::vector<std::uint32_t>& truth, std::size_t cols,
                      unsigned threads, std::size_t batch,
                      std::uint64_t& mismatches) {
  std::vector<std::uint32_t> got(truth.size(), 0);
  RequestSequencer order;
  std::atomic<std::size_t> next{0};
  Timer timer;
  auto run = [&] {
    std::vector<OracleService::Admission> admitted;
    admitted.reserve(batch);
    for (;;) {
      // fetch_add hands out consecutive runs in increasing order, so the
      // ticket sequence stays dense and the wait below cannot deadlock.
      const std::size_t first = next.fetch_add(batch);
      if (first >= requests.size()) break;
      const std::size_t count = std::min(batch, requests.size() - first);
      admitted.clear();
      order.wait_for(first);
      for (std::size_t i = 0; i < count; ++i) {
        admitted.push_back(service.admit(requests[first + i]));
      }
      order.advance_n(count);
      for (std::size_t i = 0; i < count; ++i) {
        const QueryResponse resp = service.execute(std::move(admitted[i]));
        for (std::size_t j = 0; j < cols; ++j) {
          got[(first + i) * cols + j] = resp.distances[j];
        }
      }
    }
  };
  if (threads == 1) {
    run();
  } else {
    std::vector<std::thread> crew;
    crew.reserve(threads);
    for (unsigned w = 0; w < threads; ++w) crew.emplace_back(run);
    for (std::thread& t : crew) t.join();
  }
  const double seconds = timer.seconds();
  for (std::size_t i = 0; i < truth.size(); ++i) {
    if (got[i] != truth[i]) ++mismatches;
  }
  return seconds;
}

// Fresh single-entry service over the prebuilt structure, mirroring the E8a
// service column so the sweep measures concurrency, not configuration.
std::unique_ptr<OracleService> make_sweep_service(
    const Graph& g, const BuildResult& built, Vertex source,
    std::size_t cache_capacity,
    double cache_delta_fraction = ServiceConfig{}.cache_delta_max_fraction) {
  ServiceConfig config;
  config.lazy_build = false;
  config.cache_capacity = cache_capacity;
  config.cache_delta_max_fraction = cache_delta_fraction;
  auto service = std::make_unique<OracleService>(g, config);
  service->add_structure("cons2", source, 2, FaultModel::kEdge,
                         built.structure.edges);
  return service;  // the service is pinned to its address (mutexes inside)
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  bool small = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--small") == 0) {
      small = true;
    } else {
      std::fprintf(stderr, "usage: %s [--json] [--small]\n", argv[0]);
      return 2;
    }
  }

  Table table("E8: repeated-scenario query sweep under fault injection");
  table.set_header({"family", "n", "|H|/m", "queries", "dup%", "mm", "us/q G",
                    "us/q full", "us/q dlt", "us/q batch", "us/q svc", "hit%",
                    "dlt x", "batch x", "svc x", "sf x", "pq x", "B/ln shr"});
  std::string families_json;

  const std::vector<Vertex> sizes =
      small ? std::vector<Vertex>{256u} : std::vector<Vertex>{256u, 512u, 1024u};
  const std::size_t family_limit = small ? 1 : standard_families().size();

  for (std::size_t fi = 0; fi < family_limit; ++fi) {
    const Family& family = standard_families()[fi];
    for (const Vertex n : sizes) {
      const Graph g = family.make(n, 13);
      BuildRequest req;
      req.graph = &g;
      req.sources = {0};
      req.fault_budget = 2;
      const BuildResult built =
          BuilderRegistry::instance().build("cons2ftbfs", req);

      FaultQueryEngine g_engine(g);  // ground truth from the full graph
      // The pre-PR query path (every query a full masked BFS) and the
      // two-tier delta path, over the same structure: the ratio between
      // them is the delta speedup the CI perf gate tracks.
      FaultQueryEngine h_engine(g, built.structure);
      h_engine.set_delta_options({.enabled = false});
      FaultQueryEngine d_engine(g, built.structure);

      // Workload: `queries` fault sets of 0-2 edges drawn from a pool of
      // `unique` distinct scenarios (so ~7/8 of the sweep repeats an earlier
      // scenario), each asking distances to a fixed sample of targets.
      Rng rng(99);
      const int queries = 500;
      const int unique = queries / 8;
      const std::size_t targets_per_query = 32;
      std::vector<std::vector<EdgeId>> fault_pool(unique);
      for (auto& faults : fault_pool) {
        const int k = static_cast<int>(rng.next_below(3));
        for (int i = 0; i < k; ++i) {
          faults.push_back(static_cast<EdgeId>(rng.next_below(g.num_edges())));
        }
      }
      std::vector<FaultSpec> fault_sets(queries);
      std::vector<int> pick(queries);
      int duplicates = 0;
      std::vector<bool> seen(unique, false);
      for (int q = 0; q < queries; ++q) {
        pick[q] = static_cast<int>(rng.next_below(unique));
        if (seen[pick[q]]) ++duplicates;
        seen[pick[q]] = true;
        fault_sets[q] = edge_faults(fault_pool[pick[q]]);
      }
      std::vector<Vertex> targets;
      for (std::size_t i = 0; i < targets_per_query; ++i) {
        targets.push_back(static_cast<Vertex>(rng.next_below(n)));
      }

      // All timed regions do the same work — one query per fault set, matrix
      // of target distances written out — so the ratios compare query paths,
      // not bookkeeping. Mismatch counting happens outside the timers.
      std::vector<std::uint32_t> truth(queries * targets.size());
      Timer tg;
      for (int q = 0; q < queries; ++q) {
        const auto& hops = g_engine.all_distances(0, fault_sets[q]);
        for (std::size_t j = 0; j < targets.size(); ++j) {
          truth[q * targets.size() + j] = hops[targets[j]];
        }
      }
      const double g_time = tg.seconds();

      std::vector<std::uint32_t> seq(queries * targets.size());
      Timer th;
      for (int q = 0; q < queries; ++q) {
        const auto& hops = h_engine.all_distances(0, fault_sets[q]);
        for (std::size_t j = 0; j < targets.size(); ++j) {
          seq[q * targets.size() + j] = hops[targets[j]];
        }
      }
      const double h_time = th.seconds();

      // The delta path on the same repeated-scenario workload: misses of the
      // baseline tree answer in O(|targets|), tree damage repairs subtrees.
      std::vector<std::uint32_t> dlt(queries * targets.size());
      Timer td;
      for (int q = 0; q < queries; ++q) {
        const auto& hops = d_engine.all_distances(0, fault_sets[q]);
        for (std::size_t j = 0; j < targets.size(); ++j) {
          dlt[q * targets.size() + j] = hops[targets[j]];
        }
      }
      const double d_time = td.seconds();

      // Single-fault workload (the simulator / monitoring shape): one
      // uniformly random faulted edge per query, all-distances served.
      const int sf_queries = queries;
      std::vector<EdgeId> sf_edges(sf_queries);
      for (int q = 0; q < sf_queries; ++q) {
        sf_edges[q] = static_cast<EdgeId>(rng.next_below(g.num_edges()));
      }
      std::uint64_t sf_mismatches = 0;
      Timer tsf_full;
      for (int q = 0; q < sf_queries; ++q) {
        const std::span<const EdgeId> one(&sf_edges[q], 1);
        (void)h_engine.all_distances(0, edge_faults(one));
      }
      const double sf_full_time = tsf_full.seconds();
      Timer tsf_delta;
      for (int q = 0; q < sf_queries; ++q) {
        const std::span<const EdgeId> one(&sf_edges[q], 1);
        (void)d_engine.all_distances(0, edge_faults(one));
      }
      const double sf_delta_time = tsf_delta.seconds();

      // Parent-query workload: shortest_path under a tree-edge fault — the
      // shape that fell back to a full masked BFS before the parent-carrying
      // repair. Faults are parent edges of H's own baseline tree (mapped
      // back to host ids), so every query is genuinely damaged.
      const Graph& h_graph = d_engine.structure_graph();
      Bfs h_bfs(h_graph);
      const BfsResult h_tree = h_bfs.run(0);
      std::vector<EdgeId> pq_faults;
      std::vector<Vertex> pq_targets;
      for (int q = 0; q < queries; ++q) {
        const Vertex v = static_cast<Vertex>(rng.next_below(n));
        if (h_tree.parent_edge[v] == kInvalidEdge) continue;
        pq_faults.push_back(built.structure.edges[h_tree.parent_edge[v]]);
        pq_targets.push_back(static_cast<Vertex>(rng.next_below(n)));
      }
      Timer tpq_full;
      for (std::size_t q = 0; q < pq_faults.size(); ++q) {
        const std::span<const EdgeId> one(&pq_faults[q], 1);
        (void)h_engine.shortest_path(0, pq_targets[q], edge_faults(one));
      }
      const double pq_full_time = tpq_full.seconds();
      Timer tpq_delta;
      for (std::size_t q = 0; q < pq_faults.size(); ++q) {
        const std::span<const EdgeId> one(&pq_faults[q], 1);
        (void)d_engine.shortest_path(0, pq_targets[q], edge_faults(one));
      }
      const double pq_delta_time = tpq_delta.seconds();

      // Counter snapshot here so the JSON attributes fast/repair/full to
      // exactly the three timed delta workloads above (repeated sweep,
      // single-fault, parent-query) — not to the untimed verification loops
      // below or the batch sweep.
      const FaultQueryEngine::PathStats paths = d_engine.path_stats();

      // Untimed verification. Single-fault: bit-identical distance vectors.
      for (int q = 0; q < sf_queries; ++q) {
        const std::span<const EdgeId> one(&sf_edges[q], 1);
        const auto& full_hops = h_engine.all_distances(0, edge_faults(one));
        if (full_hops != d_engine.all_distances(0, edge_faults(one))) {
          ++sf_mismatches;
        }
      }
      // Parent-query: identical reachability and hop counts (the realized
      // tie-break may differ; the length may not).
      std::uint64_t pq_mismatches = 0;
      for (std::size_t q = 0; q < pq_faults.size(); ++q) {
        const std::span<const EdgeId> one(&pq_faults[q], 1);
        const auto fp = h_engine.shortest_path(0, pq_targets[q],
                                               edge_faults(one));
        const auto dp = d_engine.shortest_path(0, pq_targets[q],
                                               edge_faults(one));
        if (fp.has_value() != dp.has_value() ||
            (fp.has_value() && fp->size() != dp->size())) {
          ++pq_mismatches;
        }
      }

      // The batched path: one call, early-exit BFS per fault set (delta
      // classification per row — the production batch path).
      Timer tb;
      const std::vector<std::uint32_t> batched =
          d_engine.batch(0, fault_sets, targets);
      const double b_time = tb.seconds();

      // The service path: typed requests against an OracleService whose pool
      // holds the same structure; repeated scenarios hit the LRU cache.
      const auto service = make_sweep_service(
          g, built, 0, static_cast<std::size_t>(unique) + 16);
      QueryRequest request;
      request.source = 0;
      request.targets = targets;
      request.kind = QueryKind::kDistance;
      std::vector<std::uint32_t> served(queries * targets.size());
      Timer ts;
      for (int q = 0; q < queries; ++q) {
        request.fault_edges = fault_pool[pick[q]];
        const QueryResponse resp = service->serve(request);
        for (std::size_t j = 0; j < targets.size(); ++j) {
          served[q * targets.size() + j] = resp.distances[j];
        }
      }
      const double s_time = ts.seconds();

      // The same sweep against a full-vector-line service (delta compression
      // off), untimed: hit/miss/eviction accounting must be representation-
      // independent, and the resident-bytes ratio is the memory headline.
      const auto full_line_service = make_sweep_service(
          g, built, 0, static_cast<std::size_t>(unique) + 16, 0.0);
      std::uint64_t cache_mismatches = 0;
      for (int q = 0; q < queries; ++q) {
        request.fault_edges = fault_pool[pick[q]];
        const QueryResponse resp = full_line_service->serve(request);
        for (std::size_t j = 0; j < targets.size(); ++j) {
          if (served[q * targets.size() + j] != resp.distances[j]) {
            ++cache_mismatches;
          }
        }
      }
      const ServiceStats delta_cache_stats = service->stats();
      const ServiceStats full_cache_stats = full_line_service->stats();
      if (delta_cache_stats.cache_hits != full_cache_stats.cache_hits ||
          delta_cache_stats.cache_misses != full_cache_stats.cache_misses ||
          delta_cache_stats.cache_evictions !=
              full_cache_stats.cache_evictions ||
          delta_cache_stats.cache_lines != full_cache_stats.cache_lines) {
        ++cache_mismatches;
      }
      const double bytes_per_line_delta =
          delta_cache_stats.cache_bytes_per_line();
      const double bytes_per_line_full =
          full_cache_stats.cache_bytes_per_line();
      // Denominator floored at one byte: a workload whose diffs are all
      // empty would otherwise report an unbounded (and gate-hostile) ratio.
      const double line_shrink =
          bytes_per_line_full / std::max(bytes_per_line_delta, 1.0);

      // Correctness cross-check, untimed: the sequential, delta, batched,
      // and service matrices against ground truth.
      std::uint64_t mismatches = sf_mismatches + pq_mismatches +
                                 cache_mismatches;
      for (std::size_t i = 0; i < truth.size(); ++i) {
        if (seq[i] != truth[i]) ++mismatches;
        if (dlt[i] != truth[i]) ++mismatches;
        if (batched[i] != truth[i]) ++mismatches;
        if (served[i] != truth[i]) ++mismatches;
      }

      const double hit_rate = delta_cache_stats.cache_hit_rate();
      const double delta_speedup = h_time / std::max(d_time, 1e-12);
      const double sf_speedup = sf_full_time / std::max(sf_delta_time, 1e-12);
      const double pq_speedup = pq_full_time / std::max(pq_delta_time, 1e-12);
      table.add_row(
          {family.name, fmt_u64(n),
           fmt_double(
               static_cast<double>(built.structure.edges.size()) / g.num_edges(),
               3),
           fmt_int(queries),
           fmt_double(100.0 * duplicates / queries, 0), fmt_u64(mismatches),
           fmt_double(1e6 * g_time / queries, 1),
           fmt_double(1e6 * h_time / queries, 1),
           fmt_double(1e6 * d_time / queries, 1),
           fmt_double(1e6 * b_time / queries, 1),
           fmt_double(1e6 * s_time / queries, 1),
           fmt_double(100.0 * hit_rate, 0),
           fmt_double(delta_speedup, 2),
           fmt_double(h_time / std::max(b_time, 1e-12), 2),
           fmt_double(h_time / std::max(s_time, 1e-12), 2),
           fmt_double(sf_speedup, 2),
           fmt_double(pq_speedup, 2),
           fmt_double(line_shrink, 1)});

      char row[1152];
      std::snprintf(row, sizeof row,
                    "%s{\"family\":\"%s\",\"n\":%u,\"queries\":%d,"
                    "\"mismatches\":%llu,\"us_per_query_full\":%.2f,"
                    "\"us_per_query_delta\":%.2f,\"delta_speedup\":%.2f,"
                    "\"single_fault_speedup\":%.2f,"
                    "\"us_per_query_path_full\":%.2f,"
                    "\"us_per_query_path_delta\":%.2f,"
                    "\"parent_query_speedup\":%.2f,"
                    "\"us_per_query_service\":%.2f,"
                    "\"cache_hit_rate\":%.3f,\"service_speedup\":%.2f,"
                    "\"cache_bytes_per_line_full\":%.1f,"
                    "\"cache_bytes_per_line_delta\":%.1f,"
                    "\"cache_line_shrink\":%.2f,"
                    "\"fast_path_hits\":%llu,\"repair_bfs\":%llu,"
                    "\"full_bfs\":%llu}",
                    families_json.empty() ? "" : ",", family.name.c_str(), n,
                    queries, static_cast<unsigned long long>(mismatches),
                    1e6 * h_time / queries, 1e6 * d_time / queries,
                    delta_speedup, sf_speedup,
                    1e6 * pq_full_time / std::max<std::size_t>(1, pq_faults.size()),
                    1e6 * pq_delta_time / std::max<std::size_t>(1, pq_faults.size()),
                    pq_speedup, 1e6 * s_time / queries,
                    hit_rate, h_time / std::max(s_time, 1e-12),
                    bytes_per_line_full, bytes_per_line_delta, line_shrink,
                    static_cast<unsigned long long>(paths.fast_path_hits),
                    static_cast<unsigned long long>(paths.repair_bfs),
                    static_cast<unsigned long long>(paths.full_bfs));
      families_json += row;
    }
  }

  // --- E8b: thread sweep over one shared service ---------------------------
  // One representative config; every thread count replays the same request
  // lists against a fresh service, so row-to-row ratios isolate concurrency.
  const Family& sweep_family = standard_families()[0];
  const Vertex sweep_n = small ? 256u : 1024u;
  const int sweep_queries = small ? 1000 : 4000;
  const Graph g = sweep_family.make(sweep_n, 13);
  BuildRequest breq;
  breq.graph = &g;
  breq.sources = {0};
  breq.fault_budget = 2;
  const BuildResult built = BuilderRegistry::instance().build("cons2ftbfs", breq);

  Rng rng(7);
  const int unique = sweep_queries / 8;
  const std::size_t cols = 32;
  std::vector<Vertex> targets;
  for (std::size_t i = 0; i < cols; ++i) {
    targets.push_back(static_cast<Vertex>(rng.next_below(sweep_n)));
  }
  std::vector<std::vector<EdgeId>> fault_pool(unique);
  for (auto& faults : fault_pool) {
    const int k = static_cast<int>(rng.next_below(3));
    for (int i = 0; i < k; ++i) {
      faults.push_back(static_cast<EdgeId>(rng.next_below(g.num_edges())));
    }
  }
  QueryRequest skeleton;
  skeleton.source = 0;
  skeleton.targets = targets;
  skeleton.kind = QueryKind::kDistance;
  // repeated: ~87% duplicates; cold: every scenario distinct; hot: one
  // scenario for the whole run (all workers racing for a single line).
  std::vector<QueryRequest> repeat_reqs(sweep_queries, skeleton);
  std::vector<QueryRequest> cold_reqs(sweep_queries, skeleton);
  std::vector<QueryRequest> hot_reqs(sweep_queries, skeleton);
  for (int q = 0; q < sweep_queries; ++q) {
    repeat_reqs[q].fault_edges =
        fault_pool[rng.next_below(static_cast<std::uint64_t>(unique))];
    cold_reqs[q].fault_edges = {
        static_cast<EdgeId>(rng.next_below(g.num_edges())),
        static_cast<EdgeId>(q % g.num_edges())};
    hot_reqs[q].fault_edges = fault_pool[0];
  }

  // Ground truth per workload, computed once on the identity engine.
  FaultQueryEngine g_engine(g);
  auto truth_for = [&](const std::vector<QueryRequest>& reqs) {
    std::vector<std::uint32_t> truth(reqs.size() * cols);
    for (std::size_t q = 0; q < reqs.size(); ++q) {
      const auto& hops =
          g_engine.all_distances(0, edge_faults(reqs[q].fault_edges));
      for (std::size_t j = 0; j < cols; ++j) {
        truth[q * cols + j] = hops[targets[j]];
      }
    }
    return truth;
  };
  const std::vector<std::uint32_t> repeat_truth = truth_for(repeat_reqs);
  const std::vector<std::uint32_t> cold_truth = truth_for(cold_reqs);
  const std::vector<std::uint32_t> hot_truth = truth_for(hot_reqs);

  std::vector<SweepRow> sweep;
  double base_repeat = 0.0, base_cold = 0.0, base_hot = 0.0;
  for (const unsigned threads : {1u, 2u, 4u, 8u}) {
    SweepRow row;
    row.threads = threads;
    {
      const auto service = make_sweep_service(
          g, built, 0, static_cast<std::size_t>(unique) + 16);
      const double secs = hammer(*service, repeat_reqs, repeat_truth, cols,
                                 threads, row.mismatches);
      row.us_repeat = 1e6 * secs / sweep_queries;
      row.hit_rate = service->stats().cache_hit_rate();
      if (threads == 1) base_repeat = row.us_repeat;
      row.speedup_repeat = base_repeat / std::max(row.us_repeat, 1e-9);
    }
    {
      const auto service = make_sweep_service(
          g, built, 0, static_cast<std::size_t>(sweep_queries) + 16);
      const double secs = hammer(*service, cold_reqs, cold_truth, cols,
                                 threads, row.mismatches);
      row.us_cold = 1e6 * secs / sweep_queries;
      if (threads == 1) base_cold = row.us_cold;
      row.speedup_cold = base_cold / std::max(row.us_cold, 1e-9);
    }
    {
      const auto service = make_sweep_service(g, built, 0, 64);
      const double secs = hammer(*service, hot_reqs, hot_truth, cols, threads,
                                 row.mismatches);
      row.us_hot = 1e6 * secs / sweep_queries;
      if (threads == 1) base_hot = row.us_hot;
      row.speedup_hot = base_hot / std::max(row.us_hot, 1e-9);
    }
    sweep.push_back(row);
  }

  // --- E8c: serve-mode scaling sweep (large n) -----------------------------
  // Fixed at n=10^5 even under --small (the CI gate keys on the large-n
  // point); --small only trims the request count. The pool entry is the
  // whole graph (add_structure over every edge), so the sweep pays no
  // cons2ftbfs construction at this scale and every <=2-fault request routes
  // to a budget-2 entry. Truth is computed once per distinct scenario (the
  // pool is small), not per request — full verification at sampled-BFS cost.
  const Vertex scale_n = 100000;
  const int scale_queries = small ? 1000 : 3000;
  const int scale_unique = 64;
  const Graph sg = make_sparse_er(scale_n, 17);
  std::vector<EdgeId> all_edges(sg.num_edges());
  std::iota(all_edges.begin(), all_edges.end(), 0);
  auto make_scale_service = [&](std::size_t capacity) {
    ServiceConfig config;
    config.lazy_build = false;
    config.cache_capacity = capacity;
    auto service = std::make_unique<OracleService>(sg, config);
    service->add_structure("all", 0, 2, FaultModel::kEdge, all_edges);
    return service;
  };

  Rng scale_rng(23);
  std::vector<Vertex> scale_targets;
  for (std::size_t i = 0; i < cols; ++i) {
    scale_targets.push_back(static_cast<Vertex>(scale_rng.next_below(scale_n)));
  }
  std::vector<std::vector<EdgeId>> scale_pool(scale_unique);
  for (auto& faults : scale_pool) {
    const int k = static_cast<int>(scale_rng.next_below(3));
    for (int i = 0; i < k; ++i) {
      faults.push_back(static_cast<EdgeId>(scale_rng.next_below(sg.num_edges())));
    }
  }
  QueryRequest scale_skeleton;
  scale_skeleton.source = 0;
  scale_skeleton.targets = scale_targets;
  scale_skeleton.kind = QueryKind::kDistance;
  std::vector<QueryRequest> scale_reqs(scale_queries, scale_skeleton);
  std::vector<int> scale_pick(scale_queries);
  for (int q = 0; q < scale_queries; ++q) {
    scale_pick[q] = static_cast<int>(
        scale_rng.next_below(static_cast<std::uint64_t>(scale_unique)));
    scale_reqs[q].fault_edges = scale_pool[scale_pick[q]];
  }
  FaultQueryEngine sg_engine(sg);
  std::vector<std::vector<std::uint32_t>> pool_truth(scale_unique);
  for (int e = 0; e < scale_unique; ++e) {
    const auto& hops =
        sg_engine.all_distances(0, edge_faults(scale_pool[e]));
    pool_truth[e].resize(cols);
    for (std::size_t j = 0; j < cols; ++j) {
      pool_truth[e][j] = hops[scale_targets[j]];
    }
  }
  std::vector<std::uint32_t> scale_truth(scale_queries * cols);
  for (int q = 0; q < scale_queries; ++q) {
    for (std::size_t j = 0; j < cols; ++j) {
      scale_truth[q * cols + j] = pool_truth[scale_pick[q]][j];
    }
  }

  struct ScaleRow {
    unsigned threads = 1;
    const char* mode = "ordered";
    std::size_t batch = 1;  // admissions per ticket acquisition; 0 = relaxed
    double us = 0.0;
    double speedup = 1.0;  // vs the same mode+batch config at 1 thread
    double hit_rate = 0.0;
    std::uint64_t mismatches = 0;
  };
  const struct {
    const char* mode;
    std::size_t batch;
  } scale_configs[] = {{"ordered", 1}, {"ordered", 8}, {"relaxed", 0}};
  std::vector<ScaleRow> scale;
  double scale_base[3] = {0.0, 0.0, 0.0};
  for (const unsigned threads : {1u, 2u, 4u, 8u}) {
    for (std::size_t c = 0; c < 3; ++c) {
      ScaleRow row;
      row.threads = threads;
      row.mode = scale_configs[c].mode;
      row.batch = scale_configs[c].batch;
      const auto service =
          make_scale_service(static_cast<std::size_t>(scale_unique) + 16);
      const double secs =
          row.batch == 0
              ? hammer(*service, scale_reqs, scale_truth, cols, threads,
                       row.mismatches)
              : hammer_ordered(*service, scale_reqs, scale_truth, cols,
                               threads, row.batch, row.mismatches);
      row.us = 1e6 * secs / scale_queries;
      row.hit_rate = service->stats().cache_hit_rate();
      if (threads == 1) scale_base[c] = row.us;
      row.speedup = scale_base[c] / std::max(row.us, 1e-9);
      scale.push_back(row);
    }
  }

  if (json) {
    std::printf("{\"bench\":\"e8_queries\",\"hardware_threads\":%u,"
                "\"families\":[%s],\"thread_sweep\":{\"family\":\"%s\","
                "\"n\":%u,\"queries\":%d,\"rows\":[",
                hardware_workers(), families_json.c_str(),
                sweep_family.name.c_str(), sweep_n, sweep_queries);
    for (std::size_t i = 0; i < sweep.size(); ++i) {
      const SweepRow& r = sweep[i];
      std::printf(
          "%s{\"threads\":%u,\"n\":%u,\"mode\":\"relaxed\",\"batch\":0,"
          "\"us_per_query_repeat\":%.2f,"
          "\"speedup_repeat\":%.2f,\"hit_rate\":%.3f,"
          "\"us_per_query_cold\":%.2f,\"speedup_cold\":%.2f,"
          "\"us_per_query_hot\":%.2f,\"speedup_hot\":%.2f,"
          "\"mismatches\":%llu}",
          i == 0 ? "" : ",", r.threads, sweep_n, r.us_repeat, r.speedup_repeat,
          r.hit_rate, r.us_cold, r.speedup_cold, r.us_hot, r.speedup_hot,
          static_cast<unsigned long long>(r.mismatches));
    }
    std::printf("]},\"scale_sweep\":{\"family\":\"%s\",\"n\":%u,"
                "\"queries\":%d,\"unique\":%d,\"rows\":[",
                sweep_family.name.c_str(), scale_n, scale_queries,
                scale_unique);
    for (std::size_t i = 0; i < scale.size(); ++i) {
      const ScaleRow& r = scale[i];
      std::printf(
          "%s{\"threads\":%u,\"n\":%u,\"mode\":\"%s\",\"batch\":%zu,"
          "\"us_per_query\":%.2f,\"speedup\":%.2f,\"hit_rate\":%.3f,"
          "\"mismatches\":%llu}",
          i == 0 ? "" : ",", r.threads, scale_n, r.mode, r.batch, r.us,
          r.speedup, r.hit_rate,
          static_cast<unsigned long long>(r.mismatches));
    }
    std::printf("]}}\n");
    return 0;
  }

  table.print(std::cout);
  std::printf(
      "E8 columns: 'us/q full' is the pre-delta path (one full masked BFS\n"
      "per fault set over H); 'us/q dlt' is the two-tier delta path (baseline\n"
      "fast path / repair BFS / threshold fallback; docs/perf.md); 'dlt x'\n"
      "their ratio on the repeated 0-2-fault sweep and 'sf x' on the\n"
      "single-fault workload (acceptance bar: >=2x on both). 'pq x' is the\n"
      "parent-query ratio: shortest_path under a tree-edge fault, repair\n"
      "path vs the pre-PR full-BFS fallback (bar: >=2x). 'B/ln shr' is the\n"
      "scenario-cache resident-bytes-per-line shrink of delta-compressed\n"
      "lines vs full vectors on the same sweep (bar: >=5x), with hit/miss/\n"
      "eviction counters identical in both representations.\n\n");
  Table sweep_table("E8b: service thread sweep (shared OracleService, " +
                    sweep_family.name + ", n=" + std::to_string(sweep_n) + ")");
  sweep_table.set_header({"threads", "mm", "us/q rep", "x rep", "hit%",
                          "us/q cold", "x cold", "us/q hot", "x hot"});
  for (const SweepRow& r : sweep) {
    sweep_table.add_row({fmt_u64(r.threads), fmt_u64(r.mismatches),
                         fmt_double(r.us_repeat, 1),
                         fmt_double(r.speedup_repeat, 2),
                         fmt_double(100.0 * r.hit_rate, 0),
                         fmt_double(r.us_cold, 1),
                         fmt_double(r.speedup_cold, 2),
                         fmt_double(r.us_hot, 1),
                         fmt_double(r.speedup_hot, 2)});
  }
  sweep_table.print(std::cout);
  std::printf(
      "Reading: zero mismatches — every query path answers exact distances.\n"
      "E8: the sequential column pays one full BFS per fault set; the batched\n"
      "column's early-exit BFS stops once the target sample is settled; the\n"
      "service column pays a BFS only on a scenario-cache miss, so on this\n"
      "~87%%-duplicate sweep its per-query cost approaches a table lookup\n"
      "(svc x is the service speedup over the sequential engine path — the\n"
      "acceptance bar is 2x at >=50%% duplicates).\n"
      "E8b: workers share one service. 'rep' is the repeated-scenario sweep\n"
      "(shared-lock cache hits, the acceptance workload: >1.8x at 4 workers\n"
      "on >=4 hardware threads); 'cold' is all-distinct (BFS on leased\n"
      "scratch); 'hot' hammers a single cache line (worst-case shard\n"
      "contention).\n\n");
  Table scale_table("E8c: serve-mode scaling sweep (" + sweep_family.name +
                    ", n=" + std::to_string(scale_n) + ")");
  scale_table.set_header(
      {"threads", "mode", "batch", "mm", "us/q", "x vs 1thr", "hit%"});
  for (const ScaleRow& r : scale) {
    scale_table.add_row({fmt_u64(r.threads), r.mode, fmt_u64(r.batch),
                         fmt_u64(r.mismatches), fmt_double(r.us, 1),
                         fmt_double(r.speedup, 2),
                         fmt_double(100.0 * r.hit_rate, 0)});
  }
  scale_table.print(std::cout);
  std::printf(
      "E8c: the serve --mode sweep at n=10^5. 'ordered' sequences admissions\n"
      "through a ticket lock ('batch' admissions per acquisition); 'relaxed'\n"
      "skips ordering entirely (responses correlate by id). BFS misses and\n"
      "payload copies run outside the ticket lock in both modes, so ordered\n"
      "tracks relaxed closely; the acceptance bar is relaxed speedup > 1 at\n"
      "4 workers on >= 4 hardware threads.\n");
  return 0;
}
