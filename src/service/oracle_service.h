// OracleService — the typed serving front-end over a multi-structure pool.
//
// One service owns, for a single host graph G:
//   * a pool of named structure entries, each (source, fault budget, fault
//     model) → an FT structure fronted by its own FaultQueryEngine. Entries
//     are added eagerly (prebuilt structures, e.g. the simulator's overlays)
//     or built lazily through the BuilderRegistry when an unpinned request
//     arrives for a shape the pool cannot yet serve (`default_builder` picks
//     the construction);
//   * an O(1) point-oracle fast path (SingleFaultOracle) per enabled source,
//     serving single-edge-fault distance/reachability requests without any
//     BFS;
//   * an identity engine over G itself — ground truth, used for best-effort
//     requests that no structure covers and available under the reserved pin
//     name "identity";
//   * a scenario cache: canonicalized fault sets (sorted, deduped, projected
//     onto the entry's structure) interned together with their full distance
//     vectors, so scenario sweeps and the failure simulator's repeated
//     tick-states are served by a table lookup instead of a BFS.
//
// Routing: a request is validated (unknown ids become kUnknownSource, never
// an abort), its fault set canonicalized (duplicates count once), and then
// served by the cheapest backend whose traits cover it exactly — point oracle
// before structures, smaller structures before larger ones. Requests the pool
// cannot serve exactly are refused (kExactOrRefuse) or served from the
// identity engine (kBestEffort).
//
// Concurrency: serve() is safe under any number of racing callers. The
// scenario cache and the lazy-build bookkeeping are lock-striped shards
// (service/shard.h) — cache hits take one shared lock, BFS runs on scratch
// leased from the entry's engine, a structure is built exactly once per pool
// key no matter how many requests race for it, and all serving counters are
// relaxed atomics. Each serve() call splits into a short *admission* section
// (validation, routing, lazy-build trigger, cache probe — everything that
// reads or advances shared serving state) and a long *execution* section
// (the BFS / cache wait / payload copy, which runs on private state). The
// sequenced overload runs admissions in strict ticket order, which makes a
// threaded serving loop's responses byte-identical to the sequential ones —
// `ftbfs serve --threads N` builds on it (see docs/serving.md).
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <vector>

#include "core/sensitivity_oracle.h"
#include "engine/query_engine.h"
#include "graph/graph.h"
#include "service/protocol.h"
#include "service/shard.h"
#include "service/work_queue.h"

namespace ftbfs {

struct BuildResult;

struct ServiceConfig {
  // Fault budget targeted by lazily built structures (the paper's regime).
  unsigned default_budget = 2;
  // Largest distinct-fault count a lazy build will target; beyond it the
  // request is over budget for the whole pool (generic constructions grow
  // superpolynomially expensive with the budget).
  unsigned max_lazy_budget = 3;
  // Build pool entries on demand for unpinned requests; with this off, a
  // request for a source the pool does not cover refuses with kUnknownSource.
  bool lazy_build = true;
  // Scenario-cache capacity in (entry, fault set) lines; 0 disables caching.
  std::size_t cache_capacity = 256;
  std::uint64_t weight_seed = 1;  // tie-breaking weights for lazy builds
  // Worker threads for structure builds — eager build_structure() and the
  // lazy builds a cold request triggers — forwarded as BuildOptions::jobs.
  // 0 = auto (clamped hardware concurrency), 1 = sequential. Built structures
  // are byte-identical at any value (BuilderTraits::parallel_build), so
  // responses and goldens never depend on it; only the first-request build
  // stall shrinks.
  unsigned build_jobs = 0;
  // Lock-striping width of the scenario cache and lazy-build map. More shards
  // spread racing requests over more locks; 1 degenerates to a single lock.
  // Eviction is per-shard CLOCK over a ceil(capacity/shards) slice, so which
  // lines stay resident — and therefore hit/miss totals near capacity —
  // depends (approximately) on the shard count; far from capacity the
  // accounting is shard-count-independent.
  unsigned cache_shards = 8;
  // Fault-delta query path of the pool engines (docs/perf.md): answer from
  // the per-source baseline tree when the fault set misses it, repair only
  // the damaged subtrees otherwise. Off = every cache miss pays a full
  // masked BFS (the pre-delta behavior; kept as the property-test oracle).
  bool delta_queries = true;
  // Delta-compressed scenario cache (docs/perf.md "Delta cache"): store a
  // cache line as a baseline reference plus a sorted (vertex, hop) diff when
  // the diff covers at most this fraction of the vertices, shrinking a warm
  // line from O(n) to O(affected) resident bytes. Larger diffs — and entries
  // whose engine has no baseline (delta_queries off, baseline cap reached) —
  // keep the full vector: the escape hatch. <= 0 stores every line full;
  // >= 1 compresses every diff. Responses are byte-identical across every
  // setting; only resident bytes change.
  double cache_delta_max_fraction = 0.25;
};

// A point-in-time snapshot of the serving counters (the live counters are
// relaxed atomics; stats() aggregates them without stopping traffic).
struct ServiceStats {
  std::uint64_t requests = 0;
  std::uint64_t served = 0;   // kOk or kDisconnected
  std::uint64_t refused = 0;  // any other status
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;
  std::uint64_t cache_lines = 0;           // resident lines right now
  std::uint64_t cache_resident_bytes = 0;  // payload bytes across those lines
  std::uint64_t structures_built = 0;      // lazy builds
  std::uint64_t identity_served = 0;       // answers from the identity engine
  std::uint64_t point_oracle_served = 0;   // O(1) fast-path answers
  // Engine query-path counters aggregated over every pool entry (identity
  // included): how the BFS-backed queries were actually answered. Cache hits
  // never reach an engine, so these three sum to the engine-served share.
  std::uint64_t fast_path_hits = 0;  // baseline tree answered, no BFS
  std::uint64_t repair_bfs = 0;      // bounded repair over damaged subtrees
  std::uint64_t full_bfs = 0;        // full masked BFS (fallback/disabled)

  [[nodiscard]] double cache_hit_rate() const {
    const std::uint64_t total = cache_hits + cache_misses;
    return total == 0 ? 0.0
                      : static_cast<double>(cache_hits) /
                            static_cast<double>(total);
  }

  [[nodiscard]] double cache_bytes_per_line() const {
    return cache_lines == 0 ? 0.0
                            : static_cast<double>(cache_resident_bytes) /
                                  static_cast<double>(cache_lines);
  }
};

class OracleService {
 public:
  explicit OracleService(const Graph& g, ServiceConfig config = {});

  // The service owns mutexes and latches other threads may be blocked on;
  // it is pinned to its address for life.
  OracleService(const OracleService&) = delete;
  OracleService& operator=(const OracleService&) = delete;

  // Adds a prebuilt structure (edge ids of G) under a unique name. `exact`
  // declares the FT guarantee: dist(s,v,H∖F) = dist(s,v,G∖F) for |F| within
  // the budget under `model` faults. Returns the entry handle.
  std::size_t add_structure(std::string name, Vertex source,
                            unsigned fault_budget, FaultModel model,
                            std::span<const EdgeId> edges, bool exact = true);

  // Builds a structure through the BuilderRegistry and adds it. Empty algo =
  // the registry's default_builder for the shape. A non-null `built`
  // receives the registry's result, stats and phase timings included.
  std::size_t build_structure(std::string name, Vertex source,
                              unsigned fault_budget, FaultModel model,
                              std::string_view algo = {},
                              BuildResult* built = nullptr);

  // Eagerly builds the O(n·m)-preprocessing point oracle for `source`;
  // afterwards single-edge-fault distance/reachability requests from that
  // source are answered in O(1) per target. Not safe concurrently with
  // serve() — enable fast paths before opening the request stream.
  void enable_point_oracle(Vertex source);

  // Serves one request. Never aborts on request contents: capability
  // mismatches and unknown ids come back as status codes. Thread-safe;
  // answers (status, exactness, distances, paths) are deterministic, while
  // attribution can depend on the interleaving of racing calls: which
  // duplicate is labeled the cache miss, and — when requests whose lazy
  // builds target *different* budgets race for one source — which of the
  // resulting entries serves (`served_by`). The sequenced overload below
  // removes even that.
  [[nodiscard]] QueryResponse serve(const QueryRequest& req);

  // Same, with the admission section ordered by `ticket` through `sequencer`
  // (tickets must be dense from 0 across all participants). Concurrent
  // callers that agree on a ticket order get responses byte-identical to
  // serving the requests sequentially in that order — including cache_hit
  // flags and cache evictions.
  [[nodiscard]] QueryResponse serve(const QueryRequest& req,
                                    RequestSequencer& sequencer,
                                    std::uint64_t ticket);

  // --- split serve: admit / execute ----------------------------------------
  // serve() == execute(admit(req)). admit() runs the admission section —
  // validation, routing, lazy-build trigger, cache probe: everything that
  // reads or advances shared serving state — and returns a self-contained
  // Admission; execute() runs the execution tail (BFS / cache wait / payload
  // copy) on private state. Both are thread-safe on their own; ordering the
  // admit() calls (by sequencer ticket) is what makes the response stream
  // deterministic. A caller may also run several dense tickets' admit()
  // calls under ONE sequencer turn:
  //
  //   sequencer.wait_for(first);
  //   for (r : batch) a.push_back(admit(r));   // dense tickets, in order
  //   sequencer.advance_n(batch.size());
  //   for (x : a) respond(execute(std::move(x)));
  //
  // `req` must outlive the matching execute() call (the Admission keeps a
  // pointer, not a copy).
  struct Admission;
  [[nodiscard]] Admission admit(const QueryRequest& req);
  [[nodiscard]] QueryResponse execute(Admission admission);

  // --- introspection -------------------------------------------------------

  [[nodiscard]] const Graph& graph() const { return *g_; }
  [[nodiscard]] ServiceStats stats() const;
  [[nodiscard]] std::size_t pool_size() const;
  [[nodiscard]] const std::string& entry_name(std::size_t entry) const;
  [[nodiscard]] std::uint64_t entry_edges(std::size_t entry) const;

  // Direct engine access for an entry ("identity" included) — the advanced,
  // cache-bypassing path used by FtBfsOracle::batch for threaded sweeps.
  [[nodiscard]] FaultQueryEngine& engine(std::size_t entry);

 private:
  // Snapshot persistence (src/persist/service_io.cpp) walks the pool and the
  // scenario cache to export an image, and rebuilds both from one.
  friend struct PersistAccess;

  struct Entry {
    std::string name;
    // BuilderRegistry name that produced the structure; empty for prebuilt
    // edge sets of unknown provenance. Snapshots carry it so a restore can
    // cross-check the entry against the registry this build ships.
    std::string algorithm;
    Vertex source = 0;
    unsigned budget = 0;
    FaultModel model = FaultModel::kEdge;
    bool exact = true;
    bool identity = false;
    std::uint64_t edge_count = 0;  // routing cost proxy
    FaultQueryEngine engine;
    // G edge id → edge present in the structure; empty for identity. Used to
    // project cache keys onto H: faults absent from H cannot change answers,
    // so scenarios differing only in absent edges share one cache line.
    std::vector<bool> in_h;

    Entry(const Graph& g, std::span<const EdgeId> edges);
    explicit Entry(const Graph& g);  // identity
  };

  // Armed the moment a request reserves a pending cache line: if the request
  // unwinds before publishing real distances — anywhere between reservation
  // and the fill, not just inside the compute block — the destructor
  // poison-fills the line (empty vector) so waiters wake and compute for
  // themselves, and a later probe() swaps the poisoned line out. disarm()
  // after the real fill keeps the line's fill-exactly-once contract.
  struct FillObligation {
    ShardedScenarioCache::LinePtr line;
    FillObligation() = default;
    FillObligation(const FillObligation&) = delete;
    FillObligation& operator=(const FillObligation&) = delete;
    // Movable so an Admission can carry the obligation from admit() to
    // execute(): the moved-from line is null, so exactly one destructor can
    // ever poison it.
    FillObligation(FillObligation&& other) noexcept = default;
    FillObligation& operator=(FillObligation&& other) noexcept {
      if (this != &other) {
        if (line != nullptr) ShardedScenarioCache::fill(*line, {});
        line = std::move(other.line);
      }
      return *this;
    }
    ~FillObligation() {
      if (line != nullptr) ShardedScenarioCache::fill(*line, {});
    }
    void disarm() { line.reset(); }
  };

  // Everything serve() decides during admission; execution runs from this
  // plan on private state only. `e` is resolved under the pool lock but
  // stays valid without it: entries are address-stable and never removed.
  struct ServePlan {
    Entry* e = nullptr;
    std::size_t entry = 0;  // index of `e` (part of the cache key)
    bool exact = false;
    // Cache outcome (non-path kinds with caching enabled):
    ShardedScenarioCache::LinePtr line;
    bool cache_hit = false;  // read the line (waiting if still pending)
    bool fill_line = false;  // we reserved the line and must compute+fill it
    FillObligation fill_obligation;  // armed iff fill_line
  };

 public:
  // Everything one request needs between admit() and execute(); defined here
  // so it can carry the (private) plan types by value. Move-only. See the
  // admit/execute contract above for the lifecycle.
  struct Admission {
    QueryResponse resp;  // id prefilled; final already when `done`
    bool done = false;   // refusal — execute() just returns resp
    const QueryRequest* req = nullptr;
    const SingleFaultOracle* point = nullptr;  // O(1) fast path when non-null
    CanonicalFaultSet canon;
    ServePlan plan;
  };

 private:
  [[nodiscard]] int find_entry_locked(std::string_view name) const;
  [[nodiscard]] Entry& entry_ref(std::size_t entry);

  // Applies the service-level query-path config (delta on/off, fallback
  // threshold) to an entry's engine; every entry passes through here before
  // it is published.
  void configure_engine(Entry& entry) const;

  // True if `e` answers exactly for (source, canonical faults).
  [[nodiscard]] bool serves_exactly(const Entry& e, Vertex source,
                                    const CanonicalFaultSet& canon) const;

  // Cache key for the canonical fault set against an entry: entry index +
  // source + fault ids projected onto the entry's structure, packed into
  // `words` (a reused buffer — no heap allocation once warm) and returned as
  // a fingerprinted non-owning view.
  [[nodiscard]] ScenarioKeyView cache_key(
      const Entry& e, std::size_t entry, Vertex source,
      const CanonicalFaultSet& canon,
      std::vector<std::uint32_t>& words) const;

  // Appends a published entry under the pool's exclusive lock, de-duplicating
  // the name against racing eager adds. Returns the entry index.
  std::size_t publish_entry(Entry entry);

  // Admission: probes the scenario cache and decides who computes what.
  void plan_payload(ServePlan& plan, const QueryRequest& req,
                    const CanonicalFaultSet& canon);
  // Execution: runs the plan (BFS on leased scratch / cache wait / copy).
  void fill_payload(ServePlan& plan, const QueryRequest& req,
                    const CanonicalFaultSet& canon, QueryResponse& resp);
  // Publishes a computed scenario onto its reserved line, delta-compressed
  // against the entry's baseline when the diff fits the configured fraction.
  void fill_scenario_line(Entry& e, Vertex source,
                          const std::vector<std::uint32_t>& full,
                          ShardedScenarioCache::Line& line);

  QueryResponse refuse(QueryResponse resp, StatusCode status,
                       std::string why);

  const Graph* g_;
  ServiceConfig config_;
  // Entry 0 is the identity engine. A deque keeps entries address-stable
  // under concurrent appends; the shared mutex guards the append itself and
  // the size/name scans. Published entries are immutable (their engines hand
  // out leased scratch internally).
  std::deque<Entry> entries_;
  mutable std::shared_mutex pool_mutex_;
  std::map<Vertex, SingleFaultOracle> point_oracles_;
  ShardedScenarioCache cache_;
  BuildOnceMap lazy_builds_;

  struct Counters {
    std::atomic<std::uint64_t> requests{0};
    std::atomic<std::uint64_t> served{0};
    std::atomic<std::uint64_t> refused{0};
    std::atomic<std::uint64_t> structures_built{0};
    std::atomic<std::uint64_t> identity_served{0};
    std::atomic<std::uint64_t> point_oracle_served{0};
  };
  mutable Counters counters_;
};

}  // namespace ftbfs
