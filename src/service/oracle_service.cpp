#include "service/oracle_service.h"

#include <algorithm>
#include <limits>
#include <mutex>
#include <new>
#include <utility>

#include "engine/registry.h"
#include "spath/bfs.h"
#include "util/failpoint.h"

namespace ftbfs {

namespace {

// True if `model` covers a fault set with the given composition. Mixed sets
// are covered by no single-model structure (only the identity engine).
bool model_covers(FaultModel model, bool has_edge_faults,
                  bool has_vertex_faults) {
  if (has_edge_faults && has_vertex_faults) return false;
  if (has_edge_faults) return model == FaultModel::kEdge;
  if (has_vertex_faults) return model == FaultModel::kVertex;
  return true;  // fault-free queries are within every FT guarantee
}

// Lazy-build key: one structure per (source, budget, model) shape.
std::uint64_t pack_pool_key(Vertex source, unsigned budget, FaultModel model) {
  return (static_cast<std::uint64_t>(source) << 32) |
         (static_cast<std::uint64_t>(budget & 0x7fffffffu) << 1) |
         (model == FaultModel::kVertex ? 1u : 0u);
}

}  // namespace

OracleService::Entry::Entry(const Graph& g, std::span<const EdgeId> edges)
    : edge_count(edges.size()), engine(g, edges), in_h(g.num_edges(), false) {
  for (const EdgeId e : edges) in_h[e] = true;
}

OracleService::Entry::Entry(const Graph& g)
    : name("identity"),
      budget(std::numeric_limits<unsigned>::max()),
      identity(true),
      edge_count(g.num_edges()),
      engine(g) {}

OracleService::OracleService(const Graph& g, ServiceConfig config)
    : g_(&g),
      config_(config),
      cache_(config.cache_capacity, config.cache_shards),
      lazy_builds_(config.cache_shards) {
  Entry identity(*g_);  // entry 0: ground truth, always available
  configure_engine(identity);
  entries_.push_back(std::move(identity));
}

// The one place an entry's engine picks up the service-level query-path
// config; every Entry must pass through here before it is published.
void OracleService::configure_engine(Entry& entry) const {
  entry.engine.set_delta_options(
      FaultQueryEngine::DeltaOptions{.enabled = config_.delta_queries});
}

std::size_t OracleService::publish_entry(Entry entry) {
  const std::unique_lock lock(pool_mutex_);
  // Racing eager adds can take any name first; a lazy build keeps its
  // deterministic base name unless the name is genuinely occupied.
  while (find_entry_locked(entry.name) >= 0) entry.name += "+";
  entries_.push_back(std::move(entry));
  return entries_.size() - 1;
}

std::size_t OracleService::add_structure(std::string name, Vertex source,
                                         unsigned fault_budget,
                                         FaultModel model,
                                         std::span<const EdgeId> edges,
                                         bool exact) {
  FTBFS_EXPECTS(!name.empty());
  FTBFS_EXPECTS(source < g_->num_vertices());
  Entry entry(*g_, edges);  // subgraph materialization, outside any lock
  entry.name = std::move(name);
  entry.source = source;
  entry.budget = fault_budget;
  entry.model = model;
  entry.exact = exact;
  configure_engine(entry);
  {
    const std::unique_lock lock(pool_mutex_);
    FTBFS_EXPECTS(find_entry_locked(entry.name) < 0);
    entries_.push_back(std::move(entry));
    return entries_.size() - 1;
  }
}

std::size_t OracleService::build_structure(std::string name, Vertex source,
                                           unsigned fault_budget,
                                           FaultModel model,
                                           std::string_view algo,
                                           BuildResult* built) {
  const BuilderRegistry& reg = BuilderRegistry::instance();
  const std::string chosen =
      algo.empty() ? BuilderRegistry::default_builder(fault_budget, model, 1)
                   : std::string(algo);
  BuildRequest req;
  req.graph = g_;
  req.sources = {source};
  req.fault_budget = fault_budget;
  req.fault_model = model;
  req.weight_seed = config_.weight_seed;
  req.options.jobs = config_.build_jobs;
  FTBFS_EXPECTS(reg.unsupported_reason(chosen, req).empty());
  BuildResult result = reg.build(chosen, req);
  const BuilderTraits* traits = reg.find(result.algorithm);
  const std::size_t idx =
      add_structure(std::move(name), source, fault_budget, model,
                    result.structure.edges, traits == nullptr || traits->exact);
  {
    const std::unique_lock lock(pool_mutex_);
    entries_[idx].algorithm = result.algorithm;
  }
  if (built != nullptr) *built = std::move(result);
  return idx;
}

void OracleService::enable_point_oracle(Vertex source) {
  FTBFS_EXPECTS(source < g_->num_vertices());
  point_oracles_.try_emplace(source, *g_, source, config_.weight_seed);
}

ServiceStats OracleService::stats() const {
  ServiceStats out;
  out.requests = counters_.requests.load(std::memory_order_relaxed);
  out.served = counters_.served.load(std::memory_order_relaxed);
  out.refused = counters_.refused.load(std::memory_order_relaxed);
  out.cache_hits = cache_.total_hits();
  out.cache_misses = cache_.total_misses();
  out.cache_evictions = cache_.total_evictions();
  out.cache_lines = cache_.size();
  out.cache_resident_bytes = cache_.total_resident_bytes();
  out.structures_built =
      counters_.structures_built.load(std::memory_order_relaxed);
  out.identity_served =
      counters_.identity_served.load(std::memory_order_relaxed);
  out.point_oracle_served =
      counters_.point_oracle_served.load(std::memory_order_relaxed);
  {
    // Aggregate the engines' query-path counters; entries are append-only so
    // the shared lock only fences the deque scan against a racing publish.
    const std::shared_lock lock(pool_mutex_);
    for (const Entry& e : entries_) {
      const FaultQueryEngine::PathStats ps = e.engine.path_stats();
      out.fast_path_hits += ps.fast_path_hits;
      out.repair_bfs += ps.repair_bfs;
      out.full_bfs += ps.full_bfs;
    }
  }
  return out;
}

std::size_t OracleService::pool_size() const {
  const std::shared_lock lock(pool_mutex_);
  return entries_.size();
}

const std::string& OracleService::entry_name(std::size_t entry) const {
  const std::shared_lock lock(pool_mutex_);
  FTBFS_EXPECTS(entry < entries_.size());
  return entries_[entry].name;
}

std::uint64_t OracleService::entry_edges(std::size_t entry) const {
  const std::shared_lock lock(pool_mutex_);
  FTBFS_EXPECTS(entry < entries_.size());
  return entries_[entry].edge_count;
}

FaultQueryEngine& OracleService::engine(std::size_t entry) {
  const std::shared_lock lock(pool_mutex_);
  FTBFS_EXPECTS(entry < entries_.size());
  return entries_[entry].engine;
}

int OracleService::find_entry_locked(std::string_view name) const {
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

bool OracleService::serves_exactly(const Entry& e, Vertex source,
                                   const CanonicalFaultSet& canon) const {
  if (e.identity) return true;  // ground truth serves anything exactly
  return e.source == source && e.exact &&
         model_covers(e.model, !canon.edges().empty(),
                      !canon.vertices().empty()) &&
         canon.size() <= e.budget;
}

OracleService::Entry& OracleService::entry_ref(std::size_t entry) {
  const std::shared_lock lock(pool_mutex_);
  return entries_[entry];
}

ScenarioKeyView OracleService::cache_key(
    const Entry& e, std::size_t entry, Vertex source,
    const CanonicalFaultSet& canon, std::vector<std::uint32_t>& words) const {
  words.clear();
  words.push_back(static_cast<std::uint32_t>(entry));
  words.push_back(source);
  // Project onto H: faults absent from the structure cannot change answers,
  // so scenarios differing only in absent edges share one cache line. The
  // projected edge count keeps the edge/vertex boundary unambiguous.
  words.push_back(0);  // patched to the projected edge count below
  for (const EdgeId f : canon.edges()) {
    if (e.identity || e.in_h[f]) words.push_back(f);
  }
  words[2] = static_cast<std::uint32_t>(words.size() - 3);
  for (const Vertex v : canon.vertices()) words.push_back(v);
  return ScenarioKeyView{scenario_fingerprint(words), words};
}

QueryResponse OracleService::refuse(QueryResponse resp, StatusCode status,
                                    std::string why) {
  resp.status = status;
  resp.error = std::move(why);
  counters_.refused.fetch_add(1, std::memory_order_relaxed);
  return resp;
}

void OracleService::plan_payload(ServePlan& plan, const QueryRequest& req,
                                 const CanonicalFaultSet& canon) {
  // Paths need BFS parents, which the scenario cache does not retain — path
  // requests always go to the engine.
  if (req.kind == QueryKind::kPath || !cache_.enabled()) return;
  // Single-target miss: an early-exit BFS beats the full sweep a cache line
  // would need, so do not reserve a line (a hit is still used).
  const bool reserve =
      !(req.kind == QueryKind::kDistance && req.targets.size() == 1);
  // Per-thread key-word scratch: the packed key lives only for the probe
  // call, so one reused buffer per thread keeps the admission path free of
  // heap allocation and of per-probe re-hashing.
  static thread_local std::vector<std::uint32_t> key_words;
  ShardedScenarioCache::Probe probe = cache_.probe(
      cache_key(*plan.e, plan.entry, req.source, canon, key_words), reserve);
  if (probe.hit) {
    plan.line = std::move(probe.line);
    plan.cache_hit = true;
  } else if (probe.owner) {
    plan.line = probe.line;
    plan.fill_line = true;
    plan.fill_obligation.line = std::move(probe.line);
  }
}

void OracleService::fill_payload(ServePlan& plan, const QueryRequest& req,
                                 const CanonicalFaultSet& canon,
                                 QueryResponse& resp) {
  Entry& e = *plan.e;
  resp.served_by = e.name;
  if (e.identity) {
    counters_.identity_served.fetch_add(1, std::memory_order_relaxed);
  }
  const FaultSpec faults = canon.spec();

  if (req.kind == QueryKind::kPath) {
    FaultQueryEngine::ScratchLease lease = e.engine.acquire_scratch();
    std::size_t unreachable = 0;
    for (const Vertex t : req.targets) {
      auto path = e.engine.shortest_path(lease, req.source, t, faults);
      if (path.has_value()) {
        resp.distances.push_back(static_cast<std::uint32_t>(path->size() - 1));
        resp.paths.push_back(std::move(*path));
      } else {
        ++unreachable;
        resp.distances.push_back(kInfHops);
        resp.paths.emplace_back();
      }
    }
    if (!req.targets.empty() && unreachable == req.targets.size()) {
      resp.status = StatusCode::kDisconnected;
    }
    return;
  }

  resp.cache_hit = plan.cache_hit;
  const ShardedScenarioCache::Line* line = nullptr;
  if (plan.cache_hit) {
    // Computed by whoever reserved the line (possibly still in flight). A
    // poisoned payload is what a failed computer leaves behind — fall
    // through and compute locally rather than serving garbage, and stop
    // claiming the answer came from the cache.
    ShardedScenarioCache::wait(*plan.line);
    if (!ShardedScenarioCache::poisoned(*plan.line)) {
      line = plan.line.get();
    } else {
      resp.cache_hit = false;
    }
  }
  if (line == nullptr && req.kind == QueryKind::kDistance &&
      req.targets.size() == 1) {
    FaultQueryEngine::ScratchLease lease = e.engine.acquire_scratch();
    const std::uint32_t d =
        e.engine.distance(lease, req.source, req.targets[0], faults);
    resp.distances.push_back(d);
    if (d == kInfHops) resp.status = StatusCode::kDisconnected;
    return;
  }
  // Keep the lease (and the full vector it backs) alive until the payload is
  // copied out below.
  std::optional<FaultQueryEngine::ScratchLease> lease;
  const std::vector<std::uint32_t>* hops = nullptr;
  if (line == nullptr) {
    lease.emplace(e.engine.acquire_scratch());
    const std::vector<std::uint32_t>& full =
        e.engine.all_distances(*lease, req.source, faults);
    if (plan.fill_line) {
      // Building the payload can throw (it allocates); the plan's fill
      // obligation stays armed — poisoning the line for the waiters — until
      // the real distances are published.
      fill_scenario_line(e, req.source, full, *plan.line);
      plan.fill_obligation.disarm();
    }
    hops = &full;  // serve straight from the lease either way
  }
  const auto hop_at = [&](Vertex t) {
    return hops != nullptr ? (*hops)[t] : ShardedScenarioCache::at(*line, t);
  };

  switch (req.kind) {
    case QueryKind::kAllDistances:
      if (hops != nullptr) {
        resp.distances = *hops;
      } else {
        ShardedScenarioCache::materialize(*line, resp.distances);
      }
      break;
    case QueryKind::kDistance: {
      std::size_t unreachable = 0;
      for (const Vertex t : req.targets) {
        const std::uint32_t d = hop_at(t);
        resp.distances.push_back(d);
        if (d == kInfHops) ++unreachable;
      }
      if (!req.targets.empty() && unreachable == req.targets.size()) {
        resp.status = StatusCode::kDisconnected;
      }
      break;
    }
    case QueryKind::kReachability:
      for (const Vertex t : req.targets) {
        const std::uint32_t d = hop_at(t);
        resp.distances.push_back(d);
        resp.reachable.push_back(d != kInfHops);
      }
      break;
    case QueryKind::kPath:
      break;  // handled above
  }
}

// Publishes one computed scenario onto its reserved cache line, choosing the
// representation: a sorted (vertex, hop) diff against the entry engine's
// per-source baseline when the diff is small enough (the warm line then
// holds O(affected) bytes instead of O(n)), the full vector otherwise — or
// when the engine has no baseline to diff against. The choice depends only
// on (baseline, distances, threshold), so threaded serving replays it
// deterministically.
void OracleService::fill_scenario_line(Entry& e, Vertex source,
                                       const std::vector<std::uint32_t>& full,
                                       ShardedScenarioCache::Line& line) {
  const std::vector<std::uint32_t>* base =
      config_.cache_delta_max_fraction > 0.0 ? e.engine.baseline_hops(source)
                                             : nullptr;
  if (base != nullptr) {
    if (&full == base) {
      // Fast-path miss: the engine answered straight from the baseline
      // vector itself, so the diff is empty by identity — skip the scan.
      ShardedScenarioCache::fill_delta(line, base, {});
      return;
    }
    const std::size_t limit = static_cast<std::size_t>(
        config_.cache_delta_max_fraction * static_cast<double>(full.size()));
    std::vector<std::uint64_t> diff;
    for (Vertex v = 0; v < full.size() && diff.size() <= limit; ++v) {
      if (full[v] != (*base)[v]) {
        diff.push_back((static_cast<std::uint64_t>(v) << 32) | full[v]);
      }
    }
    if (diff.size() <= limit) {
      ShardedScenarioCache::fill_delta(line, base, std::move(diff));
      return;
    }
  }
  ShardedScenarioCache::fill(line, full);  // escape hatch: full copy
}

QueryResponse OracleService::serve(const QueryRequest& req) {
  return execute(admit(req));
}

QueryResponse OracleService::serve(const QueryRequest& req,
                                   RequestSequencer& sequencer,
                                   std::uint64_t ticket) {
  sequencer.wait_for(ticket);
  Admission admission;
  {
    // Burn exactly one ticket even if admission throws (a stuck ticket would
    // deadlock every later one).
    struct AdvanceGuard {
      RequestSequencer* s;
      ~AdvanceGuard() { s->advance(); }
    } guard{&sequencer};
    admission = admit(req);
  }
  return execute(std::move(admission));
}

OracleService::Admission OracleService::admit(const QueryRequest& req) {
  counters_.requests.fetch_add(1, std::memory_order_relaxed);
  Admission a;
  a.req = &req;
  a.resp.id = req.id;

  // Refusal exit: the response is final, execute() just hands it back.
  auto refused = [&](StatusCode status, std::string why) {
    a.resp = refuse(std::move(a.resp), status, std::move(why));
    a.done = true;
    return std::move(a);
  };

  // --- validation: unknown ids are status codes, never aborts --------------
  const Vertex n = g_->num_vertices();
  if (req.source >= n) {
    return refused(StatusCode::kUnknownSource,
                   "source " + std::to_string(req.source) + " out of range");
  }
  for (const Vertex t : req.targets) {
    if (t >= n) {
      return refused(StatusCode::kUnknownSource,
                     "target " + std::to_string(t) + " out of range");
    }
  }
  for (const EdgeId f : req.fault_edges) {
    if (f >= g_->num_edges()) {
      return refused(StatusCode::kUnknownSource,
                     "fault edge id " + std::to_string(f) + " out of range");
    }
  }
  for (const Vertex v : req.fault_vertices) {
    if (v >= n) {
      return refused(StatusCode::kUnknownSource,
                     "fault vertex " + std::to_string(v) + " out of range");
    }
  }

  a.canon.assign(FaultSpec{req.fault_edges, req.fault_vertices});
  const CanonicalFaultSet& canon = a.canon;
  const bool has_edge_faults = !canon.edges().empty();
  const bool has_vertex_faults = !canon.vertices().empty();
  const bool mixed = has_edge_faults && has_vertex_faults;

  // The one way out for served (non-refused) requests: finish admission with
  // the cache probe; the execution tail runs from the plan alone.
  auto complete = [&](Entry* e, std::size_t entry, bool exact) {
    a.plan.e = e;
    a.plan.entry = entry;
    a.plan.exact = exact;
    plan_payload(a.plan, req, canon);
    return std::move(a);
  };

  // --- pinned requests -----------------------------------------------------
  if (!req.structure.empty()) {
    int idx = -1;
    Entry* pinned = nullptr;
    {
      const std::shared_lock lock(pool_mutex_);
      idx = find_entry_locked(req.structure);
      if (idx >= 0) pinned = &entries_[static_cast<std::size_t>(idx)];
    }
    if (idx < 0) {
      return refused(StatusCode::kUnknownSource,
                     "unknown structure '" + req.structure + "'");
    }
    const Entry& e = *pinned;
    const bool exact = serves_exactly(e, req.source, canon);
    if (!exact && req.consistency == Consistency::kExactOrRefuse) {
      if (e.source != req.source) {
        return refused(StatusCode::kUnknownSource,
                       "structure '" + e.name + "' is pinned to source " +
                           std::to_string(e.source));
      }
      if (!model_covers(e.model, has_edge_faults, has_vertex_faults)) {
        return refused(StatusCode::kUnsupportedFaultModel,
                       "structure '" + e.name + "' guarantees " +
                           std::string(to_string(e.model)) +
                           " faults only");
      }
      if (!e.exact) {
        return refused(StatusCode::kUnsupportedFaultModel,
                       "structure '" + e.name + "' is approximate (no "
                       "exactness guarantee); retry with best_effort "
                       "consistency");
      }
      return refused(StatusCode::kBudgetExceeded,
                     std::to_string(canon.size()) +
                         " distinct faults exceed budget " +
                         std::to_string(e.budget) + " of structure '" +
                         e.name + "'");
    }
    return complete(pinned, static_cast<std::size_t>(idx), exact);
  }

  // --- point-oracle fast path: O(1) per target, no BFS at all --------------
  if (!has_vertex_faults && canon.edges().size() <= 1 &&
      (req.kind == QueryKind::kDistance ||
       req.kind == QueryKind::kReachability)) {
    const auto it = point_oracles_.find(req.source);
    if (it != point_oracles_.end()) {
      // Const preprocessed tables, no shared serving state: the reads happen
      // in the (unordered) execution tail.
      a.point = &it->second;
      return a;
    }
  }

  // --- structure routing: cheapest entry that serves exactly ---------------
  int best = -1;
  bool saw_source = false;
  bool saw_model = false;   // some entry's model covers AND is exact
  bool saw_inexact = false; // model covers but the entry is approximate
  {
    const std::shared_lock lock(pool_mutex_);
    for (std::size_t i = 1; i < entries_.size(); ++i) {  // 0 = identity
      const Entry& e = entries_[i];
      if (e.source != req.source) continue;
      saw_source = true;
      if (model_covers(e.model, has_edge_faults, has_vertex_faults)) {
        (e.exact ? saw_model : saw_inexact) = true;
      }
      if (!serves_exactly(e, req.source, canon)) continue;
      if (best < 0 ||
          e.edge_count < entries_[static_cast<std::size_t>(best)].edge_count) {
        best = static_cast<int>(i);
      }
    }
  }
  if (best < 0 && config_.lazy_build && !mixed &&
      canon.size() <= config_.max_lazy_budget) {
    const FaultModel model =
        has_vertex_faults ? FaultModel::kVertex : FaultModel::kEdge;
    const unsigned budget = std::max(
        config_.default_budget, static_cast<unsigned>(canon.size()));
    const std::string algo =
        BuilderRegistry::default_builder(budget, model, 1);
    BuildRequest breq;
    breq.graph = g_;
    breq.sources = {req.source};
    breq.fault_budget = budget;
    breq.fault_model = model;
    breq.weight_seed = config_.weight_seed;
    breq.options.jobs = config_.build_jobs;
    if (BuilderRegistry::instance().unsupported_reason(algo, breq).empty()) {
      // Exactly-once under racing requests: the first claimant builds (with
      // no lock held — racing requests for other keys keep flowing), racers
      // block on the cell and reuse the published entry.
      const std::uint64_t pool_key = pack_pool_key(req.source, budget, model);
      const BuildOnceMap::Claim claim = lazy_builds_.claim(pool_key);
      if (claim.owner) {
        int built = -1;
        try {
          {
            // Chaos hook: a lazy build is the largest allocation burst on the
            // serving path; err() here simulates it failing under memory
            // pressure, exercising the kOverloaded refusal below, and sleep()
            // a slow build.
            static fp::Failpoint& fp_build = fp::site("service.build_alloc");
            if (fp::fail_errno(fp_build) != 0) throw std::bad_alloc();
          }
          const BuildResult result =
              BuilderRegistry::instance().build(algo, breq);
          const BuilderTraits* traits =
              BuilderRegistry::instance().find(result.algorithm);
          Entry entry(*g_, result.structure.edges);
          entry.name = algo + "@s" + std::to_string(req.source) + "f" +
                       std::to_string(budget);
          entry.algorithm = result.algorithm;
          entry.source = req.source;
          entry.budget = budget;
          entry.model = model;
          entry.exact = traits == nullptr || traits->exact;
          configure_engine(entry);
          built = static_cast<int>(publish_entry(std::move(entry)));
          counters_.structures_built.fetch_add(1, std::memory_order_relaxed);
        } catch (const std::exception& ex) {
          // Publish the failure so racers wake instead of hanging on the
          // cell, then drop the key so a later request retries the build (a
          // transient failure must not refuse this shape forever). The build
          // failing is a *load* condition — answer kOverloaded, never crash
          // the serving thread.
          BuildOnceMap::publish(*claim.cell, built);
          lazy_builds_.forget(pool_key);
          return refused(StatusCode::kOverloaded,
                         std::string("lazy structure build failed (") +
                             ex.what() + "); retry later");
        }
        BuildOnceMap::publish(*claim.cell, built);
        best = built;
      } else {
        best = BuildOnceMap::wait(*claim.cell);
        if (best < 0) {
          return refused(StatusCode::kOverloaded,
                         "lazy structure build failed in a racing request; "
                         "retry later");
        }
      }
    }
  }
  if (best >= 0) {
    const std::size_t entry = static_cast<std::size_t>(best);
    return complete(&entry_ref(entry), entry, /*exact=*/true);
  }

  // --- no exact backend ----------------------------------------------------
  if (req.consistency == Consistency::kBestEffort) {
    // The identity engine (entry 0) is ground truth.
    return complete(&entry_ref(0), 0, /*exact=*/true);
  }
  if (mixed) {
    return refused(StatusCode::kUnsupportedFaultModel,
                   "no structure guarantees mixed edge+vertex fault sets; "
                   "retry with best_effort consistency");
  }
  if (!saw_source && !config_.lazy_build) {
    return refused(StatusCode::kUnknownSource,
                   "no structure for source " + std::to_string(req.source) +
                       " (lazy build disabled)");
  }
  if (saw_source && !saw_model) {
    return refused(StatusCode::kUnsupportedFaultModel,
                   saw_inexact
                       ? "only approximate structures cover source " +
                             std::to_string(req.source) +
                             " for this fault model; retry with best_effort "
                             "consistency"
                       : "no structure for source " +
                             std::to_string(req.source) +
                             " guarantees this fault model");
  }
  return refused(StatusCode::kBudgetExceeded,
                 std::to_string(canon.size()) +
                     " distinct faults exceed every available structure "
                     "budget; retry with best_effort consistency");
}

QueryResponse OracleService::execute(Admission admission) {
  QueryResponse resp = std::move(admission.resp);
  if (admission.done) return resp;
  const QueryRequest& req = *admission.req;

  if (admission.point != nullptr) {
    const SingleFaultOracle& po = *admission.point;
    const EdgeId down = admission.canon.edges().empty()
                            ? kInvalidEdge
                            : admission.canon.edges()[0];
    std::size_t unreachable = 0;
    for (const Vertex t : req.targets) {
      const std::uint32_t d = down == kInvalidEdge
                                  ? po.distance(t)
                                  : po.distance_avoiding(t, down);
      resp.distances.push_back(d);
      if (req.kind == QueryKind::kReachability) {
        resp.reachable.push_back(d != kInfHops);
      }
      if (d == kInfHops) ++unreachable;
    }
    if (req.kind == QueryKind::kDistance && !req.targets.empty() &&
        unreachable == req.targets.size()) {
      resp.status = StatusCode::kDisconnected;
    }
    resp.exact = true;
    resp.served_by = "point_oracle";
    counters_.point_oracle_served.fetch_add(1, std::memory_order_relaxed);
    counters_.served.fetch_add(1, std::memory_order_relaxed);
    return resp;
  }

  resp.exact = admission.plan.exact;
  fill_payload(admission.plan, req, admission.canon, resp);
  counters_.served.fetch_add(1, std::memory_order_relaxed);
  return resp;
}

}  // namespace ftbfs
