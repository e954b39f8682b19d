#include "persist/service_io.h"

#include <algorithm>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <utility>

#include "engine/registry.h"
#include "spath/bfs.h"

namespace ftbfs {

namespace {

[[noreturn]] void reject(const std::string& why) {
  throw SnapshotError(SnapshotStatus::kMalformed, why);
}

// Validates one baseline image as an exact BFS tree of `h` rooted at its
// source. The snapshot loader checked shapes only; this is where the tree
// meets the actual subgraph, so every id is re-checked against h and the
// distances are certified optimal (for every edge of h, levels differ by at
// most one — the standard BFS certificate) before any engine trusts them.
void validate_baseline(const BaselineImage& b, const Graph& h) {
  const Vertex n = h.num_vertices();
  const Vertex s = b.source;
  if (b.hops[s] != 0 || b.parent[s] != kInvalidVertex ||
      b.parent_edge[s] != kInvalidEdge) {
    reject("baseline source row is not a BFS root");
  }
  Vertex reached = 0;
  for (Vertex v = 0; v < n; ++v) {
    if (b.hops[v] == kInfHops) {
      if (b.parent[v] != kInvalidVertex || b.parent_edge[v] != kInvalidEdge) {
        reject("unreached baseline vertex has a parent");
      }
      continue;
    }
    ++reached;
    if (v == s) continue;
    const Vertex p = b.parent[v];
    const EdgeId pe = b.parent_edge[v];
    if (p >= n || b.hops[p] == kInfHops || b.hops[p] + 1 != b.hops[v]) {
      reject("baseline parent levels are inconsistent");
    }
    if (pe >= h.num_edges()) reject("baseline parent edge out of range");
    const Edge& e = h.edge(pe);
    if (!((e.u == v && e.v == p) || (e.v == v && e.u == p))) {
      reject("baseline parent edge does not join child and parent");
    }
  }
  // Distance optimality: a tree-consistent labeling could still overshoot
  // (levels along a detour); hops are true BFS distances iff no h edge spans
  // more than one level and reachability is edge-closed.
  for (const Edge& e : h.edges()) {
    const std::uint32_t du = b.hops[e.u];
    const std::uint32_t dv = b.hops[e.v];
    if ((du == kInfHops) != (dv == kInfHops)) {
      reject("baseline reachability is not closed under h's edges");
    }
    if (du != kInfHops && (du > dv + 1 || dv > du + 1)) {
      reject("baseline hops are not shortest distances in h");
    }
  }
  if (b.visit_order.size() != reached || b.visit_order.front() != s) {
    reject("baseline visit order does not start at the source or miscounts");
  }
  std::vector<bool> seen(n, false);
  std::uint32_t prev_hops = 0;
  for (const Vertex v : b.visit_order) {
    if (v >= n || seen[v] || b.hops[v] == kInfHops) {
      reject("baseline visit order is not a permutation of reached vertices");
    }
    if (b.hops[v] < prev_hops) {
      reject("baseline visit order is not level-monotone");
    }
    prev_hops = b.hops[v];
    seen[v] = true;
  }
}

}  // namespace

SnapshotImage PersistAccess::export_service(const OracleService& service,
                                            bool include_cache) {
  SnapshotImage image;
  image.graph = *service.g_;
  {
    const std::shared_lock pool_lock(service.pool_mutex_);
    for (std::size_t i = 1; i < service.entries_.size(); ++i) {
      const OracleService::Entry& e = service.entries_[i];
      EntryImage out;
      out.name = e.name;
      out.algorithm = e.algorithm;
      out.source = e.source;
      out.budget = e.budget;
      out.model = e.model;
      out.exact = e.exact;
      out.edges.reserve(static_cast<std::size_t>(e.engine.structure_edges()));
      for (EdgeId id = 0; id < service.g_->num_edges(); ++id) {
        if (e.engine.contains_edge(id)) out.edges.push_back(id);
      }
      image.entries.push_back(std::move(out));
    }
    for (std::size_t i = 0; i < service.entries_.size(); ++i) {
      // const_cast confined to reaching the engine's baseline store mutex;
      // the export only reads.
      auto& engine = const_cast<FaultQueryEngine&>(service.entries_[i].engine);
      FaultQueryEngine::BaselineStore& store = *engine.baselines_;
      const std::shared_lock lock(store.mutex);
      for (const auto& [source, base] : store.entries) {
        BaselineImage out;
        out.entry = static_cast<std::uint32_t>(i);
        out.source = source;
        out.hops = base->tree.hops;
        out.parent = base->tree.parent;
        out.parent_edge = base->tree.parent_edge;
        // rank is the inverse of the visit order; invert it back. Reached
        // count == number of finite ranks == number of finite hops.
        std::size_t reached = 0;
        for (const std::uint32_t r : base->rank) {
          if (r != static_cast<std::uint32_t>(-1)) ++reached;
        }
        out.visit_order.resize(reached);
        for (Vertex v = 0; v < base->rank.size(); ++v) {
          const std::uint32_t r = base->rank[v];
          if (r != static_cast<std::uint32_t>(-1)) out.visit_order[r] = v;
        }
        const Vertex n = service.g_->num_vertices();
        out.preorder_pos.resize(n);
        out.subtree_size.resize(n);
        for (Vertex v = 0; v < n; ++v) {
          out.preorder_pos[v] = base->index.preorder_index(v);
          out.subtree_size[v] = base->index.subtree_size(v);
        }
        image.baselines.push_back(std::move(out));
      }
    }
  }
  if (include_cache) {
    service.cache_.for_each_line(
        [&](std::span<const std::uint32_t> words,
            const ShardedScenarioCache::Line& line) {
          CacheLineImage out;
          out.key_words.assign(words.begin(), words.end());
          out.delta = line.base != nullptr;
          if (out.delta) {
            out.diff = line.diff;
          } else {
            out.hops = line.hops;
          }
          image.cache_lines.push_back(std::move(out));
        });
  }
  return image;
}

void PersistAccess::restore_service(OracleService& service,
                                    const SnapshotImage& image,
                                    bool warm_cache) {
  FTBFS_EXPECTS(service.pool_size() == 1);  // freshly constructed: identity only

  // --- entries, in pool order so indices and names replay exactly ----------
  const BuilderRegistry& registry = BuilderRegistry::instance();
  for (const EntryImage& e : image.entries) {
    if (!e.algorithm.empty()) {
      if (const BuilderTraits* traits = registry.find(e.algorithm)) {
        if (traits->exact != e.exact) {
          reject("entry '" + e.name + "' records algorithm '" + e.algorithm +
                 "' as " + (e.exact ? "exact" : "approximate") +
                 ", but this build's registry declares the opposite");
        }
      }
      // An algorithm this build does not register is allowed: the structure's
      // edges stand on their own, the provenance is just unverifiable here.
    }
    service.publish(OracleService::Entry{.name = e.name,
                                         .algorithm = e.algorithm,
                                         .source = e.source,
                                         .budget = e.budget,
                                         .model = e.model,
                                         .exact = e.exact,
                                         .engine = FaultQueryEngine(
                                             *service.g_, e.edges)},
                    OracleService::NameClash::kAssertUnique);
  }

  // --- baselines: validate against the restored H, then install ------------
  for (const BaselineImage& b : image.baselines) {
    if (b.entry >= service.entries_.size()) {
      reject("baseline names a pool entry the snapshot does not define");
    }
    FaultQueryEngine& engine = service.entries_[b.entry].engine;
    if (!engine.delta_options().enabled) continue;  // nothing would read it
    const Graph& h = engine.structure_graph();
    validate_baseline(b, h);
    BfsResult tree;
    tree.hops = b.hops;
    tree.parent = b.parent;
    tree.parent_edge = b.parent_edge;
    auto built = std::make_unique<FaultQueryEngine::Baseline>(
        h, std::move(tree), b.visit_order, b.source);
    // The stored TreeIndex arrays must agree with the index rebuilt from the
    // tree; a mismatch means the snapshot's sections contradict each other.
    for (Vertex v = 0; v < h.num_vertices(); ++v) {
      if (built->index.preorder_index(v) != b.preorder_pos[v] ||
          built->index.subtree_size(v) != b.subtree_size[v]) {
        reject("baseline tree index disagrees with the stored tree");
      }
    }
    FaultQueryEngine::BaselineStore& store = *engine.baselines_;
    const std::unique_lock lock(store.mutex);
    if (store.entries.size() >= FaultQueryEngine::kMaxBaselines) continue;
    const auto it = std::lower_bound(
        store.entries.begin(), store.entries.end(), b.source,
        [](const auto& entry, Vertex v) { return entry.first < v; });
    if (it != store.entries.end() && it->first == b.source) continue;
    store.entries.emplace(it, b.source, std::move(built));
  }

  // --- optional cache warm --------------------------------------------------
  if (!warm_cache || !service.cache_.enabled()) return;
  for (const CacheLineImage& line : image.cache_lines) {
    const std::size_t entry = line.key_words[0];
    if (entry >= service.entries_.size()) continue;
    const std::vector<std::uint32_t>* base = nullptr;
    if (line.delta) {
      // The diff is relative to the entry engine's per-source baseline
      // vector; resolve it (building the baseline if the snapshot carried
      // none) before reserving the line — a reserved line must be filled.
      base = service.entries_[entry].engine.baseline_hops(line.key_words[1]);
      if (base == nullptr) continue;
    }
    const ScenarioKeyView key{scenario_fingerprint(line.key_words),
                              line.key_words};
    ShardedScenarioCache::LinePtr slot = service.cache_.warm_insert(key);
    if (slot == nullptr) continue;  // present already or slice full
    if (line.delta) {
      ShardedScenarioCache::fill_delta(*slot, base, line.diff);
    } else {
      ShardedScenarioCache::fill(*slot, line.hops);
    }
  }
}

}  // namespace ftbfs
