#include "persist/service_io.h"

#include <shared_mutex>
#include <utility>

#include "engine/registry.h"

namespace ftbfs {

namespace {

[[noreturn]] void reject(const std::string& why) {
  throw SnapshotError(SnapshotStatus::kMalformed, why);
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
    const std::size_t index = service.publish(
        OracleService::Entry{.name = e.name,
                             .algorithm = e.algorithm,
                             .source = e.source,
                             .budget = e.budget,
                             .model = e.model,
                             .exact = e.exact,
                             .engine = FaultQueryEngine(*service.g_, e.edges)},
        OracleService::NameClash::kAssertUnique);
    // The same fault-free BFS a cold server runs on its first query from the
    // source, run now so the loaded pool answers its first request on the
    // fast or repair path.
    (void)service.engine(index).baseline_hops(e.source);
  }

  // --- optional cache warm --------------------------------------------------
  if (!warm_cache || !service.cache_.enabled()) return;
  for (const CacheLineImage& line : image.cache_lines) {
    const std::size_t entry = line.key_words[0];
    if (entry >= service.entries_.size()) continue;
    const std::vector<std::uint32_t>* base = nullptr;
    if (line.delta) {
      // The diff is relative to the entry engine's per-source baseline
      // vector; resolve it (building the baseline if restore has not) before
      // reserving the line — a reserved line must be filled.
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
