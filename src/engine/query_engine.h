// FaultQueryEngine — the one batched query core every consumer routes through.
//
// The library's query-side consumers (OracleService's pool entries, the
// verifiers, the failure simulator, the CLI `query` subcommand, the query
// benches) all used to carry the same three pieces of private plumbing: a
// g→H edge-id translation table, epoch-mask scratch over H, and a masked BFS.
// This class owns all three once. It serves exact distances/paths from a
// subgraph H ⊆ G (an FT-BFS structure, an overlay, or G itself) under a fault
// set expressed in *host-graph* ids — edge faults are translated to H ids
// (faults absent from H cannot affect distances inside H and are dropped),
// vertex faults share ids between G and H.
//
// Batched queries (`batch`) run one tier-dispatched query per fault set on
// one leased (mask, BFS) scratch slot, so no allocation or sharing happens on
// the hot path.
// This is the serving substrate the ROADMAP's sensitivity-oracle/service line
// builds on: a fault set is a "scenario", a batch is a scenario sweep.
//
// Concurrent callers (OracleService workers, threaded `ftbfs serve`) lease
// scratch explicitly: acquire_scratch() checks a slot out of the pool under a
// mutex, the lease-taking query overloads run on that slot with no shared
// state, and the lease returns the slot on destruction. The lease-free
// single-query API keeps its historical "serial scratch, results borrowed
// until the next query" contract on the reserved slot 0 and must not be
// called from two threads at once.
//
// Fault-delta query path (docs/perf.md): a small fault set perturbs only a
// small region of the BFS tree — that is the paper's whole point — so the
// engine precomputes, once per source, the fault-free *baseline* BFS over H
// (distances, parent tree, Euler-tour subtree intervals). Per query the
// canonical fault set is classified against that tree:
//   * no fault touches a baseline tree edge (or a reached faulted vertex) →
//     the masked BFS would retrace the baseline exactly; answer straight from
//     the baseline arrays, parents included (fast_path_hits);
//   * faults hit tree edges → only the descendants of the cut points can
//     change; mark those subtree intervals in an epoch-stamped affected
//     bitmap and run a *repair BFS* seeded from the unaffected boundary,
//     bounded to the affected region (repair_bfs);
//   * the affected region exceeds delta_options().max_affected_fraction →
//     the bounded repair would approach a full sweep anyway; fall back to the
//     plain masked BFS (full_bfs).
// Hops from every path are bit-identical to the full masked BFS. The repair
// BFS also reconstructs parents and parent edges inside the affected region
// (unaffected vertices keep their baseline parents), so every API — query,
// distance, shortest_path, all_distances, batch — routes through one private
// dispatcher (answer()) that makes this choice.
// Repair parents form a valid shortest-path tree of H ∖ F with the same hop
// counts as the full BFS; the specific parent among equal-hop candidates may
// differ from the full run's (BFS parentage depends on queue order, which a
// bounded repair cannot reproduce), with the baseline discovery rank as the
// tie-break so choices track the full BFS in the common case.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <span>
#include <vector>

#include "core/ftbfs_common.h"
#include "graph/graph.h"
#include "graph/mask.h"
#include "spath/bfs.h"
#include "spath/path.h"
#include "spath/tree_index.h"

namespace ftbfs {

class CanonicalFaultSet;

// A fault set for one query: edge ids of the host graph, plus vertex ids.
// Either span may be empty; both kinds may be mixed in one query. This is a
// non-owning view — the referenced id arrays must outlive the query (and, for
// `batch`, the whole batch call).
struct FaultSpec {
  std::span<const EdgeId> edges{};
  std::span<const Vertex> vertices{};

  // Raw id count, duplicates included. Budget checks must not use this —
  // {e, e} is one fault, not two; use canonicalize().size() instead.
  [[nodiscard]] std::size_t size() const {
    return edges.size() + vertices.size();
  }

  // Owning canonical form: ids sorted and deduplicated per kind.
  [[nodiscard]] CanonicalFaultSet canonicalize() const;
};

// The canonical (sorted, deduplicated) owning form of a FaultSpec. Two fault
// sets describe the same scenario iff their canonical forms are equal, which
// makes this the unit of budget accounting and of scenario-cache keying.
class CanonicalFaultSet {
 public:
  CanonicalFaultSet() = default;

  // Refills from `faults`; buffers are reused, so a CanonicalFaultSet held in
  // per-query scratch performs no steady-state allocation.
  void assign(const FaultSpec& faults);

  [[nodiscard]] std::span<const EdgeId> edges() const { return edges_; }
  [[nodiscard]] std::span<const Vertex> vertices() const { return vertices_; }

  // View of the canonical ids (valid until the next assign()).
  [[nodiscard]] FaultSpec spec() const { return FaultSpec{edges_, vertices_}; }

  // Number of *distinct* faulted components — the count budget checks use.
  [[nodiscard]] std::size_t size() const {
    return edges_.size() + vertices_.size();
  }

 private:
  std::vector<EdgeId> edges_;
  std::vector<Vertex> vertices_;
};

// Convenience factories so call sites stay terse.
[[nodiscard]] inline FaultSpec edge_faults(std::span<const EdgeId> edges) {
  return FaultSpec{edges, {}};
}
[[nodiscard]] inline FaultSpec vertex_faults(std::span<const Vertex> vertices) {
  return FaultSpec{{}, vertices};
}

class FaultQueryEngine {
 public:
  // Serves queries from the subgraph H = (V(g), h_edges). Fault/query ids in
  // the public API always refer to g; the engine owns the translation.
  FaultQueryEngine(const Graph& g, std::span<const EdgeId> h_edges);

  // Identity engine: serves queries from g itself (ground truth, baselines).
  // No materialization or translation; masks apply host ids directly.
  explicit FaultQueryEngine(const Graph& g);

  // Convenience: engine over a built FT-BFS structure.
  FaultQueryEngine(const Graph& g, const FtStructure& h)
      : FaultQueryEngine(g, std::span<const EdgeId>(h.edges)) {}

  FaultQueryEngine(FaultQueryEngine&&) noexcept;
  FaultQueryEngine& operator=(FaultQueryEngine&&) noexcept;

  // --- single-query API (serial scratch; results borrowed until next query) -

  // Full BFS result from `source` in H ∖ faults; exposes parents for path
  // reconstruction.
  const BfsResult& query(Vertex source, const FaultSpec& faults);

  // Exact hop distance source→target in H ∖ faults (kInfHops if
  // disconnected). Runs an early-exit BFS: only the ball around the target
  // is explored.
  [[nodiscard]] std::uint32_t distance(Vertex source, Vertex target,
                                       const FaultSpec& faults);

  // Shortest source→target path in H ∖ faults (vertex ids of g), or nullopt.
  [[nodiscard]] std::optional<Path> shortest_path(Vertex source, Vertex target,
                                                  const FaultSpec& faults);

  // Distances to every vertex under one fault set (one full BFS).
  [[nodiscard]] const std::vector<std::uint32_t>& all_distances(
      Vertex source, const FaultSpec& faults);

  // --- concurrent API (leased scratch; thread-safe) -------------------------

 private:
  struct Scratch;  // declared below; leases carry a stable pointer to one

 public:
  // RAII checkout of one (mask, BFS, canon) scratch slot. Results returned by
  // the lease-taking overloads below are borrowed from the slot and stay
  // valid while the lease lives; concurrent leases never share state. The
  // lease resolves its slot to a stable Scratch* under the pool mutex at
  // acquire time, so later pool growth cannot move it.
  class ScratchLease {
   public:
    ScratchLease(ScratchLease&& o) noexcept
        : owner_(o.owner_), scratch_(o.scratch_), slot_(o.slot_) {
      o.owner_ = nullptr;
    }
    ScratchLease& operator=(ScratchLease&&) = delete;
    ScratchLease(const ScratchLease&) = delete;
    ~ScratchLease() {
      if (owner_ != nullptr) owner_->release_scratch(slot_);
    }

   private:
    friend class FaultQueryEngine;
    ScratchLease(FaultQueryEngine* owner, Scratch* scratch, std::size_t slot)
        : owner_(owner), scratch_(scratch), slot_(slot) {}
    FaultQueryEngine* owner_;
    Scratch* scratch_;
    std::size_t slot_;
  };

  // Checks a slot out of the pool (growing it on first contention beyond its
  // high-water mark); O(1) amortized, one mutex acquisition.
  [[nodiscard]] ScratchLease acquire_scratch();

  // Thread-safe counterparts of the single-query API: identical answers,
  // scratch taken from the lease instead of the shared serial slot.
  const BfsResult& query(ScratchLease& lease, Vertex source,
                         const FaultSpec& faults);
  [[nodiscard]] std::uint32_t distance(ScratchLease& lease, Vertex source,
                                       Vertex target, const FaultSpec& faults);
  [[nodiscard]] std::optional<Path> shortest_path(ScratchLease& lease,
                                                  Vertex source, Vertex target,
                                                  const FaultSpec& faults);
  [[nodiscard]] const std::vector<std::uint32_t>& all_distances(
      ScratchLease& lease, Vertex source, const FaultSpec& faults);

  // Where the hops of the last distance/all_distances answer on `lease` may
  // differ from baseline_hops(source): empty after the fast path, the repair
  // BFS's affected region after a repair (a superset of the changed
  // vertices, unsorted), nullopt after a full BFS (delta disabled, threshold
  // fallback, faulted source) or any other query — the caller must then
  // compare every vertex. Valid until the next query on the lease.
  [[nodiscard]] static std::optional<std::span<const Vertex>> repaired_region(
      const ScratchLease& lease);

  // --- batched API ----------------------------------------------------------

  // One distance matrix: result[i * targets.size() + j] is the distance
  // source→targets[j] in H ∖ fault_sets[i]. Each fault set is one query on
  // the calling thread: the fast path, a repair bounded to the affected
  // region, or an early-exit BFS that stops once all targets are settled.
  [[nodiscard]] std::vector<std::uint32_t> batch(
      Vertex source, std::span<const FaultSpec> fault_sets,
      std::span<const Vertex> targets);

  // --- delta-path configuration & counters ----------------------------------

  struct DeltaOptions {
    // Master switch; off = every query runs the pre-delta full masked BFS
    // (benchmark baseline, property-test oracle).
    bool enabled = true;
    // Repair-vs-full fallback: once the affected region exceeds this fraction
    // of H's vertices, marking + bounded repair stops paying for itself and
    // the query falls back to the plain masked BFS. bench_micro's
    // BM_RepairVsFullBySubtree sweep documents where the crossover sits.
    double max_affected_fraction = 0.5;
  };

  // How queries were answered (relaxed counters, safe to read under load):
  // fast_path_hits = served from the baseline arrays with no BFS at all,
  // repair_bfs = bounded repair BFS over the affected region, full_bfs =
  // full masked BFS (delta disabled, baseline cap, threshold fallback, or
  // faulted source). Every query moves exactly one of the three.
  struct PathStats {
    std::uint64_t fast_path_hits = 0;
    std::uint64_t repair_bfs = 0;
    std::uint64_t full_bfs = 0;
  };

  // Not thread-safe: configure before the engine starts serving queries.
  void set_delta_options(DeltaOptions options) { delta_ = options; }
  [[nodiscard]] DeltaOptions delta_options() const { return delta_; }

  // Stable pointer to the fault-free baseline hop vector for `source`,
  // building the baseline on first use; nullptr when the delta path is
  // disabled or the per-engine baseline cap is reached. Baselines are
  // immutable and never evicted, so the pointer stays valid for the engine's
  // lifetime — the service's delta-compressed scenario cache stores lines as
  // diffs against exactly this vector, reading only the repaired_region() of
  // the answer it compresses. Thread-safe.
  [[nodiscard]] const std::vector<std::uint32_t>* baseline_hops(Vertex source);
  [[nodiscard]] PathStats path_stats() const {
    return PathStats{fast_path_hits_.load(std::memory_order_relaxed),
                     repair_bfs_.load(std::memory_order_relaxed),
                     full_bfs_.load(std::memory_order_relaxed)};
  }

  // --- introspection --------------------------------------------------------

  [[nodiscard]] const Graph& host() const { return *g_; }
  [[nodiscard]] const Graph& structure_graph() const { return *h_; }
  [[nodiscard]] std::uint64_t structure_edges() const {
    return h_->num_edges();
  }
  [[nodiscard]] bool is_identity() const { return h_ == g_; }
  // True if G edge `g_edge` is an edge of H (every edge, for identity).
  [[nodiscard]] bool contains_edge(EdgeId g_edge) const {
    return g_to_h_.empty() || g_to_h_[g_edge] != kInvalidEdge;
  }
  [[nodiscard]] std::uint64_t queries_answered() const {
    return queries_.load(std::memory_order_relaxed);
  }

 private:
  // Tier-0 precompute for one source: the fault-free BFS over H plus the
  // subtree indexing the per-query classification runs on. Immutable once
  // published; built lazily on the first query from that source.
  struct Baseline {
    BfsResult tree;                  // hops/parent/parent_edge over H
    TreeIndex index;                 // Euler intervals + preorder slices
    std::vector<Vertex> tree_child;  // H edge id → deeper endpoint of the
                                     // tree edge; kInvalidVertex = non-tree
    // Baseline BFS discovery rank (queue position; ~0u = unreached). The
    // repair BFS breaks parent ties toward the lowest rank — the neighbor
    // the full masked BFS would usually scan first.
    std::vector<std::uint32_t> rank;
    Baseline(const Graph& h, BfsResult t, std::span<const Vertex> visit_order,
             Vertex source);
  };

  struct Scratch {
    GraphMask mask;
    Bfs bfs;
    CanonicalFaultSet canon;  // reused per-query canonicalization buffer
    // --- delta-path scratch (all buffers persist across queries) -----------
    std::vector<Vertex> impacts;          // cut points of this fault set
    // 64-bit like Bfs's target stamps: a serving process can plausibly push
    // a 32-bit per-scratch clock to wraparound, and a stale-epoch collision
    // here would silently mis-classify vertices as affected.
    std::vector<std::uint64_t> affected_epoch;  // epoch-stamped membership
    std::uint64_t affected_clock = 0;
    std::vector<Vertex> affected;       // current affected vertex list
    std::vector<Vertex> prev_affected;  // repair entries to restore
    // Vertices the last answer() may change vs. the baseline; nullopt
    // = unknown (full BFS). Reset by apply_faults. See repaired_region().
    std::optional<std::span<const Vertex>> region;
    BfsResult repair;  // output of the repair BFS: hops + parents + edges
    const Baseline* repair_synced = nullptr;  // baseline `repair` mirrors
    std::vector<std::vector<Vertex>> buckets;  // Dial queue, keyed by hops
    explicit Scratch(const Graph& h)
        : mask(h), bfs(h), affected_epoch(h.num_vertices(), 0) {
      impacts.reserve(8);
      affected.reserve(h.num_vertices());
      prev_affected.reserve(h.num_vertices());
    }
  };

  // Slot storage plus the free list leases draw from. Heap-allocated as one
  // block so the engine stays movable despite the mutex.
  struct ScratchPool {
    std::mutex mutex;
    std::vector<std::unique_ptr<Scratch>> slots;  // slot 0 = serial scratch
    std::vector<std::size_t> free_list;           // never contains slot 0
  };

  // Baselines keyed by source, append-only, behind a shared mutex so the
  // per-query lookup is one shared lock. Heap-allocated as one block (like
  // the scratch pool) so the engine stays movable despite the mutex. Capped:
  // a caller sweeping hundreds of sources (verifiers over big graphs) should
  // not turn the engine into an all-pairs table, so sources beyond the cap
  // simply take the full-BFS path.
  struct BaselineStore {
    std::shared_mutex mutex;
    // Sorted by source; small (kMaxBaselines), so binary search beats a map.
    std::vector<std::pair<Vertex, std::unique_ptr<Baseline>>> entries;
  };
  static constexpr std::size_t kMaxBaselines = 64;

  // Canonicalizes `faults` into `s.canon`, then resets `s.mask` and applies
  // the distinct ids (host ids) to it.
  void apply_faults(Scratch& s, const FaultSpec& faults) const;

  [[nodiscard]] Scratch& scratch(std::size_t slot);
  void release_scratch(std::size_t slot);

  // Tier 0: the baseline for `source`, built on first use; nullptr when the
  // delta path is disabled or the baseline cap is reached.
  [[nodiscard]] const Baseline* baseline_for(Vertex source);

  // Classification of one canonical fault set against a baseline tree.
  enum class Damage {
    kNone,           // no tree edge cut, no reached vertex faulted
    kSubtrees,       // cut points collected in s.impacts
    kSourceBlocked,  // the source itself is faulted
  };
  [[nodiscard]] Damage classify(Scratch& s, const Baseline& base,
                                Vertex source) const;

  // Tier 1: the repaired BFS tree (hops + parents + parent edges) under the
  // fault set already applied to s.mask, or nullptr when the caller must run
  // the full masked BFS (threshold exceeded). When `targets` is non-empty and
  // none of them lands in the affected region, the repair BFS is skipped —
  // their baseline distances *and root paths* are provably unchanged, so the
  // untouched baseline tree is returned. On return *from_baseline says
  // whether that happened (no repair BFS ran).
  [[nodiscard]] const BfsResult* repair(Scratch& s, const Baseline& base,
                                        std::span<const Vertex> targets,
                                        bool* from_baseline);

  // The one tier choice every query routes through: applies the faults,
  // picks the baseline / repair / full path for `targets` (empty = all
  // vertices), bumps the matching counter and sets s.region. Returns the
  // answering BFS tree, borrowed from the baseline or from `s`.
  [[nodiscard]] const BfsResult& answer(Scratch& s, Vertex source,
                                        const FaultSpec& faults,
                                        std::span<const Vertex> targets);

  const BfsResult& query_in(Scratch& s, Vertex source, const FaultSpec& faults);
  std::uint32_t distance_in(Scratch& s, Vertex source, Vertex target,
                            const FaultSpec& faults);
  std::optional<Path> shortest_path_in(Scratch& s, Vertex source, Vertex target,
                                       const FaultSpec& faults);

  const Graph* g_;
  std::unique_ptr<Graph> h_owned_;  // null for the identity engine
  const Graph* h_;                  // == g_ or h_owned_.get(); address-stable
  std::vector<EdgeId> g_to_h_;      // empty for the identity engine
  std::unique_ptr<ScratchPool> pool_;
  std::unique_ptr<BaselineStore> baselines_;
  DeltaOptions delta_{};
  std::atomic<std::uint64_t> queries_{0};
  std::atomic<std::uint64_t> fast_path_hits_{0};
  std::atomic<std::uint64_t> repair_bfs_{0};
  std::atomic<std::uint64_t> full_bfs_{0};
};

}  // namespace ftbfs
