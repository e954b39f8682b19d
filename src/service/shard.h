// The serving substrate's shared maps, both safe under concurrent callers:
// the lock-striped scenario cache and the lazy-build latch of OracleService.
//
// Design (after the multi-core work-sharing playbook — shard state by key,
// keep the read path cheap, pay exclusive locks only to publish):
//
//   * ShardedScenarioCache — scenario keys hash into N shards, each a
//     `std::shared_mutex` over a key→line map. A cache hit takes only the
//     shard's shared lock (find + a relaxed reference-bit store); exclusive
//     locks are paid only to insert. Lines are handed out as shared_ptrs, so
//     a line being evicted under a reader's feet just loses its map slot —
//     the reader's data stays alive. Eviction is decentralized: each shard
//     owns a CLOCK (second-chance) ring over its own capacity slice, so an
//     over-capacity insert sweeps and evicts entirely inside the shard's own
//     exclusive lock — no global recency clock ticking on every hit, no
//     cross-shard victim scan, no global eviction mutex. Victim choice is
//     approximate LRU, but it is a *deterministic* function of the per-shard
//     probe sequence, so a fixed probe order (single-threaded or sequenced
//     serving) replays the same hit/miss/eviction stream every time — the
//     byte-identical ordered serve mode rests on that. What changed vs the
//     retired global-LRU design: residency now depends on the shard count
//     (each shard caps at ceil(capacity / shards) lines), so hit/miss totals
//     across different shard counts agree only approximately.
//
//   * Keys are packed binary (ScenarioKey): the id words plus a precomputed
//     64-bit fingerprint. Probes pass a non-owning ScenarioKeyView over a
//     caller-reused word buffer — no heap allocation and no re-hashing on
//     the hot admission path; the owning form is materialized only when a
//     miss actually inserts.
//
//   * Lines are delta-compressed (docs/perf.md "Delta cache"): a line whose
//     scenario barely perturbs the entry's fault-free baseline stores just a
//     sorted (vertex, hop) diff against that baseline instead of the full
//     n-length hop vector, so a warm line is O(affected) resident bytes and
//     effective capacity multiplies. Lines whose diff exceeds the caller's
//     threshold (or whose entry has no baseline) keep the full vector — the
//     escape hatch. Readers go through at()/materialize(), which overlay the
//     diff transparently; hit/miss/eviction accounting is representation-
//     independent.
//
//   * A line is inserted *pending* by the prober that will compute it
//     (compute-once latch): concurrent requests for the same scenario find
//     the pending line and block in wait() instead of burning a duplicate
//     BFS; fill() publishes the distances and wakes them.
//
//   * BuildOnceMap — the same compute-once idea for lazily built pool
//     entries, keyed by packed (source, budget, fault model). The first
//     requester claims the cell and builds with no lock held; racers wait on
//     the cell and reuse the published entry index, guaranteeing a structure
//     is built exactly once per key under racing requests. It is claimed
//     only when no pool entry serves a request exactly — about once per key
//     — so it is one mutex over one map, not striped.
//
// Per-shard hit/miss/eviction counters are relaxed atomics aggregated on
// read, so serving stats never take a global lock. Each counter sits on its
// own cache line (and each shard header is cache-line aligned): two workers
// hitting different shards — or one hitting and one missing the same shard —
// must not bounce a shared line between cores just to bump bookkeeping.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "graph/graph.h"

namespace ftbfs {

// Non-owning probe-side scenario key: a span of id words (entry, source,
// projected fault ids — the caller packs them into a reusable buffer) plus
// the fingerprint precomputed over exactly those words.
struct ScenarioKeyView {
  std::uint64_t fingerprint = 0;
  std::span<const std::uint32_t> words;
};

// FNV-1a over the word stream. Deterministic across runs and platforms (the
// shard a key lands in must not depend on libstdc++'s string hash), and
// computed exactly once per probe.
[[nodiscard]] inline std::uint64_t scenario_fingerprint(
    std::span<const std::uint32_t> words) {
  std::uint64_t h = 1469598103934665603ull;
  for (const std::uint32_t w : words) {
    h = (h ^ w) * 1099511628211ull;
  }
  return h;
}

// Owning form stored in the shard maps; built from a view only when a miss
// inserts (equality compares words, the fingerprint is a cheap pre-filter).
struct ScenarioKey {
  std::uint64_t fingerprint = 0;
  std::vector<std::uint32_t> words;
  explicit ScenarioKey(const ScenarioKeyView& view)
      : fingerprint(view.fingerprint),
        words(view.words.begin(), view.words.end()) {}
};

struct ScenarioKeyHash {
  using is_transparent = void;
  // shard_for() consumes the fingerprint's low bits (mod shard count), so
  // the map hash remixes it — otherwise every key within a shard would share
  // its low bits and power-of-two-bucket unordered_map implementations would
  // populate only 1/shard_count of their buckets.
  static std::size_t mix(std::uint64_t x) noexcept {
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdull;
    x ^= x >> 33;
    return static_cast<std::size_t>(x);
  }
  std::size_t operator()(const ScenarioKey& k) const noexcept {
    return mix(k.fingerprint);
  }
  std::size_t operator()(const ScenarioKeyView& k) const noexcept {
    return mix(k.fingerprint);
  }
};

struct ScenarioKeyEq {
  using is_transparent = void;
  static bool eq(std::uint64_t fa, std::span<const std::uint32_t> a,
                 std::uint64_t fb, std::span<const std::uint32_t> b) {
    return fa == fb && a.size() == b.size() &&
           std::equal(a.begin(), a.end(), b.begin());
  }
  bool operator()(const ScenarioKey& a, const ScenarioKey& b) const {
    return eq(a.fingerprint, a.words, b.fingerprint, b.words);
  }
  bool operator()(const ScenarioKeyView& a, const ScenarioKey& b) const {
    return eq(a.fingerprint, a.words, b.fingerprint, b.words);
  }
  bool operator()(const ScenarioKey& a, const ScenarioKeyView& b) const {
    return eq(a.fingerprint, a.words, b.fingerprint, b.words);
  }
};

class ShardedScenarioCache {
 public:
  // One cached scenario: the distances from the entry's source under one
  // canonical (projected) fault set, in one of two representations. `ready`
  // flips exactly once, after the payload is filled by the computing thread.
  //
  //   * full (base == nullptr): `hops` holds the whole vector;
  //   * delta (base != nullptr): `diff` holds (vertex << 32 | hop) entries,
  //     sorted by vertex, for exactly the vertices whose distance differs
  //     from (*base)[vertex]. `base` points at the owning engine's immutable
  //     per-source baseline, which outlives every line.
  //
  // Read through at()/materialize(); never through `hops` directly.
  struct Line {
    const std::vector<std::uint32_t>* base = nullptr;
    std::vector<std::uint32_t> hops;
    std::vector<std::uint64_t> diff;
    std::atomic<bool> ready{false};
    // CLOCK reference bit: set (relaxed, under the shard's *shared* lock) by
    // every touch, cleared by the sweeping hand during eviction (which holds
    // the shard's exclusive lock, so no touch races the clear). Replaces the
    // retired global recency clock — a hit no longer contends on anything
    // shared beyond its own line.
    std::atomic<bool> referenced{false};
    std::mutex mutex;
    std::condition_variable ready_cv;
  };
  using LinePtr = std::shared_ptr<Line>;

  struct Probe {
    LinePtr line;       // null: miss without reservation (or cache disabled)
    bool hit = false;   // found (possibly still pending — wait() before use)
    bool owner = false; // this caller reserved the line and must fill() it
  };

  // Capacity is sliced across the shards: each shard caps its own line count
  // at ceil(capacity / shards) and evicts within that slice, so the resident
  // total stays within one shard-rounding of `capacity` while eviction never
  // leaves the shard whose insert went over. (256 lines over the default 8
  // shards = exactly 32 per shard.)
  ShardedScenarioCache(std::size_t capacity, unsigned shard_count)
      : capacity_(capacity),
        shards_(capacity == 0 ? 1 : std::max(1u, shard_count)) {
    shard_capacity_ =
        capacity == 0
            ? 0
            : std::max<std::size_t>(1, (capacity + shards_.size() - 1) /
                                           shards_.size());
  }

  [[nodiscard]] bool enabled() const { return capacity_ > 0; }

  // Looks `key` up; a hit sets the line's reference bit under the shard's
  // *shared* lock. On a miss with `reserve`, inserts a pending line
  // (probe.owner == true; the caller must fill() it — waiters are blocked on
  // it), evicting within the shard if its capacity slice is full. A miss
  // without `reserve` leaves the cache untouched (the single-target fast
  // path, where an early-exit BFS beats computing a full line).
  Probe probe(const ScenarioKeyView& key, bool reserve) {
    Probe out;
    if (!enabled()) return out;
    Shard& shard = shard_for(key);
    {
      const std::shared_lock lock(shard.mutex);
      const auto it = shard.lines.find(key);
      // A ready line with an empty payload is the poison a failed computer
      // left behind (real distance vectors are never empty) — treat it as a
      // miss so the reservation path below can swap in a fresh line.
      if (it != shard.lines.end() && !is_poisoned(*it->second)) {
        it->second->referenced.store(true, std::memory_order_relaxed);
        shard.hits.value.fetch_add(1, std::memory_order_relaxed);
        out.line = it->second;
        out.hit = true;
        return out;
      }
    }
    shard.misses.value.fetch_add(1, std::memory_order_relaxed);
    if (!reserve) return out;
    {
      const std::unique_lock lock(shard.mutex);
      const auto it = shard.lines.find(key);
      if (it != shard.lines.end() && is_poisoned(*it->second)) {
        // Repair: replace the poisoned line with a fresh pending one and
        // make this prober its computer. Size is unchanged (a swap, not an
        // insert; the clock ring's slot pointer stays valid because the map
        // node is untouched); old waiters still hold their shared_ptr.
        it->second = std::make_shared<Line>();
        it->second->referenced.store(true, std::memory_order_relaxed);
        out.line = it->second;
        out.owner = true;
        return out;
      }
      if (it != shard.lines.end()) {
        // Another thread reserved this scenario between our two locks; it is
        // their BFS to run and our line to wait on. Reclassify the miss
        // counted above as the hit this probe turned into, so the counters
        // keep agreeing with the per-response cache_hit flags (exactly one
        // miss per computed line).
        shard.misses.value.fetch_sub(1, std::memory_order_relaxed);
        shard.hits.value.fetch_add(1, std::memory_order_relaxed);
        it->second->referenced.store(true, std::memory_order_relaxed);
        out.line = it->second;
        out.hit = true;
        return out;
      }
      if (shard.lines.size() >= shard_capacity_) {
        // The shard's slice is full: sweep its clock hand for a victim (first
        // line whose reference bit is already clear, clearing bits as it
        // passes — each resident line gets one second chance per sweep),
        // evict it, and hand its ring slot to the incoming line. Everything
        // happens under this shard's exclusive lock; other shards keep
        // serving.
        const std::size_t slot = sweep_for_victim(shard);
        shard.lines.erase(shard.ring[slot]->first);
        shard.evictions.value.fetch_add(1, std::memory_order_relaxed);
        const auto [ins, inserted] = shard.lines.try_emplace(
            ScenarioKey(key), std::make_shared<Line>());
        shard.ring[slot] = &*ins;
        shard.hand = (slot + 1) % shard.ring.size();
        out.line = ins->second;
        out.owner = true;
        return out;
      }
      // Genuine insert below capacity: the only point the owning key is
      // materialized (one allocation, on a path that is about to pay a BFS
      // anyway). Ring slots point at map nodes, which never move. New lines
      // start with a clear reference bit — only *subsequent* hits count as
      // recency, so a line probed again after insertion outlives one that
      // never was (the inserting thread reads through its own shared_ptr
      // and needs no residency grace).
      const auto [ins, inserted] =
          shard.lines.try_emplace(ScenarioKey(key), std::make_shared<Line>());
      shard.ring.push_back(&*ins);
      out.line = ins->second;
      out.owner = true;
      size_.fetch_add(1, std::memory_order_relaxed);
    }
    return out;
  }

  // Publishes the full distance vector and wakes every waiter. Called exactly
  // once per line, by the prober that owned the reservation. An empty vector
  // is the poison a failed computer publishes so waiters recompute locally.
  static void fill(Line& line, std::vector<std::uint32_t> hops) {
    {
      const std::lock_guard lock(line.mutex);
      line.hops = std::move(hops);
      line.ready.store(true, std::memory_order_release);
    }
    line.ready_cv.notify_all();
  }

  // Publishes the delta representation: `diff` holds (vertex << 32 | hop)
  // entries sorted by vertex for exactly the vertices whose distance differs
  // from (*base)[vertex]; `base` must outlive the cache. Same fill-exactly-
  // once contract as fill().
  static void fill_delta(Line& line, const std::vector<std::uint32_t>* base,
                         std::vector<std::uint64_t> diff) {
    {
      const std::lock_guard lock(line.mutex);
      line.base = base;
      line.diff = std::move(diff);
      line.ready.store(true, std::memory_order_release);
    }
    line.ready_cv.notify_all();
  }

  // Blocks until the computing thread fills the line; read the payload with
  // poisoned()/at()/materialize() afterwards. The payload is valid while the
  // caller holds a LinePtr to the line.
  static void wait(Line& line) {
    if (!line.ready.load(std::memory_order_acquire)) {
      std::unique_lock lock(line.mutex);
      line.ready_cv.wait(
          lock, [&] { return line.ready.load(std::memory_order_acquire); });
    }
  }

  // True for the empty full-form payload a failed computer left behind.
  // Valid only after wait().
  [[nodiscard]] static bool poisoned(const Line& line) {
    return line.base == nullptr && line.hops.empty();
  }

  // Distance of one vertex from the line's payload (binary search of the
  // diff in the delta form). Valid only after wait(), on a non-poisoned line.
  [[nodiscard]] static std::uint32_t at(const Line& line, Vertex v) {
    if (line.base == nullptr) return line.hops[v];
    const std::uint64_t probe = static_cast<std::uint64_t>(v) << 32;
    const auto it =
        std::lower_bound(line.diff.begin(), line.diff.end(), probe);
    if (it != line.diff.end() && (*it >> 32) == v) {
      return static_cast<std::uint32_t>(*it);
    }
    return (*line.base)[v];
  }

  // The full distance vector of the line: baseline overlaid with the diff
  // (delta form) or a straight copy (full form). Valid only after wait(), on
  // a non-poisoned line.
  static void materialize(const Line& line, std::vector<std::uint32_t>& out) {
    if (line.base == nullptr) {
      out = line.hops;
      return;
    }
    out = *line.base;
    for (const std::uint64_t packed : line.diff) {
      out[packed >> 32] = static_cast<std::uint32_t>(packed);
    }
  }

  // Resident payload bytes of one line (0 while pending).
  [[nodiscard]] static std::size_t payload_bytes(const Line& line) {
    return line.hops.size() * sizeof(std::uint32_t) +
           line.diff.size() * sizeof(std::uint64_t);
  }

  [[nodiscard]] std::size_t size() const {
    return size_.load(std::memory_order_relaxed);
  }

  // Visits every ready, non-poisoned line (key words + payload) under one
  // shard's shared lock at a time. Snapshot-export path (src/persist/): the
  // traversal order is per-shard insertion order, which is deterministic for
  // a fixed probe history. `fn(words, line)`.
  template <typename Fn>
  void for_each_line(Fn&& fn) const {
    for (const Shard& s : shards_) {
      const std::shared_lock lock(s.mutex);
      for (const auto& [key, line] : s.lines) {
        if (line->ready.load(std::memory_order_acquire) && !poisoned(*line)) {
          fn(std::span<const std::uint32_t>(key.words), *line);
        }
      }
    }
  }

  // Inserts a line for `key` without waking the serving counters: no hit or
  // miss is recorded, nothing is ever evicted to make room, and the caller
  // must fill()/fill_delta() the returned line before traffic starts.
  // Snapshot-restore path (cache warming happens before the first request,
  // so the counter stream the golden replay checks stays untouched). Returns
  // null when the cache is disabled, the key is already present, or the
  // shard's capacity slice is full (warming never displaces anything).
  LinePtr warm_insert(const ScenarioKeyView& key) {
    if (!enabled()) return nullptr;
    Shard& shard = shard_for(key);
    const std::unique_lock lock(shard.mutex);
    if (shard.lines.find(key) != shard.lines.end()) return nullptr;
    if (shard.lines.size() >= shard_capacity_) return nullptr;
    const auto [ins, inserted] =
        shard.lines.try_emplace(ScenarioKey(key), std::make_shared<Line>());
    shard.ring.push_back(&*ins);
    size_.fetch_add(1, std::memory_order_relaxed);
    return ins->second;
  }

  // Payload bytes currently resident across every line, by scan (stats-path
  // only; one shard lock at a time, never two). Pending lines count as 0.
  [[nodiscard]] std::size_t total_resident_bytes() const {
    std::size_t total = 0;
    for (const Shard& s : shards_) {
      const std::shared_lock lock(s.mutex);
      for (const auto& [key, line] : s.lines) {
        if (line->ready.load(std::memory_order_acquire)) {
          total += payload_bytes(*line);
        }
      }
    }
    return total;
  }
  [[nodiscard]] std::uint64_t total_hits() const {
    return sum(&Shard::hits);
  }
  [[nodiscard]] std::uint64_t total_misses() const {
    return sum(&Shard::misses);
  }
  [[nodiscard]] std::uint64_t total_evictions() const {
    return sum(&Shard::evictions);
  }

 private:
  // A relaxed counter alone on its cache line: hits, misses, and evictions
  // are bumped from different code paths by different workers, and packing
  // them adjacently would bounce one line between cores for three logically
  // independent counters.
  struct alignas(64) PaddedCounter {
    std::atomic<std::uint64_t> value{0};
  };

  // The shard header itself is cache-line aligned so two shards never share
  // a line (one worker's exclusive-lock insert must not stall another
  // worker's shared-lock hit on the neighboring shard).
  struct alignas(64) Shard {
    mutable std::shared_mutex mutex;  // stats-path scans lock a const shard
    std::unordered_map<ScenarioKey, LinePtr, ScenarioKeyHash, ScenarioKeyEq>
        lines;
    // CLOCK ring: one slot per resident line, pointing at the map node (the
    // map is node-based, so pointers survive rehashes; only erase moves a
    // line out, and erase always recycles the slot in the same breath).
    std::vector<const std::pair<const ScenarioKey, LinePtr>*> ring;
    std::size_t hand = 0;  // next ring slot the eviction sweep examines
    PaddedCounter hits;
    PaddedCounter misses;
    PaddedCounter evictions;
  };

  Shard& shard_for(const ScenarioKeyView& key) {
    return shards_[key.fingerprint % shards_.size()];
  }

  static bool is_poisoned(const Line& line) {
    return line.ready.load(std::memory_order_acquire) && poisoned(line);
  }

  // Second-chance sweep, called with the shard's exclusive lock held and the
  // ring full: advance the hand, clearing reference bits, until a line whose
  // bit was already clear turns up — that slot is the victim. Terminates in
  // at most two passes (the first pass clears every bit, and no concurrent
  // touch can re-set one while we hold the exclusive lock), and the choice
  // is a pure function of the shard's probe history, so a fixed probe order
  // replays identical evictions.
  static std::size_t sweep_for_victim(Shard& shard) {
    for (;;) {
      const std::size_t slot = shard.hand;
      shard.hand = (shard.hand + 1) % shard.ring.size();
      Line& line = *shard.ring[slot]->second;
      if (!line.referenced.exchange(false, std::memory_order_relaxed)) {
        return slot;
      }
    }
  }

  std::uint64_t sum(PaddedCounter Shard::* counter) const {
    std::uint64_t total = 0;
    for (const Shard& s : shards_) {
      total += (s.*counter).value.load(std::memory_order_relaxed);
    }
    return total;
  }

  std::size_t capacity_;
  std::vector<Shard> shards_;
  std::size_t shard_capacity_;  // per-shard slice: max(1, ceil(cap/shards))
  std::atomic<std::size_t> size_{0};
};

// Exactly-once lazy builds: maps a pool key to the entry index that serves
// it, with a latch for the build in progress. claim() decides who builds;
// publish()/wait() hand the entry index to the racers.
class BuildOnceMap {
 public:
  struct Cell {
    std::mutex mutex;
    std::condition_variable done_cv;
    bool done = false;
    int entry = -1;  // pool entry index; -1 = build never published
  };
  using CellPtr = std::shared_ptr<Cell>;

  struct Claim {
    CellPtr cell;
    bool owner = false;  // this caller must build and publish()
  };

  // First claimant of a key becomes the owner (and must publish, even on
  // failure, or racers hang); everyone else shares the owner's cell.
  Claim claim(std::uint64_t key) {
    const std::lock_guard lock(mutex_);
    const auto [it, inserted] = cells_.try_emplace(key);
    if (inserted) it->second = std::make_shared<Cell>();
    return Claim{it->second, inserted};
  }

  static void publish(Cell& cell, int entry) {
    {
      const std::lock_guard lock(cell.mutex);
      cell.entry = entry;
      cell.done = true;
    }
    cell.done_cv.notify_all();
  }

  // Entry index for the key, blocking until the owner publishes. -1 means
  // the owner could not build (the caller falls through to its refusal
  // path, exactly as if the key had never been claimable).
  static int wait(Cell& cell) {
    std::unique_lock lock(cell.mutex);
    cell.done_cv.wait(lock, [&] { return cell.done; });
    return cell.entry;
  }

  // Drops the key so the next claim starts fresh. The failure path: publish
  // -1 first (wakes the current waiters into their refusal paths), then
  // forget, so the next request re-attempts the build instead of being
  // refused forever on a transient failure.
  void forget(std::uint64_t key) {
    const std::lock_guard lock(mutex_);
    cells_.erase(key);
  }

 private:
  std::mutex mutex_;
  std::unordered_map<std::uint64_t, CellPtr> cells_;
};

}  // namespace ftbfs
