// PersistAccess — the bridge between a live OracleService and a SnapshotImage.
//
// Export walks the service's structure pool and (optionally) the ready lines
// of the scenario cache, producing the portable image src/persist/snapshot.h
// serializes. Restore replays an image into a freshly constructed service:
// entries are re-added in pool order (so entry indices, names, and routing —
// everything the wire protocol's `served_by` and the cache keys depend on —
// come back byte-identical), each entry's baseline BFS tree for its source is
// rebuilt, and cache lines can pre-warm the scenario cache.
//
// This struct is the one friend of OracleService the persistence layer gets;
// keeping the access surface to a single named type means the service's
// internals stay private to everything else.
#pragma once

#include "persist/snapshot.h"
#include "service/oracle_service.h"

namespace ftbfs {

struct PersistAccess {
  // Captures the service's current pool (entries 1.. in order; the identity
  // entry 0 is not exported, every service makes its own) and — when
  // `include_cache` — every ready scenario-cache line. The graph is copied
  // into the image. Safe to call on a quiesced service; concurrent
  // traffic is tolerated (shared locks) but the capture is then a consistent
  // point-in-time of each container, not of the service as a whole.
  [[nodiscard]] static SnapshotImage export_service(const OracleService& service,
                                                    bool include_cache);

  // Replays `image` into `service`, which must be freshly constructed over a
  // graph whose fingerprint equals the image's (callers check this — the
  // loader's SnapshotLoadOptions::expect or an explicit peek — before
  // constructing the service; restore itself never reads image.graph, so the
  // caller is free to have moved it out). Entries whose recorded algorithm is
  // known to this build's BuilderRegistry are cross-checked against its
  // declared exactness; a disagreement means the snapshot and the binary
  // disagree about what the structure guarantees, and the restore fails
  // closed (kMalformed) rather than serve with the wrong guarantee. Each
  // entry's baseline tree for its source is built by the same BFS a cold
  // server runs on its first query, so the restored pool starts on the fast
  // path; the identity engine builds its baselines lazily, as cold.
  // `warm_cache` pre-fills the scenario cache from the image's lines without
  // touching hit/miss counters; leave it off when byte-identical cold-cache
  // replay matters (cache_hit flags in responses would differ from a
  // from-scratch run).
  static void restore_service(OracleService& service, const SnapshotImage& image,
                              bool warm_cache);
};

}  // namespace ftbfs
