// Multi-graph tenancy for the serving layer.
//
// One process can host many named graphs, each with its own OracleService —
// structure pool, scenario-cache capacity slice, lazy-build settings — plus
// per-tenant quotas and stats. A TenantRegistry owns the tenants; requests
// carry an optional "tenant" field that routes *before* admission (fault
// endpoints can only be resolved against the named tenant's graph), the
// default tenant serving every line that names none.
//
// Reload. Since PR 9 the registry is no longer frozen at startup: reload()
// re-reads a tenant manifest against live traffic (the SIGHUP path in
// src/net/net_server.cpp) — new tenants become routable, tenants missing
// from the new manifest are *retired* (unroutable for new requests, alive
// until their in-flight requests drain), and surviving tenants get their
// quotas updated in place. Concurrency contract: lookups take a shared lock
// and *pin* the tenant (LineJob holds the pin across parse → finish), so a
// retired tenant's graph and service outlive every request that routed to it;
// reap_retired() frees retired tenants whose pin count has hit zero.
//
// LineJob is the one request-line serving pipeline shared by every front-end
// (the inline stdin loop in ftbfs_cli and the NetServer workers): it
// splits a raw JSONL line into the same three phases OracleService exposes —
//   parse   (JSON + tenant route + fault resolution; thread-private)
//   admit   (deadline + rate-limit + quota gates + OracleService::admit —
//            everything that reads or advances shared serving state; ordered
//            serve modes run this slice under their sequencer turn)
//   finish  (deadline recheck + OracleService::execute + formatting;
//            thread-private)
// — so ordered, relaxed, stdin, and socket serving cannot drift apart in how
// they answer a line.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <vector>

#include "graph/graph.h"
#include "service/oracle_service.h"
#include "service/protocol.h"

namespace ftbfs {

// Per-tenant serving limits. 0 = unlimited / disabled. Every limit refusal is
// an *answer* (kQuotaExceeded / kRateLimited / kDeadlineExceeded), never an
// error, and never touches the tenant's service — an over-limit tenant cannot
// perturb anyone's cache or pool.
struct TenantQuotas {
  // Ceiling on admitted requests over the tenant's lifetime (parse errors and
  // unknown-tenant lines never reach the gate; refusals the service itself
  // issues do count — they consumed admission work).
  std::uint64_t max_requests = 0;
  // Token-bucket rate limit: sustained requests/second (fractional rates are
  // legal: 0.5 = one request per 2 s) and the bucket capacity. burst == 0
  // defaults to max(1, ceil(rate)). Checked pre-admission so one tenant's
  // flood cannot starve another tenant's queue slots. The rate must pass
  // valid_rate_limit().
  double rate_limit_rps = 0.0;
  std::uint64_t rate_limit_burst = 0;
  // Default deadline applied to requests that carry no "deadline_ms" wire
  // field (a request's own field always wins).
  std::int64_t deadline_ms = 0;
};

// True for a rate the token bucket can take: not negative, not NaN, and
// below 2^64, so its default burst ceil(rate) fits the uint64 capacity.
[[nodiscard]] inline bool valid_rate_limit(double rps) {
  return rps >= 0.0 && rps < 0x1p64;
}

struct Tenant {
  std::string name;  // "" never occurs; the default tenant has a real name
  Graph graph;       // owned — the service borrows it for life
  OracleService service;
  // Manifest provenance, recorded so reload() can tell a re-quota (same
  // sources → update in place) from a replacement (retire + re-add). Empty
  // for programmatically added tenants, which reload() always retires when
  // absent from the new manifest.
  std::string graph_path;
  std::string snapshot_path;

  Tenant(std::string name_, Graph graph_, ServiceConfig config,
         TenantQuotas quotas_)
      : name(std::move(name_)),
        graph(std::move(graph_)),
        service(graph, config) {
    set_quotas(quotas_);
  }

  Tenant(const Tenant&) = delete;
  Tenant& operator=(const Tenant&) = delete;

  // Lifetime-quota gate: false once the request quota is exhausted. Monotone
  // fetch_add keeps it one relaxed RMW; `admit_attempts` therefore counts
  // attempts, not admissions — admitted traffic is `service.stats().requests`.
  bool try_admit() {
    const std::uint64_t prev =
        admit_attempts.fetch_add(1, std::memory_order_relaxed);
    const std::uint64_t cap = max_requests.load(std::memory_order_relaxed);
    if (cap != 0 && prev >= cap) {
      quota_refused.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    return true;
  }

  // Token-bucket gate at `now`: true consumes one token. The unlimited fast
  // path is one relaxed load; the bucket itself is mutex-guarded (refill math
  // is not worth a CAS loop — limited tenants are paying for arithmetic, not
  // contention). Taking `now` as a parameter keeps tests deterministic.
  bool try_acquire_token(std::chrono::steady_clock::time_point now) {
    if (!rate_limited_.load(std::memory_order_relaxed)) return true;
    const std::lock_guard lock(rate_mutex_);
    if (rate_rps_ <= 0.0) return true;  // raced a reload that lifted the limit
    const double elapsed =
        std::chrono::duration<double>(now - rate_last_).count();
    if (elapsed > 0.0) {
      rate_tokens_ = std::min(static_cast<double>(rate_burst_),
                              rate_tokens_ + elapsed * rate_rps_);
      rate_last_ = now;
    }
    if (rate_tokens_ < 1.0) {
      rate_refused.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    rate_tokens_ -= 1.0;
    return true;
  }

  // Same gate, reading the clock only when a limit is actually configured —
  // the unlimited hot path stays clock-free.
  bool try_acquire_token_now() {
    if (!rate_limited_.load(std::memory_order_relaxed)) return true;
    return try_acquire_token(std::chrono::steady_clock::now());
  }

  // Applies new quotas (construction and hot reload). A re-quota resets the
  // bucket to a full burst: the operator just declared a new contract; making
  // the old debt carry over would punish the reload.
  void set_quotas(const TenantQuotas& q) {
    FTBFS_EXPECTS(valid_rate_limit(q.rate_limit_rps));
    max_requests.store(q.max_requests, std::memory_order_relaxed);
    default_deadline_ms.store(q.deadline_ms, std::memory_order_relaxed);
    const std::lock_guard lock(rate_mutex_);
    rate_rps_ = q.rate_limit_rps;
    rate_burst_ = q.rate_limit_burst != 0
                      ? q.rate_limit_burst
                      : static_cast<std::uint64_t>(
                            std::max(1.0, std::ceil(q.rate_limit_rps)));
    rate_tokens_ = static_cast<double>(rate_burst_);
    rate_last_ = std::chrono::steady_clock::now();
    rate_limited_.store(q.rate_limit_rps > 0.0, std::memory_order_relaxed);
  }

  // True when any time-based gate (deadline) applies to this tenant's
  // requests — the serve loops skip the clock read entirely otherwise.
  [[nodiscard]] std::int64_t deadline_default() const {
    return default_deadline_ms.load(std::memory_order_relaxed);
  }

  std::atomic<std::uint64_t> max_requests{0};
  std::atomic<std::int64_t> default_deadline_ms{0};
  std::atomic<std::uint64_t> admit_attempts{0};
  std::atomic<std::uint64_t> quota_refused{0};
  std::atomic<std::uint64_t> rate_refused{0};
  std::atomic<std::uint64_t> deadline_refused{0};
  // Requests holding a pointer to this tenant (LineJob pins). A retired
  // tenant is freed only once this reaches zero — see reap_retired().
  std::atomic<std::uint64_t> pins{0};
  std::atomic<bool> retired{false};

 private:
  std::mutex rate_mutex_;
  std::atomic<bool> rate_limited_{false};
  double rate_rps_ = 0.0;
  double rate_tokens_ = 0.0;
  std::uint64_t rate_burst_ = 0;
  std::chrono::steady_clock::time_point rate_last_{};
};

// Point-in-time stats for one tenant (see OracleService::stats()).
struct TenantStats {
  std::string name;
  ServiceStats service;
  std::uint64_t quota_refused = 0;
  std::uint64_t rate_refused = 0;
  std::uint64_t deadline_refused = 0;
  bool retired = false;
};

// What reload() did, for operator logs.
struct ReloadSummary {
  std::size_t added = 0;
  std::size_t updated = 0;
  std::size_t retired = 0;
  std::size_t reaped = 0;
};

class TenantRegistry {
 public:
  TenantRegistry() = default;
  TenantRegistry(const TenantRegistry&) = delete;
  TenantRegistry& operator=(const TenantRegistry&) = delete;

  // Registers a tenant owning `graph`. The first tenant added is the default
  // (requests naming no tenant route to it; retiring it promotes the next
  // live tenant). Names must be unique among live tenants and non-empty.
  // Thread-safe against concurrent lookups.
  Tenant& add(std::string name, Graph graph, ServiceConfig config = {},
              TenantQuotas quotas = {});

  // Registers a tenant whose graph and structure pool come from a .ftb
  // snapshot (src/persist/): the snapshot's graph becomes the tenant's, its
  // entries are restored into the service, and `warm_cache`
  // pre-fills the scenario cache from the snapshot's cache image. When
  // `graph_path` is non-empty, that file is loaded first and its fingerprint
  // must match the snapshot's — a snapshot built from a different graph is
  // rejected (SnapshotError, kGraphMismatch) before the tenant exists, never
  // served against. Throws SnapshotError on any snapshot rejection.
  Tenant& add_from_snapshot(std::string name, const std::string& snapshot_path,
                            ServiceConfig config = {}, TenantQuotas quotas = {},
                            bool warm_cache = false,
                            const std::string& graph_path = {});

  // Registers every tenant named in a JSON manifest file (see the schema
  // table in docs/serving.md "Network serving & tenants"):
  //   {"schema": 2,
  //    "tenants": [{"name": "alpha", "graph": "a.txt", "cache": 256,
  //                 "budget": 2, "max_lazy": 3, "lazy": true, "seed": 1,
  //                 "max_requests": 0, "rate_limit_rps": 0, "burst": 0,
  //                 "deadline_ms": 0, "snapshot": "a.ftb",
  //                 "cache_warm": false}, ...]}
  // `name` plus one of `graph`/`snapshot` are required (both = fingerprint
  // cross-check); everything else defaults to `base`. Unknown keys warn on
  // stderr; a missing or other "schema" is fatal. Throws GraphIoError on
  // unreadable/malformed manifests or graphs, SnapshotError on snapshot
  // rejections.
  void load_manifest(const std::string& path, const ServiceConfig& base = {});

  // Hot reload (the SIGHUP path): re-reads `path` and diffs it against the
  // live tenants. Same name + same graph/snapshot sources → quotas updated in
  // place (stats, cache, and pool survive); new names → added; live tenants
  // absent from the manifest (or whose sources changed) → retired. The whole
  // new manifest is parsed and every new graph/snapshot loaded *before* any
  // live tenant changes, so a malformed manifest or unreadable graph throws
  // with the old configuration fully intact. Safe against concurrent
  // find/pin traffic. Finishes by reaping drained retired tenants.
  ReloadSummary reload(const std::string& path, const ServiceConfig& base = {});

  // Frees retired tenants whose pin count has drained to zero. Returns how
  // many were freed. Called by reload() and by the net loop's idle sweeps.
  std::size_t reap_retired();

  // nullptr when unknown or retired; "" resolves to the default tenant.
  [[nodiscard]] Tenant* find(std::string_view name);
  // find() + pins the result (caller must unpin via TenantPin / pins--).
  [[nodiscard]] Tenant* find_and_pin(std::string_view name);
  [[nodiscard]] Tenant* default_tenant();
  [[nodiscard]] std::size_t size() const;

  // Runs `fn(Tenant&)` over every live tenant under the registry lock.
  template <typename Fn>
  void for_each(Fn&& fn) {
    const std::shared_lock lock(mutex_);
    for (const auto& t : tenants_) fn(*t);
  }

  // Per-tenant snapshots (live tenants first, then still-draining retired
  // ones), and their sum — the process-wide serving picture. global_stats()
  // is exactly the field-wise sum of stats(): per-tenant accounting never
  // loses a request. (Requests served by a retired tenant that has since
  // been *reaped* are gone from both — documented in docs/robustness.md.)
  [[nodiscard]] std::vector<TenantStats> stats() const;
  [[nodiscard]] TenantStats global_stats() const;

 private:
  friend class LineJob;

  // Everything one manifest entry resolves to, parsed and loaded before any
  // live mutation (reload's all-or-nothing contract).
  struct PendingTenant;
  static std::vector<PendingTenant> parse_manifest(const std::string& path,
                                                   const ServiceConfig& base);

  Tenant& adopt(std::unique_ptr<Tenant> t);

  // Guards tenants_/retired_ membership. Tenants themselves are heap-pinned;
  // pointers handed out under the shared lock stay valid while pinned.
  mutable std::shared_mutex mutex_;
  std::vector<std::unique_ptr<Tenant>> tenants_;  // live; front = default
  std::vector<std::unique_ptr<Tenant>> retired_;  // unroutable, draining
};

// Wire-level counters every serve loop shares (requests that never reach a
// service): parse errors, resolution refusals (bad edges / unknown tenants),
// quota/rate/deadline refusals, and loads shed under queue pressure.
struct WireCounters {
  std::atomic<std::uint64_t> parse_errors{0};
  std::atomic<std::uint64_t> resolve_refusals{0};
  std::atomic<std::uint64_t> quota_refusals{0};
  std::atomic<std::uint64_t> rate_limit_refusals{0};
  std::atomic<std::uint64_t> deadline_refusals{0};
  std::atomic<std::uint64_t> overload_sheds{0};
};

// RAII pin on a Tenant: while held, the tenant (graph, service, counters)
// cannot be freed even if a reload retires it mid-request.
class TenantPin {
 public:
  TenantPin() = default;
  explicit TenantPin(Tenant* t) : t_(t) {}
  TenantPin(TenantPin&& o) noexcept : t_(o.t_) { o.t_ = nullptr; }
  TenantPin& operator=(TenantPin&& o) noexcept {
    if (this != &o) {
      release();
      t_ = o.t_;
      o.t_ = nullptr;
    }
    return *this;
  }
  TenantPin(const TenantPin&) = delete;
  TenantPin& operator=(const TenantPin&) = delete;
  ~TenantPin() { release(); }

  [[nodiscard]] Tenant* get() const { return t_; }

 private:
  void release() {
    if (t_ != nullptr) t_->pins.fetch_sub(1, std::memory_order_acq_rel);
    t_ = nullptr;
  }
  Tenant* t_ = nullptr;
};

// One request line moving through parse → admit → finish. See the file
// comment for the phase contract. `stamp_seq` mirrors the relaxed serve
// modes: the response carries `seq` so id-less lines stay correlatable.
class LineJob {
 public:
  // Parse phase. Runs anywhere; touches no shared serving state beyond the
  // registry lookup (shared lock + pin) and the wire counters. `arrival` is
  // when the request hit the process (socket framing / stdin read) — the
  // moment its deadline clock started; defaults to construction time.
  LineJob(TenantRegistry& registry, const std::string& line, std::int64_t seq,
          bool stamp_seq, WireCounters& counters,
          std::chrono::steady_clock::time_point arrival =
              std::chrono::steady_clock::now());

  // The same, parsing into the caller's `parsed` instead of a request of its
  // own: a serve loop that admits and finishes one line before it parses the
  // next reuses one ParsedRequest, and a warm parse allocates nothing.
  // `parsed` must outlive the job and be used by no other job meanwhile.
  LineJob(TenantRegistry& registry, std::string_view line, std::int64_t seq,
          bool stamp_seq, WireCounters& counters, ParsedRequest& parsed,
          std::chrono::steady_clock::time_point arrival =
              std::chrono::steady_clock::now());

  LineJob(LineJob&&) noexcept = default;
  LineJob& operator=(LineJob&&) noexcept = default;

  // Admission phase: deadline gate + rate-limit gate + quota gate +
  // OracleService::admit. Ordered serve modes call this under their sequencer
  // turn; no-op when the line was already answered at parse time. Must be
  // called exactly once before finish().
  void admit();

  // Execution phase: deadline recheck + OracleService::execute + formatting.
  // Returns the response line (no trailing newline), or appends it to `out`.
  [[nodiscard]] std::string finish();
  void finish(std::string& out);

 private:
  // Deadline for this request (request field wins over the tenant default),
  // or nullopt when neither applies. Computed once, in admit().
  void resolve_deadline();
  void parse(std::string_view line);
  [[nodiscard]] std::string refuse_line(StatusCode status, std::string why);

  TenantRegistry* registry_;
  WireCounters* counters_;
  Tenant* tenant_ = nullptr;
  TenantPin pin_;
  // Never inline: OracleService::Admission keeps a pointer to the request
  // across admit() → finish(), so the request must not move with the job.
  // `owned_` backs `parsed_` only for jobs built without a caller's request.
  std::unique_ptr<ParsedRequest> owned_;
  ParsedRequest* parsed_;
  std::optional<OracleService::Admission> admission_;
  std::optional<std::string> local_;  // final line decided before execution
  std::chrono::steady_clock::time_point arrival_;
  std::optional<std::chrono::steady_clock::time_point> deadline_;
  std::int64_t seq_;
  bool stamp_seq_;
};

// The answer to a line the framer discarded for exceeding `max_line_bytes`:
// a parse error (counted as one), stamped with `seq` when `stamp_seq` is set.
[[nodiscard]] std::string oversized_line_answer(std::size_t max_line_bytes,
                                                std::int64_t seq,
                                                bool stamp_seq,
                                                WireCounters& counters);

}  // namespace ftbfs
