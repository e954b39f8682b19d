#include "service/tenant.h"

#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <utility>

#include "graph/io.h"
#include "persist/service_io.h"
#include "persist/snapshot.h"
#include "service/json.h"
#include "util/failpoint.h"

namespace ftbfs {

// One manifest entry, parsed and validated but not yet loaded or applied.
struct TenantRegistry::PendingTenant {
  std::string name;
  std::string graph_path;
  std::string snapshot_path;
  bool cache_warm = false;
  ServiceConfig config;
  TenantQuotas quotas;
};

namespace {

void accumulate(ServiceStats& into, const ServiceStats& s) {
  into.requests += s.requests;
  into.served += s.served;
  into.refused += s.refused;
  into.cache_hits += s.cache_hits;
  into.cache_misses += s.cache_misses;
  into.cache_evictions += s.cache_evictions;
  into.cache_lines += s.cache_lines;
  into.cache_resident_bytes += s.cache_resident_bytes;
  into.structures_built += s.structures_built;
  into.identity_served += s.identity_served;
  into.fast_path_hits += s.fast_path_hits;
  into.repair_bfs += s.repair_bfs;
  into.full_bfs += s.full_bfs;
}

// Manifest errors reuse GraphIoError (the CLI already reports it as a load
// failure); there is no meaningful line number for semantic errors, so 0.
[[noreturn]] void manifest_error(const std::string& why) {
  throw GraphIoError(0, "tenant manifest: " + why);
}

std::unique_ptr<Tenant> make_tenant_from_graph(std::string name, Graph graph,
                                               const ServiceConfig& config,
                                               const TenantQuotas& quotas) {
  if (name.empty()) {
    throw GraphIoError(0, "tenant name must be non-empty");
  }
  return std::make_unique<Tenant>(std::move(name), std::move(graph), config,
                                  quotas);
}

std::unique_ptr<Tenant> make_tenant_from_snapshot(
    std::string name, const std::string& snapshot_path,
    const ServiceConfig& config, const TenantQuotas& quotas, bool warm_cache,
    const std::string& graph_path) {
  SnapshotLoadOptions opts;
  GraphFingerprint expect;
  Graph graph_file;
  if (!graph_path.empty()) {
    // Fail-closed cross-check: a snapshot built from a different graph is
    // rejected (kGraphMismatch) before any tenant exists.
    graph_file = load_graph(graph_path);
    expect = fingerprint_of(graph_file);
    opts.expect = &expect;
  }
  SnapshotImage image = load_snapshot(snapshot_path, opts);
  auto t = make_tenant_from_graph(std::move(name), std::move(image.graph),
                                  config, quotas);
  PersistAccess::restore_service(t->service, image, warm_cache);
  return t;
}

}  // namespace

Tenant& TenantRegistry::adopt(std::unique_ptr<Tenant> t) {
  const std::unique_lock lock(mutex_);
  for (const auto& live : tenants_) {
    if (live->name == t->name) {
      throw GraphIoError(0, "duplicate tenant name '" + t->name + "'");
    }
  }
  tenants_.push_back(std::move(t));
  return *tenants_.back();
}

Tenant& TenantRegistry::add(std::string name, Graph graph,
                            ServiceConfig config, TenantQuotas quotas) {
  return adopt(
      make_tenant_from_graph(std::move(name), std::move(graph), config,
                             quotas));
}

Tenant& TenantRegistry::add_from_snapshot(std::string name,
                                          const std::string& snapshot_path,
                                          ServiceConfig config,
                                          TenantQuotas quotas, bool warm_cache,
                                          const std::string& graph_path) {
  auto t = make_tenant_from_snapshot(std::move(name), snapshot_path, config,
                                     quotas, warm_cache, graph_path);
  t->snapshot_path = snapshot_path;
  t->graph_path = graph_path;
  return adopt(std::move(t));
}

Tenant* TenantRegistry::find(std::string_view name) {
  const std::shared_lock lock(mutex_);
  if (name.empty()) {
    return tenants_.empty() ? nullptr : tenants_.front().get();
  }
  for (const auto& t : tenants_) {
    if (t->name == name) return t.get();
  }
  return nullptr;
}

Tenant* TenantRegistry::find_and_pin(std::string_view name) {
  const std::shared_lock lock(mutex_);
  Tenant* found = nullptr;
  if (name.empty()) {
    found = tenants_.empty() ? nullptr : tenants_.front().get();
  } else {
    for (const auto& t : tenants_) {
      if (t->name == name) {
        found = t.get();
        break;
      }
    }
  }
  // Pinned under the shared lock: a racing reload cannot retire-and-reap the
  // tenant between the scan and the increment.
  if (found != nullptr) found->pins.fetch_add(1, std::memory_order_acq_rel);
  return found;
}

Tenant* TenantRegistry::default_tenant() {
  const std::shared_lock lock(mutex_);
  return tenants_.empty() ? nullptr : tenants_.front().get();
}

std::size_t TenantRegistry::size() const {
  const std::shared_lock lock(mutex_);
  return tenants_.size();
}

std::vector<TenantStats> TenantRegistry::stats() const {
  const std::shared_lock lock(mutex_);
  std::vector<TenantStats> out;
  out.reserve(tenants_.size() + retired_.size());
  const auto snap = [&](const Tenant& t, bool retired) {
    TenantStats s;
    s.name = t.name;
    s.service = t.service.stats();
    s.quota_refused = t.quota_refused.load(std::memory_order_relaxed);
    s.rate_refused = t.rate_refused.load(std::memory_order_relaxed);
    s.deadline_refused = t.deadline_refused.load(std::memory_order_relaxed);
    s.retired = retired;
    out.push_back(std::move(s));
  };
  for (const auto& t : tenants_) snap(*t, false);
  for (const auto& t : retired_) snap(*t, true);
  return out;
}

TenantStats TenantRegistry::global_stats() const {
  TenantStats total;
  for (const TenantStats& s : stats()) {
    accumulate(total.service, s.service);
    total.quota_refused += s.quota_refused;
    total.rate_refused += s.rate_refused;
    total.deadline_refused += s.deadline_refused;
  }
  return total;
}

std::vector<TenantRegistry::PendingTenant> TenantRegistry::parse_manifest(
    const std::string& path, const ServiceConfig& base) {
  std::ifstream in(path);
  if (!in) manifest_error("cannot open '" + path + "'");
  std::ostringstream slurp;
  slurp << in.rdbuf();
  const std::string text = slurp.str();

  // Syntax first, over the whole file: a malformed manifest reports its
  // syntax error even when a field before it is also wrong.
  {
    JsonCursor check(text);
    if (!check.skip() || !check.finish()) manifest_error(check.error());
  }
  using Kind = JsonCursor::Kind;
  // One accepted shape: {"schema": 2, "tenants": [...]}. Unknown keys are
  // stderr warnings, not errors (surface, don't refuse); a schema version
  // this build does not know is fatal. Of duplicate keys, the first counts.
  JsonCursor root(text);
  if (root.peek() != Kind::kObject) {
    manifest_error("top level must be {\"schema\": 2, \"tenants\": [...]}");
  }
  bool have_schema = false;
  std::optional<std::uint64_t> schema;
  std::optional<JsonCursor> tenants;  // positioned at the first "tenants"
  std::vector<std::string> unknown_keys;
  root.object([&](std::string_view key) {
    if (key == "schema" && !have_schema) {
      have_schema = true;
      return root.uint_value(schema);
    }
    if (key == "tenants") {
      if (!tenants) tenants = root;
    } else if (key != "schema") {
      unknown_keys.emplace_back(key);
    }
    return root.skip();
  });
  if (!schema || *schema != 2) {
    manifest_error("\"schema\" must be 2 (the only manifest schema this "
                   "build understands)");
  }
  for (const std::string& key : unknown_keys) {
    std::fprintf(stderr,
                 "ftbfs: warning: tenant manifest: ignoring unknown "
                 "top-level key \"%s\"\n",
                 key.c_str());
  }
  if (!tenants || tenants->peek() != Kind::kArray) {
    manifest_error("missing \"tenants\" array");
  }

  std::vector<PendingTenant> out;
  JsonCursor& c = *tenants;
  c.array([&] {
    if (c.peek() != Kind::kObject) {
      manifest_error("each tenant must be an object");
    }
    PendingTenant p;
    p.config = base;
    const auto uint_of = [&](const char* why) {
      std::optional<std::uint64_t> u;
      c.uint_value(u);
      if (!u) manifest_error(why);
      return *u;
    };
    const auto string_of = [&](bool non_empty, const char* why) {
      std::string_view s;
      if (c.peek() != Kind::kString || !c.string(s) ||
          (non_empty && s.empty())) {
        manifest_error(why);
      }
      return std::string(s);
    };
    const auto bool_of = [&](const char* why) {
      bool b = false;
      if (c.peek() != Kind::kBool || !c.literal(b)) manifest_error(why);
      return b;
    };
    c.object([&](std::string_view key) {
      if (key == "name") {
        p.name = string_of(true, "\"name\" must be a non-empty string");
      } else if (key == "graph") {
        p.graph_path = string_of(false, "\"graph\" must be a file path");
      } else if (key == "budget") {
        p.config.default_budget =
            static_cast<unsigned>(uint_of("\"budget\" must be an integer"));
      } else if (key == "max_lazy") {
        p.config.max_lazy_budget =
            static_cast<unsigned>(uint_of("\"max_lazy\" must be an integer"));
      } else if (key == "cache") {
        p.config.cache_capacity =
            static_cast<std::size_t>(uint_of("\"cache\" must be an integer"));
      } else if (key == "lazy") {
        p.config.lazy_build = bool_of("\"lazy\" must be a boolean");
      } else if (key == "seed") {
        p.config.weight_seed = uint_of("\"seed\" must be an integer");
      } else if (key == "max_requests") {
        p.quotas.max_requests = uint_of("\"max_requests\" must be an integer");
      } else if (key == "rate_limit_rps") {
        JsonCursor::Number n;
        if (c.peek() != Kind::kNumber || !c.number(n) ||
            !valid_rate_limit(n.value)) {
          manifest_error(
              "\"rate_limit_rps\" must be a number >= 0 and below 2^64");
        }
        p.quotas.rate_limit_rps = n.value;
      } else if (key == "burst") {
        p.quotas.rate_limit_burst = uint_of("\"burst\" must be an integer");
      } else if (key == "deadline_ms") {
        const char* why = "\"deadline_ms\" must be a non-negative integer";
        const std::uint64_t u = uint_of(why);
        if (u > (1ull << 40)) manifest_error(why);
        p.quotas.deadline_ms = static_cast<std::int64_t>(u);
      } else if (key == "snapshot") {
        p.snapshot_path = string_of(true, "\"snapshot\" must be a file path");
      } else if (key == "cache_warm") {
        p.cache_warm = bool_of("\"cache_warm\" must be a boolean");
      } else {
        std::fprintf(stderr,
                     "ftbfs: warning: tenant manifest: ignoring unknown "
                     "tenant key \"%s\"\n",
                     std::string(key).c_str());
        c.skip();
      }
      return true;
    });
    if (p.name.empty()) manifest_error("tenant entry is missing \"name\"");
    if (p.cache_warm && p.snapshot_path.empty()) {
      manifest_error("tenant \"" + p.name + "\": \"cache_warm\" needs "
                     "\"snapshot\"");
    }
    if (p.snapshot_path.empty() && p.graph_path.empty()) {
      manifest_error("tenant \"" + p.name +
                     "\" is missing \"graph\" (or \"snapshot\")");
    }
    for (const PendingTenant& seen : out) {
      if (seen.name == p.name) {
        manifest_error("duplicate tenant name '" + p.name + "'");
      }
    }
    out.push_back(std::move(p));
    return true;
  });
  if (out.empty()) manifest_error("\"tenants\" names no tenants");
  return out;
}

void TenantRegistry::load_manifest(const std::string& path,
                                   const ServiceConfig& base) {
  for (PendingTenant& p : parse_manifest(path, base)) {
    if (!p.snapshot_path.empty()) {
      // With both keys, the graph file is the fingerprint cross-check; the
      // tenant's graph is the snapshot's either way.
      add_from_snapshot(std::move(p.name), p.snapshot_path, p.config, p.quotas,
                        p.cache_warm, p.graph_path);
    } else {
      Tenant& t = add(std::move(p.name), load_graph(p.graph_path), p.config,
                      p.quotas);
      t.graph_path = p.graph_path;
    }
  }
}

ReloadSummary TenantRegistry::reload(const std::string& path,
                                     const ServiceConfig& base) {
  // Phase 1 — parse and load with NO live mutation: any throw (malformed
  // manifest, unreadable graph, rejected snapshot) leaves the old
  // configuration serving untouched.
  std::vector<PendingTenant> specs = parse_manifest(path, base);

  // Classify against the live set. name/graph_path/snapshot_path are
  // immutable after construction, so the shared lock only fences membership.
  std::vector<bool> in_place(specs.size(), false);
  {
    const std::shared_lock lock(mutex_);
    for (std::size_t i = 0; i < specs.size(); ++i) {
      for (const auto& t : tenants_) {
        if (t->name == specs[i].name &&
            t->graph_path == specs[i].graph_path &&
            t->snapshot_path == specs[i].snapshot_path &&
            !(t->graph_path.empty() && t->snapshot_path.empty())) {
          // Same sources → hot re-quota. Service config changes (cache size,
          // budgets, ...) do NOT apply in place — docs/robustness.md.
          in_place[i] = true;
          break;
        }
      }
    }
  }
  std::vector<std::unique_ptr<Tenant>> built(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (in_place[i]) continue;
    PendingTenant& p = specs[i];
    if (!p.snapshot_path.empty()) {
      built[i] = make_tenant_from_snapshot(p.name, p.snapshot_path, p.config,
                                           p.quotas, p.cache_warm,
                                           p.graph_path);
    } else {
      built[i] = make_tenant_from_graph(p.name, load_graph(p.graph_path),
                                        p.config, p.quotas);
    }
    built[i]->graph_path = p.graph_path;
    built[i]->snapshot_path = p.snapshot_path;
  }

  // Phase 2 — swap memberships under the exclusive lock. Manifest order
  // becomes the live order, so the first manifest entry is the new default.
  ReloadSummary summary;
  {
    const std::unique_lock lock(mutex_);
    std::vector<std::unique_ptr<Tenant>> next;
    next.reserve(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
      if (in_place[i]) {
        for (auto& t : tenants_) {
          if (t != nullptr && t->name == specs[i].name) {
            t->set_quotas(specs[i].quotas);
            next.push_back(std::move(t));
            ++summary.updated;
            break;
          }
        }
      } else {
        next.push_back(std::move(built[i]));
        ++summary.added;
      }
    }
    for (auto& t : tenants_) {
      if (t == nullptr) continue;  // moved into `next`
      t->retired.store(true, std::memory_order_release);
      retired_.push_back(std::move(t));
      ++summary.retired;
    }
    tenants_ = std::move(next);
  }
  summary.reaped = reap_retired();
  return summary;
}

std::size_t TenantRegistry::reap_retired() {
  const std::unique_lock lock(mutex_);
  const std::size_t before = retired_.size();
  // A retired tenant is unroutable, so pins can only drain; once zero under
  // the exclusive lock, no request can ever reference it again.
  std::erase_if(retired_, [](const std::unique_ptr<Tenant>& t) {
    return t->pins.load(std::memory_order_acquire) == 0;
  });
  return before - retired_.size();
}

LineJob::LineJob(TenantRegistry& registry, const std::string& line,
                 std::int64_t seq, bool stamp_seq, WireCounters& counters,
                 std::chrono::steady_clock::time_point arrival)
    : registry_(&registry),
      counters_(&counters),
      owned_(std::make_unique<ParsedRequest>()),
      parsed_(owned_.get()),
      arrival_(arrival),
      seq_(seq),
      stamp_seq_(stamp_seq) {
  parse(line);
}

LineJob::LineJob(TenantRegistry& registry, std::string_view line,
                 std::int64_t seq, bool stamp_seq, WireCounters& counters,
                 ParsedRequest& parsed,
                 std::chrono::steady_clock::time_point arrival)
    : registry_(&registry),
      counters_(&counters),
      parsed_(&parsed),
      arrival_(arrival),
      seq_(seq),
      stamp_seq_(stamp_seq) {
  parse(line);
}

void LineJob::parse(std::string_view line) {
  // The resolver runs at most once per line, after the object scan; pinning
  // inside it makes route-and-pin atomic against a racing reload (the graph
  // pointer the fault resolution uses stays valid for the job's life).
  parse_request_into(
      line,
      [this](const std::string& tenant) -> const Graph* {
        Tenant* t = registry_->find_and_pin(tenant);
        pin_ = TenantPin(t);
        tenant_ = t;
        return t == nullptr ? nullptr : &t->graph;
      },
      *parsed_);
  switch (parsed_->status) {
    case ParseStatus::kSyntax:
      counters_->parse_errors.fetch_add(1, std::memory_order_relaxed);
      local_ = format_parse_error_line(*parsed_, stamp_seq_ ? seq_ : -1);
      return;
    case ParseStatus::kResolve: {
      counters_->resolve_refusals.fetch_add(1, std::memory_order_relaxed);
      QueryResponse resp;
      resp.id = parsed_->request.id;
      resp.seq = stamp_seq_ ? seq_ : -1;
      resp.status = parsed_->resolve_status;
      resp.warnings = std::move(parsed_->warnings);
      resp.error = parsed_->error;
      local_ = format_response_line(resp);
      return;
    }
    case ParseStatus::kOk:
      return;
  }
}

std::string LineJob::refuse_line(StatusCode status, std::string why) {
  QueryResponse resp;
  resp.id = parsed_->request.id;
  resp.seq = stamp_seq_ ? seq_ : -1;
  resp.status = status;
  resp.warnings = std::move(parsed_->warnings);
  resp.error = std::move(why);
  return format_response_line(resp);
}

void LineJob::resolve_deadline() {
  std::int64_t ms = parsed_->request.deadline_ms;
  if (ms <= 0) ms = tenant_->deadline_default();
  if (ms > 0) deadline_ = arrival_ + std::chrono::milliseconds(ms);
}

void LineJob::admit() {
  if (local_.has_value()) return;  // answered at parse time
  // Gate order: deadline (an expired request must not consume tokens or
  // quota), then rate limit, then the lifetime quota, then the service.
  resolve_deadline();
  if (deadline_.has_value() &&
      std::chrono::steady_clock::now() > *deadline_) {
    counters_->deadline_refusals.fetch_add(1, std::memory_order_relaxed);
    tenant_->deadline_refused.fetch_add(1, std::memory_order_relaxed);
    local_ = refuse_line(StatusCode::kDeadlineExceeded,
                         "deadline of " +
                             std::to_string(parsed_->request.deadline_ms > 0
                                                ? parsed_->request.deadline_ms
                                                : tenant_->deadline_default()) +
                             " ms expired before admission");
    return;
  }
  if (!tenant_->try_acquire_token_now()) {
    counters_->rate_limit_refusals.fetch_add(1, std::memory_order_relaxed);
    local_ = refuse_line(StatusCode::kRateLimited,
                         "tenant '" + tenant_->name +
                             "' is over its request rate; retry later");
    return;
  }
  if (!tenant_->try_admit()) {
    counters_->quota_refusals.fetch_add(1, std::memory_order_relaxed);
    local_ = refuse_line(StatusCode::kQuotaExceeded,
                         "tenant '" + tenant_->name +
                             "' is over its request quota");
    return;
  }
  admission_ = tenant_->service.admit(parsed_->request);
}

std::string LineJob::finish() {
  std::string out;
  finish(out);
  return out;
}

void LineJob::finish(std::string& out) {
  if (local_.has_value()) {
    out += *local_;
    return;
  }
  {
    // Chaos/latency hook: a sleep armed on `service.execute` models a slow
    // backend without touching real serving code paths.
    static fp::Failpoint& fp_exec = fp::site("service.execute");
    (void)fp::fail_errno(fp_exec);
  }
  if (deadline_.has_value() && !admission_->done &&
      std::chrono::steady_clock::now() > *deadline_) {
    // Too late to be worth computing. Dropping the admission is safe: its
    // fill obligation (if any) poisons the reserved cache line so waiters
    // recompute for themselves.
    admission_.reset();
    counters_->deadline_refusals.fetch_add(1, std::memory_order_relaxed);
    tenant_->deadline_refused.fetch_add(1, std::memory_order_relaxed);
    out += refuse_line(StatusCode::kDeadlineExceeded,
                       "deadline expired while queued for execution");
    return;
  }
  QueryResponse resp = tenant_->service.execute(std::move(*admission_));
  resp.seq = stamp_seq_ ? seq_ : -1;
  resp.warnings = std::move(parsed_->warnings);
  append_response_line(out, resp);
}

std::string oversized_line_answer(std::size_t max_line_bytes,
                                  std::int64_t seq, bool stamp_seq,
                                  WireCounters& counters) {
  counters.parse_errors.fetch_add(1, std::memory_order_relaxed);
  ParsedRequest pr;
  pr.status = ParseStatus::kSyntax;
  pr.error =
      "request line exceeds " + std::to_string(max_line_bytes) + " bytes";
  return format_parse_error_line(pr, stamp_seq ? seq : -1);
}

}  // namespace ftbfs
