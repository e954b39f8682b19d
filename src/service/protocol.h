// Typed request/response messages for the serving layer.
//
// The query surface below this layer is imperative and contract-guarded:
// over-budget fault sets, unknown ids, and unsupported fault models are
// preconditions, and violating them aborts. A serving system cannot abort on
// traffic, so this protocol turns every capability mismatch into an *answer*:
// a QueryRequest names what the client wants (source, targets, faults, kind,
// consistency) and a QueryResponse carries a status code plus payload and
// serving stats. OracleService (oracle_service.h) is the interpreter;
// `ftbfs serve` speaks the same messages as JSONL over stdin/stdout
// (docs/serving.md documents the wire format).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "spath/path.h"

namespace ftbfs {

// Outcome of one request. Everything except kOk/kDisconnected is a refusal:
// the service answered "I cannot serve this exactly", never a crash.
enum class StatusCode {
  kOk = 0,
  kBudgetExceeded,         // |faults| above every structure's budget
  kUnknownSource,          // unknown source/target/fault/structure id
  kUnsupportedFaultModel,  // no structure guarantees this fault model
  kDisconnected,           // served, but every requested target is unreachable
  kUnknownTenant,          // "tenant" names a graph this process does not host
  kQuotaExceeded,          // the tenant is over its configured request quota
  kDeadlineExceeded,       // the request's deadline passed before execution
  kOverloaded,             // shed under pressure (queue full / build failed)
  kRateLimited,            // the tenant's token bucket is empty right now
};

enum class QueryKind {
  kDistance,      // distance per target
  kPath,          // shortest path per target
  kAllDistances,  // full distance vector from the source
  kReachability,  // boolean per target
};

// What the client prefers when the fault set falls outside every structure's
// guarantee: a refusal with kBudgetExceeded / kUnsupportedFaultModel (serving
// cost stays bounded by the structure size), or a best-effort answer from the
// identity engine over G (always exact, but costs a BFS over the full graph).
enum class Consistency { kExactOrRefuse, kBestEffort };

struct QueryRequest {
  std::int64_t id = -1;  // client correlation id, echoed in the response
  Vertex source = 0;
  std::vector<Vertex> targets;  // ignored for kAllDistances
  std::vector<EdgeId> fault_edges;      // host-graph edge ids
  std::vector<Vertex> fault_vertices;   // host-graph vertex ids
  QueryKind kind = QueryKind::kDistance;
  Consistency consistency = Consistency::kExactOrRefuse;
  // Non-empty: pin the request to the named pool entry ("identity" is always
  // available) instead of letting the service route it.
  std::string structure;
  // Wire field "deadline_ms": answer within this many milliseconds of arrival
  // or refuse with kDeadlineExceeded — checked at admission and again before
  // execution, never mid-BFS. <= 0 means no request deadline (the tenant's
  // default, if any, applies). Refusing is cheaper than answering late: the
  // client has already stopped caring.
  std::int64_t deadline_ms = 0;
};

struct QueryResponse {
  std::int64_t id = -1;  // echoed from the request
  // Input line number (0-based) of the request, stamped by the relaxed serve
  // loop for requests that carry no "id": out-of-order responses stay
  // correlatable. Emitted on the wire only when id < 0 — responses to
  // id-bearing requests are byte-identical across serve modes.
  std::int64_t seq = -1;
  StatusCode status = StatusCode::kOk;
  // True iff the answers carry an exactness guarantee (structure served
  // within its fault budget, or identity engine).
  bool exact = false;
  // --- payload (filled for kOk and kDisconnected) --------------------------
  // kDistance/kPath/kReachability: one entry per target; kAllDistances: one
  // per vertex. kInfHops = unreachable.
  std::vector<std::uint32_t> distances;
  std::vector<Path> paths;          // kPath only; empty path = unreachable
  std::vector<bool> reachable;      // kReachability only
  // --- serving stats -------------------------------------------------------
  std::string served_by;  // pool entry name or "identity"
  bool cache_hit = false;
  // Non-fatal notes about the *request* — today: unknown request keys, which
  // are echoed back instead of silently ignored (and instead of rejecting the
  // line, so a client one protocol revision ahead still gets its answer).
  std::vector<std::string> warnings;
  std::string error;  // human-readable reason for refusals
};

[[nodiscard]] const char* to_string(StatusCode s);
[[nodiscard]] const char* to_string(QueryKind k);
[[nodiscard]] const char* to_string(Consistency c);

// --- JSONL wire format (see docs/serving.md) -------------------------------

// Outcome of parsing one request line. kSyntax means the line is not a valid
// request object (the caller should emit a parse_error line); kResolve means
// the request parsed but referenced something that does not exist — an edge
// absent from the graph, or a tenant this process does not host. The caller
// should answer with `resolve_status`, echoing `request.id`.
enum class ParseStatus { kOk, kSyntax, kResolve };

struct ParsedRequest {
  ParseStatus status = ParseStatus::kOk;
  QueryRequest request;
  // Tenant name the line routed to ("" = the default tenant). Resolved during
  // parsing — fault-edge endpoints can only be translated to edge ids against
  // the named tenant's graph, so tenancy routes *before* everything else.
  std::string tenant;
  // Unknown request keys, echoed into QueryResponse::warnings by the serve
  // loops (the request is still served).
  std::vector<std::string> warnings;
  // Status a kResolve refusal should carry (kUnknownSource for unresolvable
  // edges, kUnknownTenant for an unknown "tenant").
  StatusCode resolve_status = StatusCode::kUnknownSource;
  std::string error;  // filled unless status == kOk
  // Parser scratch, kept only for its capacity: the "fault_edges" endpoint
  // pairs, held until the tenant (and so the graph) is known.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> edge_pairs;
};

// Maps a tenant name ("" = default) to the graph faults should resolve
// against, or nullptr when no such tenant exists. LineJob's pinning lambda
// is the multi-graph implementation; single-graph callers use the Graph&
// overload below.
using GraphResolver = std::function<const Graph*(const std::string& tenant)>;

// Parses one JSONL request line into `out`, overwriting every field but
// keeping the capacity of its vectors and strings, so a reused ParsedRequest
// parses a typical line without allocating. Fault edges arrive as endpoint
// pairs ("fault_edges": [[u,v],...]) and are resolved to edge ids of the
// graph the line's "tenant" field routes to. Keys may come in any order; of
// duplicates, the last scalar wins and arrays append. A syntax error
// anywhere in the line beats a field error, and the first field error beats
// the rest. Integer tokens are read exactly: ids range over [0, 2^63).
void parse_request_into(std::string_view line, const GraphResolver& resolve,
                        ParsedRequest& out);

// parse_request_into into a fresh ParsedRequest.
[[nodiscard]] ParsedRequest parse_request_line(const std::string& line,
                                               const GraphResolver& resolve);

// Single-graph convenience: every line resolves against `g`; a "tenant" field
// naming anything but the default is an unknown tenant.
[[nodiscard]] ParsedRequest parse_request_line(const std::string& line,
                                               const Graph& g);

// Appends a response as one JSONL line (no trailing newline) to `out`.
// Unreachable distances are encoded as -1.
void append_response_line(std::string& out, const QueryResponse& resp);

// append_response_line into a fresh string.
[[nodiscard]] std::string format_response_line(const QueryResponse& resp);

// One JSONL line reporting a request that never reached the service — wire
// status "parse_error" (distinct from the StatusCode refusals, which are
// answers about the graph rather than about the line). `seq` >= 0 adds the
// relaxed-mode correlation field for lines that parsed no "id" (same contract
// as QueryResponse::seq). Appended to `out`, or returned as a fresh string.
void append_parse_error_line(std::string& out, const ParsedRequest& parsed,
                             std::int64_t seq = -1);
[[nodiscard]] std::string format_parse_error_line(const ParsedRequest& parsed,
                                                  std::int64_t seq = -1);

}  // namespace ftbfs
