#include "service/protocol.h"

#include <charconv>
#include <limits>
#include <optional>

#include "service/json.h"
#include "spath/bfs.h"

namespace ftbfs {

const char* to_string(StatusCode s) {
  switch (s) {
    case StatusCode::kOk:
      return "ok";
    case StatusCode::kBudgetExceeded:
      return "budget_exceeded";
    case StatusCode::kUnknownSource:
      return "unknown_source";
    case StatusCode::kUnsupportedFaultModel:
      return "unsupported_fault_model";
    case StatusCode::kDisconnected:
      return "disconnected";
    case StatusCode::kUnknownTenant:
      return "unknown_tenant";
    case StatusCode::kQuotaExceeded:
      return "quota_exceeded";
    case StatusCode::kDeadlineExceeded:
      return "deadline_exceeded";
    case StatusCode::kOverloaded:
      return "overloaded";
    case StatusCode::kRateLimited:
      return "rate_limited";
  }
  return "?";
}

const char* to_string(QueryKind k) {
  switch (k) {
    case QueryKind::kDistance:
      return "distance";
    case QueryKind::kPath:
      return "path";
    case QueryKind::kAllDistances:
      return "all_distances";
    case QueryKind::kReachability:
      return "reachability";
  }
  return "?";
}

const char* to_string(Consistency c) {
  return c == Consistency::kExactOrRefuse ? "exact" : "best_effort";
}

namespace {

// Narrows a wire id to a graph id. Values beyond 32 bits clamp to the
// all-ones invalid id instead of wrapping — a wrapped id would alias a valid
// vertex/edge and be *answered*, where the clamped one is refused by the
// service's range validation as the unknown id it is.
Vertex narrow_id(std::uint64_t u) {
  return u > 0xffffffffULL ? kInvalidVertex : static_cast<Vertex>(u);
}

constexpr std::uint64_t kInt64Max =
    static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max());

// Every field back to its default, capacities kept.
void reset(ParsedRequest& out) {
  QueryRequest& req = out.request;
  req.id = -1;
  req.source = 0;
  req.targets.clear();
  req.fault_edges.clear();
  req.fault_vertices.clear();
  req.kind = QueryKind::kDistance;
  req.consistency = Consistency::kExactOrRefuse;
  req.structure.clear();
  req.deadline_ms = 0;
  out.status = ParseStatus::kOk;
  out.tenant.clear();
  out.warnings.clear();
  out.resolve_status = StatusCode::kUnknownSource;
  out.error.clear();
  out.edge_pairs.clear();
}

// A syntax error carries nothing of the line but its reason.
void syntax_error(ParsedRequest& out, std::string why) {
  reset(out);
  out.status = ParseStatus::kSyntax;
  out.error = std::move(why);
}

void append_uint(std::string& out, std::uint64_t v) {
  char buf[20];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

void append_bool(std::string& out, bool b) { out += b ? "true" : "false"; }

// `"id":N,` for an id-bearing line, else `"seq":N,` when a relaxed serve loop
// stamped one (never both, so id-bearing lines match the ordered mode byte
// for byte — docs/serving.md "Ordered vs relaxed").
void append_correlation(std::string& out, std::int64_t id, std::int64_t seq) {
  if (id < 0 && seq < 0) return;
  out += id >= 0 ? "\"id\":" : "\"seq\":";
  append_uint(out, static_cast<std::uint64_t>(id >= 0 ? id : seq));
  out += ',';
}

}  // namespace

void parse_request_into(std::string_view line, const GraphResolver& resolve,
                        ParsedRequest& out) {
  using Kind = JsonCursor::Kind;
  reset(out);
  QueryRequest& req = out.request;
  JsonCursor c(line);
  bool have_source = false;
  // The first field error is kept in out.error, and the rest of the line is
  // still read: a syntax error anywhere in it wins over a field error.
  bool field_failed = false;
  // Returns the message to extend, or nullptr when an earlier one stands.
  const auto field_error = [&](std::string_view why) -> std::string* {
    if (field_failed) return nullptr;
    field_failed = true;
    return &out.error.assign(why);
  };
  const auto uint_field = [&](std::optional<std::uint64_t>& u,
                              std::string_view why) {
    if (!c.uint_value(u)) return false;
    if (!u) field_error(why);
    return true;
  };
  const auto id_array = [&](std::vector<Vertex>& into, std::string_view why) {
    if (c.peek() != Kind::kArray) {
      field_error(why);
      return c.skip();
    }
    return c.array([&] {
      std::optional<std::uint64_t> u;
      if (!uint_field(u, why)) return false;
      if (u) into.push_back(narrow_id(*u));
      return true;
    });
  };
  // Endpoint pairs are collected first and resolved only after the whole
  // object is read — key order is arbitrary: a resolution failure must
  // still see a later "id" key to echo it, and the graph to resolve against
  // is only known once a (possibly trailing) "tenant" key has been seen.
  const auto edge_pairs = [&] {
    static constexpr std::string_view kWhy =
        "\"fault_edges\" must be an array of [u,v] pairs";
    if (c.peek() != Kind::kArray) {
      field_error(kWhy);
      return c.skip();
    }
    return c.array([&] {
      if (c.peek() != Kind::kArray) {
        field_error(kWhy);
        return c.skip();
      }
      std::uint64_t ends[2] = {0, 0};
      std::size_t count = 0;
      bool ok = true;
      const bool read = c.array([&] {
        std::optional<std::uint64_t> u;
        if (!c.uint_value(u)) return false;
        if (!u) ok = false;
        if (u && count < 2) ends[count] = *u;
        ++count;
        return true;
      });
      if (!read) return false;
      if (ok && count == 2) {
        out.edge_pairs.emplace_back(ends[0], ends[1]);
      } else {
        field_error(kWhy);
      }
      return true;
    });
  };
  // A string value, or nullopt after recording `why` for anything else.
  const auto string_field = [&](std::optional<std::string_view>& s,
                                std::string_view why) {
    if (c.peek() != Kind::kString) {
      field_error(why);
      return c.skip();
    }
    std::string_view v;
    if (!c.string(v)) return false;
    s = v;
    return true;
  };
  const auto member = [&](std::string_view key) {
    std::optional<std::uint64_t> u;
    std::optional<std::string_view> s;
    if (key == "id" || key == "deadline_ms") {
      const bool is_id = key == "id";
      if (!c.uint_value(u)) return false;
      if (!u || *u > kInt64Max) {
        field_error(is_id ? "\"id\" must be a non-negative integer"
                          : "\"deadline_ms\" must be a non-negative integer");
      } else {
        (is_id ? req.id : req.deadline_ms) = static_cast<std::int64_t>(*u);
      }
      return true;
    }
    if (key == "source") {
      if (!uint_field(u, "\"source\" must be a vertex id")) return false;
      if (u) {
        req.source = narrow_id(*u);
        have_source = true;
      }
      return true;
    }
    if (key == "targets") {
      return id_array(req.targets, "\"targets\" must be an array of vertex ids");
    }
    if (key == "fault_vertices") {
      return id_array(req.fault_vertices,
                      "\"fault_vertices\" must be an array of vertex ids");
    }
    if (key == "fault_edges") return edge_pairs();
    if (key == "kind") {
      if (!string_field(s, "\"kind\" must be a string")) return false;
      if (!s) return true;
      if (*s == "distance") {
        req.kind = QueryKind::kDistance;
      } else if (*s == "path") {
        req.kind = QueryKind::kPath;
      } else if (*s == "all_distances") {
        req.kind = QueryKind::kAllDistances;
      } else if (*s == "reachability") {
        req.kind = QueryKind::kReachability;
      } else {
        if (std::string* e = field_error("unknown kind \"")) {
          e->append(*s).append("\"");
        }
      }
      return true;
    }
    if (key == "consistency") {
      if (!string_field(s, "\"consistency\" must be a string")) return false;
      if (!s) return true;
      if (*s == "exact" || *s == "exact_or_refuse") {
        req.consistency = Consistency::kExactOrRefuse;
      } else if (*s == "best_effort") {
        req.consistency = Consistency::kBestEffort;
      } else {
        if (std::string* e = field_error("unknown consistency \"")) {
          e->append(*s).append("\"");
        }
      }
      return true;
    }
    if (key == "structure" || key == "tenant") {
      const bool is_structure = key == "structure";
      if (!string_field(s, is_structure ? "\"structure\" must be a string"
                                        : "\"tenant\" must be a string")) {
        return false;
      }
      if (s) (is_structure ? req.structure : out.tenant).assign(*s);
      return true;
    }
    // Unknown keys are echoed as warnings rather than rejected (or worse,
    // silently ignored): the client learns its field did nothing, but a
    // request from one protocol revision ahead still gets an answer.
    std::string warning = "unknown request key \"";
    warning.append(key).append("\"");
    out.warnings.push_back(std::move(warning));
    return c.skip();
  };

  const bool is_object = c.peek() == Kind::kObject;
  if (!(is_object ? c.object(member) : c.skip()) || !c.finish()) {
    return syntax_error(out, c.error());
  }
  if (!is_object) {
    return syntax_error(out, "request line must be a JSON object");
  }
  if (field_failed) return syntax_error(out, std::move(out.error));
  if (!have_source) return syntax_error(out, "request is missing \"source\"");

  const Graph* g = resolve(out.tenant);
  if (g == nullptr) {
    out.status = ParseStatus::kResolve;
    out.resolve_status = StatusCode::kUnknownTenant;
    out.error = "unknown tenant '" + out.tenant + "'";
    return;
  }
  for (const auto& [eu, ev] : out.edge_pairs) {
    const std::string edge_name =
        "(" + std::to_string(eu) + "," + std::to_string(ev) + ")";
    if (eu >= g->num_vertices() || ev >= g->num_vertices()) {
      out.status = ParseStatus::kResolve;
      out.error = "fault edge " + edge_name + " endpoint out of range";
      return;
    }
    const EdgeId e =
        g->find_edge(static_cast<Vertex>(eu), static_cast<Vertex>(ev));
    if (e == kInvalidEdge) {
      out.status = ParseStatus::kResolve;
      out.error = "fault edge " + edge_name + " not in graph";
      return;
    }
    req.fault_edges.push_back(e);
  }
}

ParsedRequest parse_request_line(const std::string& line,
                                 const GraphResolver& resolve) {
  ParsedRequest out;
  parse_request_into(line, resolve, out);
  return out;
}

ParsedRequest parse_request_line(const std::string& line, const Graph& g) {
  return parse_request_line(
      line, [&g](const std::string& tenant) -> const Graph* {
        return tenant.empty() ? &g : nullptr;
      });
}

void append_response_line(std::string& out, const QueryResponse& resp) {
  // Room for a typical line (short ids, distances below 1000) in at most one
  // allocation; a longer one grows as usual.
  out.reserve(out.size() + 128 +
              4 * (resp.distances.size() + resp.reachable.size()) +
              resp.error.size());
  out += '{';
  append_correlation(out, resp.id, resp.seq);
  out += "\"status\":\"";
  out += to_string(resp.status);
  out += "\",\"exact\":";
  append_bool(out, resp.exact);
  if (!resp.served_by.empty()) {
    out += ",\"served_by\":\"";
    json_escape_into(out, resp.served_by);
    out += '"';
  }
  out += ",\"cache_hit\":";
  append_bool(out, resp.cache_hit);
  if (!resp.distances.empty()) {
    out += ",\"distances\":[";
    for (std::size_t i = 0; i < resp.distances.size(); ++i) {
      if (i > 0) out += ',';
      if (resp.distances[i] == kInfHops) {
        out += "-1";
      } else {
        append_uint(out, resp.distances[i]);
      }
    }
    out += ']';
  }
  if (!resp.paths.empty()) {
    out += ",\"paths\":[";
    for (std::size_t i = 0; i < resp.paths.size(); ++i) {
      if (i > 0) out += ',';
      out += '[';
      for (std::size_t j = 0; j < resp.paths[i].size(); ++j) {
        if (j > 0) out += ',';
        append_uint(out, resp.paths[i][j]);
      }
      out += ']';
    }
    out += ']';
  }
  if (!resp.reachable.empty()) {
    out += ",\"reachable\":[";
    for (std::size_t i = 0; i < resp.reachable.size(); ++i) {
      if (i > 0) out += ',';
      append_bool(out, resp.reachable[i]);
    }
    out += ']';
  }
  if (!resp.warnings.empty()) {
    out += ",\"warnings\":[";
    for (std::size_t i = 0; i < resp.warnings.size(); ++i) {
      if (i > 0) out += ',';
      out += '"';
      json_escape_into(out, resp.warnings[i]);
      out += '"';
    }
    out += ']';
  }
  if (!resp.error.empty()) {
    out += ",\"error\":\"";
    json_escape_into(out, resp.error);
    out += '"';
  }
  out += '}';
}

std::string format_response_line(const QueryResponse& resp) {
  std::string out;
  append_response_line(out, resp);
  return out;
}

void append_parse_error_line(std::string& out, const ParsedRequest& parsed,
                             std::int64_t seq) {
  out += '{';
  append_correlation(out, parsed.request.id, seq);
  out += "\"status\":\"parse_error\",\"error\":\"";
  json_escape_into(out, parsed.error);
  out += "\"}";
}

std::string format_parse_error_line(const ParsedRequest& parsed,
                                    std::int64_t seq) {
  std::string out;
  append_parse_error_line(out, parsed, seq);
  return out;
}

}  // namespace ftbfs
