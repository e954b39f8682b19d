// Test-only reference for the wire parsers of service/json.h and
// service/protocol.h: the DOM reader (JsonValue, JsonReader,
// json_read_uint) and the request parser built on it, as they were before
// the pull cursor replaced them. The differential tests hold
// parse_request_into to reference_parse_request_line, and the socket tests
// read response lines back through JsonReader.
#pragma once

#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "service/protocol.h"

namespace ftbfs {

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  // Object member lookup (first match); nullptr when absent or not an object.
  [[nodiscard]] const JsonValue* find(std::string_view key) const;
};

class JsonReader {
 public:
  // `text` must outlive the reader (the parse borrows its bytes). std::string
  // guarantees NUL termination, which the number parser relies on.
  explicit JsonReader(const std::string& text)
      : p_(text.data()), end_(text.data() + text.size()) {}

  // Parses exactly one JSON value covering the whole input. On failure `err`
  // holds the first error encountered.
  bool parse(JsonValue& out, std::string& err);

 private:
  void skip_ws();
  bool fail(const std::string& why);
  template <typename Fn>
  bool descend(Fn parse_container);
  bool expect(char c);
  bool parse_value(JsonValue& out);
  bool parse_literal(JsonValue& out);
  bool parse_number(JsonValue& out);
  bool parse_string(std::string& out);
  bool parse_array(JsonValue& out);
  bool parse_object(JsonValue& out);

  const char* p_;
  const char* end_;
  int depth_ = 0;
  std::string err_;
};

inline const JsonValue* JsonValue::find(std::string_view key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

inline bool JsonReader::parse(JsonValue& out, std::string& err) {
  if (!parse_value(out)) {
    err = err_;
    return false;
  }
  skip_ws();
  if (p_ != end_) {
    err = "trailing characters after JSON value";
    return false;
  }
  return true;
}

inline void JsonReader::skip_ws() {
  while (p_ != end_ && std::isspace(static_cast<unsigned char>(*p_))) ++p_;
}

inline bool JsonReader::fail(const std::string& why) {
  if (err_.empty()) err_ = why;
  return false;
}

// Containers recurse; a server must not let one hostile line ('[[[[…') blow
// the stack, so nesting is capped well beyond any legitimate request.
template <typename Fn>
inline bool JsonReader::descend(Fn parse_container) {
  if (depth_ >= 32) return fail("nesting too deep");
  ++depth_;
  const bool ok = parse_container();
  --depth_;
  return ok;
}

inline bool JsonReader::expect(char c) {
  skip_ws();
  if (p_ == end_ || *p_ != c) {
    return fail(std::string("expected '") + c + "'");
  }
  ++p_;
  return true;
}

inline bool JsonReader::parse_value(JsonValue& out) {
  skip_ws();
  if (p_ == end_) return fail("unexpected end of input");
  switch (*p_) {
    case '{':
      return descend([&] { return parse_object(out); });
    case '[':
      return descend([&] { return parse_array(out); });
    case '"':
      out.kind = JsonValue::Kind::kString;
      return parse_string(out.str);
    case 't':
    case 'f':
      return parse_literal(out);
    case 'n':
      return parse_literal(out);
    default:
      return parse_number(out);
  }
}

inline bool JsonReader::parse_literal(JsonValue& out) {
  auto take = [&](const char* word) {
    const char* q = p_;
    for (const char* w = word; *w != '\0'; ++w, ++q) {
      if (q == end_ || *q != *w) return false;
    }
    p_ = q;
    return true;
  };
  if (take("true")) {
    out.kind = JsonValue::Kind::kBool;
    out.boolean = true;
    return true;
  }
  if (take("false")) {
    out.kind = JsonValue::Kind::kBool;
    out.boolean = false;
    return true;
  }
  if (take("null")) {
    out.kind = JsonValue::Kind::kNull;
    return true;
  }
  return fail("invalid literal");
}

inline bool JsonReader::parse_number(JsonValue& out) {
  // The backing string is NUL-terminated, so strtod cannot scan past end_.
  char* after = nullptr;
  out.number = std::strtod(p_, &after);
  if (after == p_ || after > end_) return fail("invalid number");
  out.kind = JsonValue::Kind::kNumber;
  p_ = after;
  return true;
}

inline bool JsonReader::parse_string(std::string& out) {
  if (!expect('"')) return false;
  out.clear();
  while (p_ != end_ && *p_ != '"') {
    char c = *p_++;
    if (c == '\\') {
      if (p_ == end_) return fail("unterminated escape");
      const char esc = *p_++;
      switch (esc) {
        case '"': c = '"'; break;
        case '\\': c = '\\'; break;
        case '/': c = '/'; break;
        case 'b': c = '\b'; break;
        case 'f': c = '\f'; break;
        case 'n': c = '\n'; break;
        case 'r': c = '\r'; break;
        case 't': c = '\t'; break;
        case 'u': {
          // \uXXXX, UTF-8-encoded into the output. Our own writer only emits
          // \u00XX (control bytes), but the reader accepts the full BMP so
          // round-tripping any response line through the reader works.
          if (end_ - p_ < 4) return fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = *p_++;
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return fail("invalid \\u escape");
            }
          }
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          continue;
        }
        default:
          return fail("unsupported string escape");
      }
    }
    out.push_back(c);
  }
  if (p_ == end_) return fail("unterminated string");
  ++p_;  // closing quote
  return true;
}

inline bool JsonReader::parse_array(JsonValue& out) {
  if (!expect('[')) return false;
  out.kind = JsonValue::Kind::kArray;
  skip_ws();
  if (p_ != end_ && *p_ == ']') {
    ++p_;
    return true;
  }
  while (true) {
    JsonValue elem;
    if (!parse_value(elem)) return false;
    out.array.push_back(std::move(elem));
    skip_ws();
    if (p_ != end_ && *p_ == ',') {
      ++p_;
      continue;
    }
    return expect(']');
  }
}

inline bool JsonReader::parse_object(JsonValue& out) {
  if (!expect('{')) return false;
  out.kind = JsonValue::Kind::kObject;
  skip_ws();
  if (p_ != end_ && *p_ == '}') {
    ++p_;
    return true;
  }
  while (true) {
    std::string key;
    if (!parse_string(key)) return false;
    if (!expect(':')) return false;
    JsonValue value;
    if (!parse_value(value)) return false;
    out.object.emplace_back(std::move(key), std::move(value));
    skip_ws();
    if (p_ != end_ && *p_ == ',') {
      ++p_;
      continue;
    }
    return expect('}');
  }
}

// Reads a JSON number as a non-negative integer id; false on anything else —
// including values at or beyond 2^64, NaN, and infinities, none of which may
// reach the (otherwise undefined) double→uint64 cast.
inline bool json_read_uint(const JsonValue& v, std::uint64_t& out) {
  // The range guard must run BEFORE the cast: converting a double at or
  // beyond 2^64 (or NaN/inf — "1e999" parses to inf) to uint64_t is undefined
  // behavior. NaN fails the >= 0 comparison; 18446744073709551616.0 is
  // exactly 2^64 in double.
  if (v.kind != JsonValue::Kind::kNumber ||
      !(v.number >= 0.0 && v.number < 18446744073709551616.0)) {
    return false;
  }
  const std::uint64_t u = static_cast<std::uint64_t>(v.number);
  if (v.number != static_cast<double>(u)) return false;  // fractional
  out = u;
  return true;
}

inline Vertex reference_narrow_id(std::uint64_t u) {
  return u > 0xffffffffULL ? kInvalidVertex : static_cast<Vertex>(u);
}

inline ParsedRequest reference_syntax_error(std::string why) {
  ParsedRequest out;
  out.status = ParseStatus::kSyntax;
  out.error = std::move(why);
  return out;
}

// The request parser that read lines through the DOM above.
inline ParsedRequest reference_parse_request_line(
    const std::string& line, const GraphResolver& resolve) {
  JsonValue root;
  std::string err;
  if (!JsonReader(line).parse(root, err)) return reference_syntax_error(err);
  if (root.kind != JsonValue::Kind::kObject) {
    return reference_syntax_error("request line must be a JSON object");
  }

  ParsedRequest out;
  QueryRequest& req = out.request;
  bool have_source = false;
  // Endpoint pairs are collected first and resolved only after the whole
  // object is parsed — key order is arbitrary: a resolution failure must
  // still see a later "id" key to echo it, and the graph to resolve against
  // is only known once a (possibly trailing) "tenant" key has been seen.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> edge_pairs;
  for (const auto& [key, value] : root.object) {
    std::uint64_t u = 0;
    if (key == "id") {
      if (!json_read_uint(value, u) ||
          u > static_cast<std::uint64_t>(
                  std::numeric_limits<std::int64_t>::max())) {
        return reference_syntax_error("\"id\" must be a non-negative integer");
      }
      req.id = static_cast<std::int64_t>(u);
    } else if (key == "source") {
      if (!json_read_uint(value, u)) {
        return reference_syntax_error("\"source\" must be a vertex id");
      }
      req.source = reference_narrow_id(u);
      have_source = true;
    } else if (key == "targets") {
      if (value.kind != JsonValue::Kind::kArray) {
        return reference_syntax_error("\"targets\" must be an array of vertex ids");
      }
      for (const JsonValue& t : value.array) {
        if (!json_read_uint(t, u)) {
          return reference_syntax_error("\"targets\" must be an array of vertex ids");
        }
        req.targets.push_back(reference_narrow_id(u));
      }
    } else if (key == "fault_vertices") {
      if (value.kind != JsonValue::Kind::kArray) {
        return reference_syntax_error("\"fault_vertices\" must be an array of vertex ids");
      }
      for (const JsonValue& t : value.array) {
        if (!json_read_uint(t, u)) {
          return reference_syntax_error(
              "\"fault_vertices\" must be an array of vertex ids");
        }
        req.fault_vertices.push_back(reference_narrow_id(u));
      }
    } else if (key == "fault_edges") {
      if (value.kind != JsonValue::Kind::kArray) {
        return reference_syntax_error("\"fault_edges\" must be an array of [u,v] pairs");
      }
      for (const JsonValue& pair : value.array) {
        std::uint64_t eu = 0, ev = 0;
        if (pair.kind != JsonValue::Kind::kArray || pair.array.size() != 2 ||
            !json_read_uint(pair.array[0], eu) ||
            !json_read_uint(pair.array[1], ev)) {
          return reference_syntax_error("\"fault_edges\" must be an array of [u,v] pairs");
        }
        edge_pairs.emplace_back(eu, ev);
      }
    } else if (key == "kind") {
      if (value.kind != JsonValue::Kind::kString) {
        return reference_syntax_error("\"kind\" must be a string");
      }
      if (value.str == "distance") {
        req.kind = QueryKind::kDistance;
      } else if (value.str == "path") {
        req.kind = QueryKind::kPath;
      } else if (value.str == "all_distances") {
        req.kind = QueryKind::kAllDistances;
      } else if (value.str == "reachability") {
        req.kind = QueryKind::kReachability;
      } else {
        return reference_syntax_error("unknown kind \"" + value.str + "\"");
      }
    } else if (key == "consistency") {
      if (value.kind != JsonValue::Kind::kString) {
        return reference_syntax_error("\"consistency\" must be a string");
      }
      if (value.str == "exact" || value.str == "exact_or_refuse") {
        req.consistency = Consistency::kExactOrRefuse;
      } else if (value.str == "best_effort") {
        req.consistency = Consistency::kBestEffort;
      } else {
        return reference_syntax_error("unknown consistency \"" + value.str + "\"");
      }
    } else if (key == "structure") {
      if (value.kind != JsonValue::Kind::kString) {
        return reference_syntax_error("\"structure\" must be a string");
      }
      req.structure = value.str;
    } else if (key == "tenant") {
      if (value.kind != JsonValue::Kind::kString) {
        return reference_syntax_error("\"tenant\" must be a string");
      }
      out.tenant = value.str;
    } else if (key == "deadline_ms") {
      if (!json_read_uint(value, u) ||
          u > static_cast<std::uint64_t>(
                  std::numeric_limits<std::int64_t>::max())) {
        return reference_syntax_error("\"deadline_ms\" must be a non-negative integer");
      }
      req.deadline_ms = static_cast<std::int64_t>(u);
    } else {
      // Unknown keys are echoed as warnings rather than rejected (or worse,
      // silently ignored): the client learns its field did nothing, but a
      // request from one protocol revision ahead still gets an answer.
      out.warnings.push_back("unknown request key \"" + key + "\"");
    }
  }
  if (!have_source) return reference_syntax_error("request is missing \"source\"");

  const Graph* g = resolve(out.tenant);
  if (g == nullptr) {
    out.status = ParseStatus::kResolve;
    out.resolve_status = StatusCode::kUnknownTenant;
    out.error = "unknown tenant '" + out.tenant + "'";
    return out;
  }
  for (const auto& [eu, ev] : edge_pairs) {
    std::string edge_name = "(";
    edge_name += std::to_string(eu);
    edge_name += ",";
    edge_name += std::to_string(ev);
    edge_name += ")";
    if (eu >= g->num_vertices() || ev >= g->num_vertices()) {
      out.status = ParseStatus::kResolve;
      out.error = "fault edge " + edge_name + " endpoint out of range";
      return out;
    }
    const EdgeId e =
        g->find_edge(static_cast<Vertex>(eu), static_cast<Vertex>(ev));
    if (e == kInvalidEdge) {
      out.status = ParseStatus::kResolve;
      out.error = "fault edge " + edge_name + " not in graph";
      return out;
    }
    req.fault_edges.push_back(e);
  }
  return out;
}

}  // namespace ftbfs
