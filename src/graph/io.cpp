#include "graph/io.h"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <optional>
#include <string_view>
#include <utility>
#include <vector>

namespace ftbfs {

void write_edge_list(std::ostream& os, const Graph& g) {
  os << "# ftbfs edge list\n";
  os << "n " << g.num_vertices() << "\n";
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    os << "e " << g.edge(e).u << " " << g.edge(e).v << "\n";
  }
}

namespace {

// Bytes requested from the stream at a time; a line longer than this grows
// the buffer instead.
constexpr std::size_t kReadBlock = std::size_t{64} << 10;

// The characters the "C" locale counts as white space, bar '\n', which ends
// the line before it is tokenized.
bool is_blank(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f';
}

// The rest of one line, read the way `std::istream >>` reads it: a token is
// a run of non-blank characters, and a number is an optional sign and then
// decimal digits, ending at the first character that is not a digit.
class LineCursor {
 public:
  LineCursor(const char* begin, const char* end) : p_(begin), end_(end) {}

  // The next token, or an empty view at the end of the line.
  std::string_view token() {
    skip_blanks();
    const char* begin = p_;
    while (p_ != end_ && !is_blank(*p_)) ++p_;
    return {begin, static_cast<std::size_t>(p_ - begin)};
  }

  // Reads a count: a decimal that fits a long long and is not negative ("-0"
  // is zero). False if there is none, leaving the cursor anywhere.
  bool count(std::uint64_t& out) {
    skip_blanks();
    bool negative = false;
    if (p_ != end_ && (*p_ == '+' || *p_ == '-')) negative = *p_++ == '-';
    const auto [next, ec] = std::from_chars(p_, end_, out);
    if (ec != std::errc{}) return false;
    p_ = next;
    if (negative) return out == 0;
    return out <= static_cast<std::uint64_t>(
                      std::numeric_limits<long long>::max());
  }

 private:
  void skip_blanks() {
    while (p_ != end_ && is_blank(*p_)) ++p_;
  }

  const char* p_;
  const char* end_;
};

// Takes the input one line at a time (without its '\n'), keeping the edges
// and, for error messages, the line each came from. It stops at the first
// malformed line. Duplicate edges are found only when the CSR is built, so
// a duplicate before that line is still the error reported.
class EdgeListParser {
 public:
  [[nodiscard]] bool stopped() const { return error_.has_value(); }

  void line(const char* begin, const char* end) {
    ++line_no_;
    if (const void* hash = std::memchr(begin, '#', end - begin)) {
      end = static_cast<const char*>(hash);
    }
    LineCursor cursor(begin, end);
    const std::string_view tag = cursor.token();
    if (tag.empty()) return;  // blank
    if (tag == "n") {
      header(cursor);
    } else if (tag == "e") {
      edge(cursor);
    } else {
      fail("unknown record '" + std::string(tag) + "'");
    }
  }

  Graph finish() && {
    if (!stopped() && !num_vertices_.has_value()) fail("missing 'n' header");
    EdgeId duplicate = kInvalidEdge;
    std::optional<Graph> g;
    // After a bad line, only edges before it are checked, and only if a
    // duplicate is possible: a bad file allocates nothing for its count.
    if (num_vertices_.has_value() && (!stopped() || edges_.size() > 1)) {
      g.emplace(Graph::from_edges(*num_vertices_, std::move(edges_),
                                  &duplicate));
    }
    if (duplicate != kInvalidEdge) {
      throw GraphIoError(line_of(duplicate), "duplicate edge");
    }
    if (stopped()) throw GraphIoError(error_->first, error_->second);
    return std::move(*g);
  }

 private:
  void fail(std::string message) {
    error_.emplace(line_no_, std::move(message));
  }

  void header(LineCursor& cursor) {
    if (num_vertices_.has_value()) return fail("duplicate 'n' header");
    std::uint64_t n = 0;
    if (!cursor.count(n)) return fail("expected 'n <count>'");
    if (n >= kInvalidVertex) {
      return fail("vertex count must be below " +
                  std::to_string(kInvalidVertex));
    }
    num_vertices_ = static_cast<Vertex>(n);
  }

  void edge(LineCursor& cursor) {
    if (!num_vertices_.has_value()) return fail("'e' before 'n' header");
    std::uint64_t u = 0, v = 0;
    if (!cursor.count(u) || !cursor.count(v)) {
      return fail("expected 'e <u> <v>'");
    }
    if (u >= *num_vertices_ || v >= *num_vertices_) {
      return fail("endpoint out of range");
    }
    if (u == v) return fail("self-loop");
    const auto id = static_cast<EdgeId>(edges_.size());
    edges_.push_back(Edge{static_cast<Vertex>(std::min(u, v)),
                          static_cast<Vertex>(std::max(u, v))});
    // Edge lines mostly follow one another; a run starts where they do not.
    if (runs_.empty() ||
        line_no_ - runs_.back().second != id - runs_.back().first) {
      runs_.emplace_back(id, line_no_);
    }
  }

  [[nodiscard]] std::size_t line_of(EdgeId id) const {
    const auto run = std::prev(std::upper_bound(
        runs_.begin(), runs_.end(), id,
        [](EdgeId e, const auto& r) { return e < r.first; }));
    return run->second + (id - run->first);
  }

  std::size_t line_no_ = 0;
  std::optional<Vertex> num_vertices_;
  std::vector<Edge> edges_;
  // (first edge id, its line) of each run of edges on consecutive lines.
  std::vector<std::pair<EdgeId, std::size_t>> runs_;
  std::optional<std::pair<std::size_t, std::string>> error_;
};

}  // namespace

Graph read_edge_list(std::istream& is) {
  EdgeListParser parser;
  std::vector<char> buf(kReadBlock);
  std::size_t held = 0;  // an unfinished line, kept at the front of buf
  while (!parser.stopped()) {
    if (held == buf.size()) buf.resize(2 * buf.size());
    is.read(buf.data() + held, static_cast<std::streamsize>(buf.size() - held));
    const auto got = static_cast<std::size_t>(is.gcount());
    const char* p = buf.data();
    const char* end = p + held + got;
    if (got == 0) {
      if (held > 0) parser.line(p, end);  // the last line has no '\n'
      break;
    }
    while (!parser.stopped()) {
      const void* nl = std::memchr(p, '\n', end - p);
      if (nl == nullptr) break;
      parser.line(p, static_cast<const char*>(nl));
      p = static_cast<const char*>(nl) + 1;
    }
    held = static_cast<std::size_t>(end - p);
    std::memmove(buf.data(), p, held);
  }
  return std::move(parser).finish();
}

void save_graph(const std::string& path, const Graph& g) {
  std::ofstream out(path);
  if (!out) throw GraphIoError(0, "cannot open for writing: " + path);
  write_edge_list(out, g);
}

Graph load_graph(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw GraphIoError(0, "cannot open for reading: " + path);
  return read_edge_list(in);
}

}  // namespace ftbfs
