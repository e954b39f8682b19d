// Plain-text graph serialization: a minimal edge-list format so structures
// can be exchanged with external tools and the CLI.
//
// Format ("ftbfs edge list"):
//   # comment lines and blank lines are ignored
//   n <num_vertices>
//   e <u> <v>          (0-based endpoints, one per line, no duplicates)
//
// Lines end at '\n'; a last line without one still counts. A '#' starts a
// comment anywhere on a line. Tokens are separated by runs of space, tab,
// '\r', '\v' or '\f', so CRLF files read like LF ones. A number is decimal
// with an optional sign ("-0" is zero), fits a long long, and ends at the
// first character that is not a digit; anything after a record's fields is
// ignored. The vertex count must be below 4294967295 (kInvalidVertex).
// The reader takes the input in blocks and builds the CSR in linear time
// (Graph::from_edges); edge i of the file gets id i.
//
// Parsing errors throw GraphIoError with a line number — malformed input is
// an expected runtime condition, not a programming error, so exceptions (not
// contract aborts) are the right tool here. The error is that of the first
// bad line: header, range, self-loop, duplicate or unknown record.
#pragma once

#include <iosfwd>
#include <stdexcept>
#include <string>

#include "graph/graph.h"

namespace ftbfs {

class GraphIoError : public std::runtime_error {
 public:
  GraphIoError(std::size_t line, const std::string& message)
      : std::runtime_error("line " + std::to_string(line) + ": " + message),
        line_(line) {}

  [[nodiscard]] std::size_t line() const { return line_; }

 private:
  std::size_t line_;
};

// Writes the edge-list representation.
void write_edge_list(std::ostream& os, const Graph& g);

// Parses an edge list; throws GraphIoError on malformed input.
[[nodiscard]] Graph read_edge_list(std::istream& is);

// File convenience wrappers; throw GraphIoError if the file cannot be opened.
void save_graph(const std::string& path, const Graph& g);
[[nodiscard]] Graph load_graph(const std::string& path);

}  // namespace ftbfs
