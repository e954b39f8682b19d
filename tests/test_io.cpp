#include "graph/io.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "graph/generators.h"
#include "util/rng.h"

namespace ftbfs {
namespace {

// ---- reference reader -------------------------------------------------------

// The line-at-a-time istringstream reader the loader used to be, with its
// GraphBuilder spelled out: sorted per-vertex staging lists for the duplicate
// check, and a CSR whose lists are sorted one vertex at a time. The
// differential tests below hold the block reader to it.
struct RefGraph {
  Vertex n = 0;
  std::vector<Edge> edges;
  std::vector<std::vector<Arc>> adjacency;
};

struct RefResult {
  bool ok = false;
  std::string error;  // GraphIoError::what()
  std::size_t line = 0;
  RefGraph graph;
};

RefResult reference_read(const std::string& text) {
  RefResult out;
  auto fail = [&out](std::size_t line, const std::string& message) {
    out.error = GraphIoError(line, message).what();
    out.line = line;
    return out;
  };
  std::istringstream is(text);
  std::optional<Vertex> n;
  std::vector<std::vector<Vertex>> staged;
  std::vector<Edge> edges;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream tokens(line);
    std::string tag;
    if (!(tokens >> tag)) continue;
    if (tag == "n") {
      if (n.has_value()) return fail(line_no, "duplicate 'n' header");
      long long count = -1;
      if (!(tokens >> count) || count < 0) {
        return fail(line_no, "expected 'n <count>'");
      }
      n = static_cast<Vertex>(count);
    } else if (tag == "e") {
      if (!n.has_value()) return fail(line_no, "'e' before 'n' header");
      long long u = -1, v = -1;
      if (!(tokens >> u >> v) || u < 0 || v < 0) {
        return fail(line_no, "expected 'e <u> <v>'");
      }
      if (u >= *n || v >= *n) return fail(line_no, "endpoint out of range");
      if (u == v) return fail(line_no, "self-loop");
      Edge e{static_cast<Vertex>(std::min(u, v)),
             static_cast<Vertex>(std::max(u, v))};
      if (staged.empty()) staged.resize(*n);
      auto& list = staged[e.u];
      const auto it = std::lower_bound(list.begin(), list.end(), e.v);
      if (it != list.end() && *it == e.v) {
        return fail(line_no, "duplicate edge");
      }
      list.insert(it, e.v);
      edges.push_back(e);
    } else {
      return fail(line_no, "unknown record '" + tag + "'");
    }
  }
  if (!n.has_value()) return fail(line_no, "missing 'n' header");
  out.ok = true;
  out.graph.n = *n;
  out.graph.adjacency.resize(*n);
  for (EdgeId id = 0; id < edges.size(); ++id) {
    out.graph.adjacency[edges[id].u].push_back(Arc{edges[id].v, id});
    out.graph.adjacency[edges[id].v].push_back(Arc{edges[id].u, id});
  }
  for (auto& list : out.graph.adjacency) {
    std::sort(list.begin(), list.end(),
              [](const Arc& a, const Arc& b) { return a.to < b.to; });
  }
  out.graph.edges = std::move(edges);
  return out;
}

// Runs the loader on `text` and checks it against the reference: the same
// accept or reject, error line and message, and for an accepted input the
// same vertex count, edge ids and adjacency order (neighbour and arc id).
void expect_matches_reference(const std::string& text) {
  SCOPED_TRACE(::testing::PrintToString(text.substr(0, 200)));
  const RefResult ref = reference_read(text);
  std::istringstream is(text);
  std::optional<Graph> got;
  try {
    got.emplace(read_edge_list(is));
  } catch (const GraphIoError& err) {
    ASSERT_FALSE(ref.ok) << "rejected: " << err.what();
    EXPECT_EQ(std::string(err.what()), ref.error);
    EXPECT_EQ(err.line(), ref.line);
    return;
  }
  ASSERT_TRUE(ref.ok) << "accepted; the reference says " << ref.error;
  ASSERT_EQ(got->num_vertices(), ref.graph.n);
  ASSERT_EQ(got->edges(), ref.graph.edges);
  for (Vertex v = 0; v < ref.graph.n; ++v) {
    const auto nbrs = got->neighbors(v);
    const auto& want = ref.graph.adjacency[v];
    ASSERT_EQ(nbrs.size(), want.size()) << "vertex " << v;
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(nbrs[i].to, want[i].to) << "vertex " << v << " arc " << i;
      ASSERT_EQ(nbrs[i].id, want[i].id) << "vertex " << v << " arc " << i;
    }
  }
}

TEST(GraphIo, RoundTripThroughStream) {
  const Graph g = erdos_renyi(30, 0.2, 5);
  std::stringstream buffer;
  write_edge_list(buffer, g);
  const Graph back = read_edge_list(buffer);
  ASSERT_EQ(back.num_vertices(), g.num_vertices());
  ASSERT_EQ(back.num_edges(), g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    EXPECT_TRUE(back.has_edge(g.edge(e).u, g.edge(e).v));
  }
}

TEST(GraphIo, ParsesCommentsAndBlanks) {
  std::stringstream in(
      "# header comment\n"
      "\n"
      "n 4   # trailing comment\n"
      "e 0 1\n"
      "  \n"
      "e 2 3 # another\n");
  const Graph g = read_edge_list(in);
  EXPECT_EQ(g.num_vertices(), 4u);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(2, 3));
}

TEST(GraphIo, EmptyGraph) {
  std::stringstream in("n 0\n");
  const Graph g = read_edge_list(in);
  EXPECT_EQ(g.num_vertices(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
}

TEST(GraphIo, ErrorMissingHeader) {
  std::stringstream in("e 0 1\n");
  EXPECT_THROW((void)read_edge_list(in), GraphIoError);
}

TEST(GraphIo, ErrorDuplicateHeader) {
  std::stringstream in("n 3\nn 4\n");
  EXPECT_THROW((void)read_edge_list(in), GraphIoError);
}

TEST(GraphIo, ErrorOutOfRange) {
  std::stringstream in("n 3\ne 0 3\n");
  try {
    (void)read_edge_list(in);
    FAIL() << "expected GraphIoError";
  } catch (const GraphIoError& err) {
    EXPECT_EQ(err.line(), 2u);
    EXPECT_NE(std::string(err.what()).find("out of range"),
              std::string::npos);
  }
}

TEST(GraphIo, ErrorSelfLoopAndDuplicate) {
  std::stringstream loop("n 3\ne 1 1\n");
  EXPECT_THROW((void)read_edge_list(loop), GraphIoError);
  std::stringstream dup("n 3\ne 0 1\ne 1 0\n");
  EXPECT_THROW((void)read_edge_list(dup), GraphIoError);
}

TEST(GraphIo, ErrorUnknownRecord) {
  std::stringstream in("n 3\nq 1 2\n");
  EXPECT_THROW((void)read_edge_list(in), GraphIoError);
}

TEST(GraphIo, ErrorMalformedCounts) {
  std::stringstream bad_n("n banana\n");
  EXPECT_THROW((void)read_edge_list(bad_n), GraphIoError);
  std::stringstream bad_e("n 3\ne 0\n");
  EXPECT_THROW((void)read_edge_list(bad_e), GraphIoError);
}

// A count that does not fit a Vertex, or is kInvalidVertex itself, is
// rejected on its line, before anything is allocated for it.
TEST(GraphIo, ErrorVertexCountTooLarge) {
  for (const char* count : {"4294967295", "4294967296", "4294967299",
                            "9223372036854775807"}) {
    std::stringstream in("# big\nn " + std::string(count) + "\ne 0 1\n");
    try {
      (void)read_edge_list(in);
      FAIL() << "accepted n " << count;
    } catch (const GraphIoError& err) {
      EXPECT_EQ(err.line(), 2u);
      EXPECT_STREQ(err.what(), "line 2: vertex count must be below 4294967295");
    }
  }
  std::stringstream past_long_long("n 9223372036854775808\n");
  try {
    (void)read_edge_list(past_long_long);
    FAIL() << "accepted a count past long long";
  } catch (const GraphIoError& err) {
    EXPECT_STREQ(err.what(), "line 1: expected 'n <count>'");
  }
}

// The first error in line order wins, though duplicates are only found once
// the whole edge list is in: a duplicate on line 5 beats a bad endpoint on
// line 9, and a bad endpoint on line 4 beats a duplicate on line 6.
TEST(GraphIo, DuplicateReportedInLineOrder) {
  auto error_of = [](const std::string& text) {
    std::stringstream in(text);
    try {
      (void)read_edge_list(in);
    } catch (const GraphIoError& err) {
      return std::string(err.what());
    }
    return std::string("accepted");
  };
  EXPECT_EQ(error_of("n 5\n# c\ne 0 1\ne 1 2\ne 2 1\ne 3 4\n\n\ne 0 9\n"),
            "line 5: duplicate edge");
  EXPECT_EQ(error_of("n 5\ne 0 1\ne 1 2\ne 0 9\ne 3 4\ne 2 1\n"),
            "line 4: endpoint out of range");
  EXPECT_EQ(error_of("n 5\ne 3 4\ne 0 1\ne 4 3\ne 1 0\ne 3 4\n"),
            "line 4: duplicate edge");
}

TEST(GraphIo, FileRoundTrip) {
  const Graph g = cycle_graph(12);
  const std::string path = ::testing::TempDir() + "/ftbfs_io_test.graph";
  save_graph(path, g);
  const Graph back = load_graph(path);
  EXPECT_EQ(back.num_vertices(), 12u);
  EXPECT_EQ(back.num_edges(), 12u);
  std::remove(path.c_str());
}

TEST(GraphIo, MissingFileThrows) {
  EXPECT_THROW((void)load_graph("/nonexistent/definitely/missing.graph"),
               GraphIoError);
}

// ---- differential tests against the reference reader ----------------------

TEST(GraphIoDifferential, LineEndingsAndWhitespace) {
  for (const char* text : {
           "n 4\r\ne 0 1\r\ne 2 3\r\n",
           "n 4\r\ne 0 1\r\ne 2 3",
           "\tn\t4\t\ne\t0\t1\n e  2   3 \n",
           "n 4\n\v\f\r\ne\v0\f1\r\n",
           "\r\n\r\n",
           "",
           "\n\n\n",
           "n 3\r",
           "n 3\n\re 0 1",
           "n 3\ne 0 1\re 1 2\n",
       }) {
    expect_matches_reference(text);
  }
}

TEST(GraphIoDifferential, CommentsAndTrailingTokens) {
  for (const char* text : {
           "n 4#c\ne 0 1#c\ne 2 3#\n",
           "#\nn#4\n",
           "n 4\ne 0#1\n",
           "n 4 5 6\ne 0 1 2 3\n",
           "n 4 junk\ne 0 1 junk\n",
           "n 4abc\ne 0 1x\n",
           "n 4\ne 0x 1\n",
           "n 4\ne 1+2\n",
           "n 4\ne 1-2\n",
           "n 4\ne 0 1\n#e 0 1\n",
           "n 4\n e0 1\n",
           "n 4\nee 0 1\n",
           "N 4\n",
           "n 4\nE 0 1\n",
           "nn 4\n",
           "n\n",
           "n 4\ne\n",
           "n 4\ne 1\n",
           "n 4\n\xff 1 2\n",
       }) {
    expect_matches_reference(text);
  }
  using namespace std::string_literals;
  expect_matches_reference("n 4\n\0 1 2\n"s);
  expect_matches_reference("n 4\ne 0\0 1\n"s);
  expect_matches_reference("n 4\n\0\n"s);
}

TEST(GraphIoDifferential, SignsLeadingZerosAndOverflow) {
  for (const char* text : {
           "n +4\ne +0 +1\n",
           "n 0004\ne 000 0003\n",
           "n -0\n",
           "n 4\ne -0 1\n",
           "n 4\ne -1 1\n",
           "n 4\ne +-1 2\n",
           "n 4\ne -+1 2\n",
           "n 4\ne ++1 2\n",
           "n 4\ne + 1 2\n",
           "n 4\ne - 1 2\n",
           "n -4\n",
           "n +\n",
           "n 4\ne 9223372036854775807 1\n",
           "n 4\ne 9223372036854775808 1\n",
           "n 4\ne 1 18446744073709551615\n",
           "n 4\ne 1 18446744073709551616\n",
           "n 4\ne -9223372036854775808 1\n",
           "n 4\ne -9223372036854775809 1\n",
           "n 4\ne 1 000000000000000000000000000000002\n",
           "n 4\ne 1 99999999999999999999999999999999\n",
           "n 4\ne 4294967296 1\n",
           "n 4\ne 4294967297 1\n",
           "n 9223372036854775808\n",
           "n 99999999999999999999\n",
           "n -99999999999999999999\n",
       }) {
    expect_matches_reference(text);
  }
}

TEST(GraphIoDifferential, MissingFieldsAndErrorOrder) {
  for (const char* text : {
           "n 4\ne 0 1\ne 1 2",
           "n 4\ne 0 1\ne 1",
           "n 4\ne 0 1\ne",
           "e 0 1\nn 4\n",
           "# only a comment",
           "n 4\nn 5\n",
           "n 4\ne 0 1\ne 1 0\ne 2 9\n",
           "n 4\ne 0 1\ne 2 3\ne 3 2\nq\n",
           "n 4\ne 0 1\ne 0 2\ne 1 0\ne 2 0\n",
           "n 4\ne 0 1\ne 1 0\ne 0 1\n",
           "n 4\ne 2 3\ne 0 1\ne 1 0\nn 5\n",
           "n 4\ne 2 3\ne 0 1\ne 3 3\ne 1 0\n",
           "n 4\ne 2 3\ne 0 1\ne 0 9\ne 1 0\n",
           "n 6\ne 4 5\ne 2 3\ne 0 1\ne 3 2\ne 1 0\n",
           "n 6\ne 4 5\ne 2 3\ne 0 1\ne 1 0\ne 3 2\n",
           "n 3\ne 0 1\ne 1 2\ne 0 2\ne 2 1\nbogus\n",
       }) {
    expect_matches_reference(text);
  }
}

std::string valid_file(std::uint64_t seed, bool crlf) {
  std::ostringstream os;
  write_edge_list(os, erdos_renyi(12, 0.35, seed));
  std::string text = "# seed " + std::to_string(seed) + "\n" + os.str();
  if (!crlf) return text;
  std::string out;
  for (const char c : text) {
    if (c == '\n') out += '\r';
    out += c;
  }
  return out;
}

TEST(GraphIoDifferential, RandomByteMutations) {
  static constexpr char kBytes[] = {'0', '1', '2', '9', ' ', '\t', '\r', '\n',
                                    '#', '+', '-',  'e',  'n',  'x', '\0', '\v',
                                    '\xff'};
  Rng rng(20261018);
  for (int trial = 0; trial < 3000; ++trial) {
    std::string text = valid_file(trial % 7, trial % 2 == 1);
    const int edits = 1 + static_cast<int>(rng.next_below(3));
    for (int k = 0; k < edits; ++k) {
      const std::size_t at = rng.next_below(text.size());
      const char byte = kBytes[rng.next_below(sizeof(kBytes))];
      switch (rng.next_below(4)) {
        case 0:
          text.erase(at, 1);
          break;
        case 1:
          text.insert(text.begin() + static_cast<std::ptrdiff_t>(at), byte);
          break;
        case 2: {  // repeat a line: a duplicate edge, or a second header
          const std::size_t begin = text.rfind('\n', at);
          const std::size_t end = text.find('\n', at);
          if (begin != std::string::npos && end != std::string::npos) {
            text.insert(end + 1, text.substr(begin + 1, end - begin));
          }
          break;
        }
        default:
          text[at] = byte;
      }
    }
    expect_matches_reference(text);
    if (::testing::Test::HasFailure()) break;
  }
}

// Inputs a few times larger than the loader's read block, so lines (and the
// one line longer than a block) straddle block boundaries at varied offsets.
TEST(GraphIoDifferential, LargeInputsAcrossBlocks) {
  Rng rng(7);
  const Graph g = erdos_renyi(3000, 0.01, 3);
  std::string text = "# " + std::string(200000, 'c') + "\n";
  text += "n " + std::to_string(g.num_vertices()) + "\n";
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    text += std::string(rng.next_below(40), ' ');
    text += "e " + std::to_string(g.edge(e).v) + "\t" +
            std::to_string(g.edge(e).u);
    text += rng.next_below(3) == 0 ? " # c\r\n" : "\n";
    if (e == g.num_edges() / 2) text += std::string(150000, ' ') + "\n";
  }
  expect_matches_reference(text);
  expect_matches_reference(text.substr(0, text.size() - 1));  // no final \n
  const std::size_t cut = text.rfind("\ne ");
  expect_matches_reference(text + text.substr(cut + 1));  // duplicate at end
  expect_matches_reference(text + "e 0 4000\n");          // out of range
}

TEST(GraphIoDifferential, FileLoaderMatchesStreamReader) {
  const std::string path = ::testing::TempDir() + "/ftbfs_io_diff.graph";
  for (const std::string& text : {valid_file(3, false), valid_file(4, true),
                                  std::string("n 4\ne 0 1\ne 1 0\nq\n")}) {
    {
      std::ofstream out(path, std::ios::binary);
      out << text;
    }
    std::istringstream is(text);
    std::string from_stream, from_file;
    std::optional<Graph> a, b;
    try {
      a.emplace(read_edge_list(is));
    } catch (const GraphIoError& err) {
      from_stream = err.what();
    }
    try {
      b.emplace(load_graph(path));
    } catch (const GraphIoError& err) {
      from_file = err.what();
    }
    EXPECT_EQ(from_stream, from_file);
    ASSERT_EQ(a.has_value(), b.has_value());
    if (a.has_value()) {
      EXPECT_EQ(a->edges(), b->edges());
      for (Vertex v = 0; v < a->num_vertices(); ++v) {
        ASSERT_TRUE(std::ranges::equal(
            a->neighbors(v), b->neighbors(v),
            [](const Arc& x, const Arc& y) { return x.to == y.to && x.id == y.id; }));
      }
    }
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ftbfs
