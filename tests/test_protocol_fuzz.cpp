// Robustness tests for the hand-rolled JSONL wire parser and the socket
// framer: a serving process parses hostile bytes for a living, so malformed
// input of every shape — truncated lines, nesting bombs, huge numbers,
// invalid UTF-8, embedded NULs, oversized lines — must come back as a parse
// error (or a served request with warnings), never a crash, hang, or
// unparseable response line. The deterministic mutation fuzz at the bottom
// hammers the parser with seeded garbage so a regression shows up as a
// reproducible seed, not a flake. The differential tests hold the pull
// cursor (parse_request_into) to the DOM reader it replaced, kept in
// reference_json.h.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "graph/generators.h"
#include "net/framing.h"
#include "reference_json.h"
#include "service/protocol.h"
#include "util/rng.h"

namespace ftbfs {
namespace {

ParseStatus parse_status(const std::string& line, const Graph& g) {
  return parse_request_line(line, g).status;
}

// --- truncation ------------------------------------------------------------

TEST(ProtocolFuzz, EveryPrefixOfAValidRequestIsHandled) {
  const Graph g = cycle_graph(8);
  const std::string full =
      R"({"id":3,"source":0,"targets":[2,4],"kind":"path",)"
      R"("fault_edges":[[0,1],[4,5]],"consistency":"best_effort"})";
  ASSERT_EQ(parse_status(full, g), ParseStatus::kOk);
  // No prefix may crash; every proper prefix must be a syntax error (none of
  // them is a complete JSON object).
  for (std::size_t len = 0; len < full.size(); ++len) {
    const ParsedRequest parsed = parse_request_line(full.substr(0, len), g);
    EXPECT_EQ(parsed.status, ParseStatus::kSyntax) << "prefix length " << len;
    EXPECT_FALSE(parsed.error.empty()) << "prefix length " << len;
  }
}

// --- nesting bombs ---------------------------------------------------------

TEST(ProtocolFuzz, DeepNestingIsRejectedNotRecursed) {
  const Graph g = cycle_graph(4);
  for (const char open : {'[', '{'}) {
    for (const std::size_t depth : {33u, 1000u, 200000u}) {
      std::string bomb = R"({"source":)";
      bomb.append(depth, open);
      EXPECT_EQ(parse_status(bomb, g), ParseStatus::kSyntax)
          << open << " x" << depth;
    }
  }
  // Depth just under the cap still parses (the cap must not reject the
  // legitimate shallow requests the protocol actually uses).
  std::string ok = R"({"a":[[[[[[[[[[1]]]]]]]]]],"source":0})";
  const ParsedRequest parsed = parse_request_line(ok, g);
  EXPECT_EQ(parsed.status, ParseStatus::kOk) << parsed.error;
}

// --- numbers at the edge of representability -------------------------------

TEST(ProtocolFuzz, HugeAndDegenerateNumbersNeverReachUndefinedCasts) {
  const Graph g = cycle_graph(4);
  // "1e999" parses to +inf; anything at or past 2^64, negative, fractional,
  // or non-numeric must fail the integer read cleanly (the double→uint64 cast
  // on such values is undefined behavior, so it must never run).
  for (const char* source : {"1e999", "-1e999", "18446744073709551616",
                             "1e300", "-1", "0.5", "3.25", "\"7\"", "null",
                             "true", "[]", "1e-300"}) {
    const std::string line =
        std::string(R"({"source":)") + source + ",\"targets\":[1]}";
    const ParsedRequest parsed = parse_request_line(line, g);
    EXPECT_EQ(parsed.status, ParseStatus::kSyntax) << line;
  }
  // In range but beyond 32 bits: parses, then must be *refused* downstream
  // (narrow_id clamps to the invalid vertex), covered in test_service.cpp.
  EXPECT_EQ(parse_status(R"({"source":4294967296})", g), ParseStatus::kOk);
  // Ids above int64 max are syntax errors, not negative ids.
  EXPECT_EQ(parse_status(R"({"id":9223372036854775808,"source":0})", g),
            ParseStatus::kSyntax);
}

// --- hostile strings -------------------------------------------------------

TEST(ProtocolFuzz, InvalidUtf8AndNulBytesRoundTripSafely) {
  const Graph g = cycle_graph(4);
  // Invalid UTF-8 sequences pass through as bytes (the wire treats strings
  // as bytes); embedded NULs and control bytes must not truncate anything.
  std::string key = "ke\xff\xfe";
  key += '\0';
  key += "\x01y";
  std::string line = "{\"";
  line += key;
  line += R"(":1,"source":0})";
  const ParsedRequest parsed = parse_request_line(line, g);
  ASSERT_EQ(parsed.status, ParseStatus::kOk) << parsed.error;
  ASSERT_EQ(parsed.warnings.size(), 1u);

  // The warning echoes the hostile key — the formatted response line must
  // still be one line of valid JSON: control bytes escaped, no raw newline.
  QueryResponse resp;
  resp.id = 1;
  resp.warnings = parsed.warnings;
  resp.error = "with\nnewline\tand\x02stx";
  const std::string out = format_response_line(resp);
  EXPECT_EQ(out.find('\n'), std::string::npos);
  EXPECT_EQ(out.find('\x02'), std::string::npos);
  EXPECT_NE(out.find("\\u0002"), std::string::npos);
  JsonValue reparsed;
  std::string err;
  EXPECT_TRUE(JsonReader(out).parse(reparsed, err)) << err << "\n" << out;
  // The echoed key survives byte-for-byte through escape + reparse.
  const JsonValue* warnings = reparsed.find("warnings");
  ASSERT_NE(warnings, nullptr);
  ASSERT_EQ(warnings->array.size(), 1u);
  EXPECT_EQ(warnings->array[0].str, "unknown request key \"" + key + "\"");
}

TEST(ProtocolFuzz, UnterminatedStringsAndEscapes) {
  const Graph g = cycle_graph(4);
  for (const char* line : {R"({"source)", R"({"kind":"dist)",
                           R"({"kind":"\)", R"({"kind":"\q"})",
                           R"({"kind":"A"})"}) {
    EXPECT_EQ(parse_status(line, g), ParseStatus::kSyntax) << line;
  }
}

// --- framer ----------------------------------------------------------------

struct FramedLine {
  std::string line;
  bool oversized;
};

std::vector<FramedLine> feed_all(LineFramer& framer, const std::string& bytes,
                                 std::size_t chunk) {
  std::vector<FramedLine> out;
  for (std::size_t i = 0; i < bytes.size(); i += chunk) {
    const std::size_t n = std::min(chunk, bytes.size() - i);
    framer.feed(bytes.data() + i, n, [&](const std::string& line, bool big) {
      out.push_back({line, big});
    });
  }
  return out;
}

TEST(ProtocolFuzz, FramerReassemblesAcrossArbitraryChunking) {
  const std::string stream = "{\"a\":1}\r\n\n \t\r\n{\"b\":2}\nxyz";
  for (const std::size_t chunk : {1u, 2u, 3u, 7u, 1024u}) {
    LineFramer framer(64);
    auto lines = feed_all(framer, stream, chunk);
    // Whitespace-only lines are skipped: neither requests nor errors.
    ASSERT_EQ(lines.size(), 2u) << "chunk " << chunk;
    EXPECT_EQ(lines[0].line, "{\"a\":1}");  // \r stripped
    EXPECT_EQ(lines[1].line, "{\"b\":2}");
    for (const FramedLine& l : lines) EXPECT_FALSE(l.oversized);
    EXPECT_TRUE(framer.mid_line());  // "xyz" never got its newline
    // End of stream delivers the unterminated tail as a line.
    framer.finish([&](const std::string& line, bool big) {
      lines.push_back({line, big});
    });
    ASSERT_EQ(lines.size(), 3u);
    EXPECT_EQ(lines[2].line, "xyz");
    EXPECT_FALSE(framer.mid_line());
  }
}

TEST(ProtocolFuzz, OversizedLinesAreDiscardedWithBoundedMemoryNotBuffered) {
  LineFramer framer(16);
  std::vector<FramedLine> out;
  const auto sink = [&](const std::string& line, bool big) {
    out.push_back({line, big});
  };
  // 1 MB of garbage on one line: framer must cap its buffer at 16 bytes.
  const std::string big(1u << 20, 'x');
  framer.feed(big.data(), big.size(), sink);
  EXPECT_TRUE(out.empty());
  EXPECT_TRUE(framer.mid_line());
  const char tail[] = "\n{\"ok\":1}\n";
  framer.feed(tail, sizeof tail - 1, sink);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_TRUE(out[0].oversized);   // the bomb, reported once
  EXPECT_TRUE(out[0].line.empty());
  EXPECT_FALSE(out[1].oversized);  // the stream recovers on the next line
  EXPECT_EQ(out[1].line, "{\"ok\":1}");
  EXPECT_FALSE(framer.mid_line());
  // A line of exactly the cap is kept; one byte more is oversized, also when
  // the stream ends before its newline.
  const std::string at_cap(16, 'y');
  framer.feed(at_cap.data(), at_cap.size(), sink);
  framer.feed("\n", 1, sink);
  const std::string over_cap(17, 'z');
  framer.feed(over_cap.data(), over_cap.size(), sink);
  framer.finish(sink);
  ASSERT_EQ(out.size(), 4u);
  EXPECT_FALSE(out[2].oversized);
  EXPECT_EQ(out[2].line, at_cap);
  EXPECT_TRUE(out[3].oversized);
}

// --- seeded mutation fuzz --------------------------------------------------

TEST(ProtocolFuzz, MutatedRequestsNeverCrashAndAlwaysAnswer) {
  const Graph g = cycle_graph(16);
  const std::string seed_line =
      R"({"id":1,"source":0,"targets":[3,8],"kind":"distance",)"
      R"("fault_edges":[[0,1]],"fault_vertices":[5],"structure":"identity"})";
  Rng rng(0xf02dbeefULL);
  std::string alphabet = "{}[]\",:0123456789.eE+-\\ntrufalsq\xff\x1f";
  alphabet += '\0';  // appended (a NUL inside the literal would truncate it)
  for (int iter = 0; iter < 20000; ++iter) {
    std::string line = seed_line;
    const std::size_t edits = 1 + rng.next_below(8);
    for (std::size_t e = 0; e < edits; ++e) {
      const std::size_t pos = rng.next_below(line.size());
      switch (rng.next_below(3)) {
        case 0:  // overwrite
          line[pos] = alphabet[rng.next_below(alphabet.size())];
          break;
        case 1:  // delete
          line.erase(pos, 1);
          break;
        default:  // insert
          line.insert(pos, 1, alphabet[rng.next_below(alphabet.size())]);
      }
      if (line.empty()) line.push_back('x');
    }
    const ParsedRequest parsed = parse_request_line(line, g);
    // Whatever happened, the caller can always format an answer line and
    // that line is itself valid JSON.
    std::string out;
    if (parsed.status == ParseStatus::kOk) {
      QueryResponse resp;
      resp.id = parsed.request.id;
      resp.warnings = parsed.warnings;
      out = format_response_line(resp);
    } else {
      EXPECT_FALSE(parsed.error.empty()) << line;
      out = format_parse_error_line(parsed);
    }
    JsonValue reparsed;
    std::string err;
    ASSERT_TRUE(JsonReader(out).parse(reparsed, err))
        << "iter " << iter << ": " << err << "\nresponse: " << out;
  }
}

// --- differential: parse_request_into against the DOM reader ---------------

// Every field a caller can read, one per line, so a mismatch prints as a
// readable diff. edge_pairs is parser scratch and not part of the result.
std::string describe(const ParsedRequest& p) {
  std::ostringstream os;
  const QueryRequest& r = p.request;
  os << "status " << static_cast<int>(p.status) << "\nerror " << p.error
     << "\nresolve_status " << to_string(p.resolve_status) << "\ntenant "
     << p.tenant << "\nid " << r.id << "\nsource " << r.source << "\nkind "
     << to_string(r.kind) << "\nconsistency " << to_string(r.consistency)
     << "\nstructure " << r.structure << "\ndeadline_ms " << r.deadline_ms;
  const auto list = [&](const char* name, const auto& v) {
    os << "\n" << name;
    for (const auto& x : v) os << " " << x;
  };
  list("targets", r.targets);
  list("fault_edges", r.fault_edges);
  list("fault_vertices", r.fault_vertices);
  list("warnings", p.warnings);
  return os.str();
}

// The one intended difference: the cursor reads integer tokens exactly,
// where the DOM's strtod rounded those at or above 2^53. A line with such a
// token may differ; every other line must match field for field.
bool has_wide_integer(const std::string& line) {
  for (std::size_t i = 0; i < line.size();) {
    if (line[i] < '0' || line[i] > '9') {
      ++i;
      continue;
    }
    while (i < line.size() && line[i] == '0') ++i;
    std::size_t j = i;
    while (j < line.size() && line[j] >= '0' && line[j] <= '9') ++j;
    const std::string digits = line.substr(i, j - i);
    if (digits.size() > 16 ||
        (digits.size() == 16 && digits >= "9007199254740992")) {
      return true;
    }
    i = j;
  }
  return false;
}

class ProtocolDifferential : public ::testing::Test {
 protected:
  // "" and "t1" route to the graph; any other tenant is unknown.
  ProtocolDifferential()
      : g_(cycle_graph(16)),
        resolve_([this](const std::string& tenant) -> const Graph* {
          return tenant.empty() || tenant == "t1" ? &g_ : nullptr;
        }) {}

  // Parses into the one reused object, so every comparison also checks
  // that nothing of the previous line leaks into the next.
  void check(const std::string& line) {
    ++checked_;
    parse_request_into(line, resolve_, reused_);
    const ParsedRequest old = reference_parse_request_line(line, resolve_);
    const std::string got = describe(reused_);
    const std::string want = describe(old);
    if (got == want) return;
    if (has_wide_integer(line)) {
      ++wide_;
      return;
    }
    ADD_FAILURE() << "line: " << line << "\n--- cursor\n"
                  << got << "\n--- reference\n" << want;
  }

  Graph g_;
  GraphResolver resolve_;
  ParsedRequest reused_;
  std::size_t checked_ = 0;
  std::size_t wide_ = 0;  // differences excused by has_wide_integer
};

TEST_F(ProtocolDifferential, CorpusMatchesTheDomReader) {
  std::vector<std::string> corpus = {
      // The other tests' lines.
      R"({"id":3,"source":0,"targets":[2,4],"kind":"path",)"
      R"("fault_edges":[[0,1],[4,5]],"consistency":"best_effort"})",
      R"({"a":[[[[[[[[[[1]]]]]]]]]],"source":0})",
      R"({"source":4294967296})",
      R"({"id":9223372036854775808,"source":0})",
      R"({"source)", R"({"kind":"dist)", R"({"kind":"\)", R"({"kind":"\q"})",
      R"({"kind":"A"})",
      R"({"id":1,"source":0,"targets":[3,8],"kind":"distance",)"
      R"("fault_edges":[[0,1]],"fault_vertices":[5],"structure":"identity"})",
      // Number spellings strtod accepts and JSON does not, and overflow.
      R"({"source":1e2})", R"({"source":-0})", R"({"source":0x1})",
      R"({"source":inf})", R"({"source":Infinity})", R"({"source":NaN})",
      R"({"source":nan})", R"({"source":+3})", R"({"source":.5e1})",
      R"({"source":1.})", R"({"source":1e})", R"({"source":0x})",
      R"({"source":1.5})", R"({"source":-1})", R"({"source":1e999})",
      R"({"source":007})", R"({"source":0,"x":1e-400})",
      R"({"source":0,"x":NAN(12ab)})", R"({"source":0,"x":-})",
      R"({"source":18446744073709551616})",
      R"({"source":184467440737095516160000})",
      R"({"source":0,"deadline_ms":9223372036854775808})",
      R"({"source":0,"deadline_ms":5,"deadline_ms":-5})",
      // Whitespace: \v and \f count, as isspace does in the C locale.
      "{\v\"source\"\f:\t0\r,\n\"targets\" : [ 1 , 2 ] }\v",
      "\f{\"source\":0}\f",
      // Escapes in keys and values.
      R"({"\u0069d":7,"sour\u0063e":1})", R"({"source":0,"\u00e9":1})",
      R"({"source":0,"kind":"\u0070ath"})", R"({"source":0,"k\"y":1})",
      R"({"source":0,"tenant":"t\u0031"})", R"({"source":0,"x":"\u12G4"})",
      R"({"source":0,"x":"\u12"})", R"({"source":0,"x":"\/\b\f\n\r\t"})",
      // Duplicate keys: the last scalar wins, arrays append.
      R"({"id":1,"id":2,"source":0,"source":3,"targets":[1],"targets":[2]})",
      R"({"source":0,"fault_edges":[[0,1]],"fault_edges":[[2,3]]})",
      R"({"source":0,"kind":"path","kind":"bogus"})",
      R"({"source":0,"tenant":"nobody","tenant":""})",
      // Field errors before a later syntax error: the syntax error wins.
      R"({"id":"x","source":0,"targets":[1,)",
      R"({"kind":"bogus","source":0} trailing)",
      R"({"targets":"x","source":0,"y":tru})",
      R"({"fault_edges":[[0]],"source":0,"z":[1,]})",
      // Field errors alone: the first one wins.
      R"({"kind":"bogus","consistency":"bogus","source":0})",
      R"({"kind":"","source":0})", R"({"consistency":7,"source":0})",
      R"({"targets":[1,"x"],"source":"y"})", R"({"fault_edges":[[0,1,2]],"source":0})",
      R"({"fault_edges":[[0,"1"]],"source":0})", R"({"fault_edges":[0],"source":0})",
      R"({"fault_vertices":{},"source":0})", R"({"structure":null,"source":0})",
      R"({"tenant":1,"source":0})", R"({"source":0,"deadline_ms":1.5})",
      R"({"targets":[1]})", "{}", "[]", "7", "\"s\"", "null", "", "   ", "{",
      "}", "{\"source\":0}}", "{\"source\":0,}", "{\"source\" 0}",
      "{\"source\":0 \"id\":1}", "{source:0}", "{\"source\":0]",
      // Resolution: unknown tenants and edges, with warnings and an id.
      R"({"id":4,"source":0,"tenant":"other","fault_edges":[[0,1]]})",
      R"({"id":5,"source":0,"zz":1,"fault_edges":[[0,1],[0,5]]})",
      R"({"id":6,"source":0,"fault_edges":[[0,1],[99,5]],"w":[{}]})",
      R"({"id":7,"tenant":"t1","source":0,"fault_edges":[[1,2]]})",
  };
  // Depth bombs around the cap of 32 containers, in unknown values and in
  // the fields the request reads.
  for (const std::size_t depth : {30u, 31u, 32u, 33u, 40u}) {
    corpus.push_back("{\"source\":0,\"x\":" + std::string(depth, '[') +
                     std::string(depth, ']') + "}");
    std::string objects = "{\"source\":0,\"x\":";
    for (std::size_t d = 0; d < depth; ++d) objects += "{\"k\":";
    objects += "1";
    objects += std::string(depth, '}');
    corpus.push_back(objects + "}");
    corpus.push_back("{\"source\":0,\"targets\":" + std::string(depth, '[') +
                     "1" + std::string(depth, ']') + "}");
    corpus.push_back("{\"source\":0,\"fault_edges\":" +
                     std::string(depth, '[') + std::string(depth, ']') + "}");
  }
  for (const char* source : {"1e999", "-1e999", "18446744073709551616",
                             "1e300", "-1", "0.5", "3.25", "\"7\"", "null",
                             "true", "[]", "1e-300"}) {
    corpus.push_back(std::string(R"({"source":)") + source +
                     ",\"targets\":[1]}");
  }
  std::string hostile_key = "{\"ke\xff\xfe";
  hostile_key += '\0';
  hostile_key += "\x01y\":1,\"source\":0}";
  corpus.push_back(hostile_key);
  const std::string full = corpus.front();
  for (std::size_t len = 0; len < full.size(); ++len) {
    corpus.push_back(full.substr(0, len));
  }
  for (const std::string& line : corpus) check(line);
  EXPECT_EQ(wide_, 0u);  // no token in the corpus reaches 2^53
}

TEST_F(ProtocolDifferential, SeededMutationsMatchTheDomReader) {
  const std::vector<std::string> seeds = {
      R"({"id":1,"source":0,"targets":[3,8],"kind":"distance",)"
      R"("fault_edges":[[0,1]],"fault_vertices":[5],"structure":"identity"})",
      R"({"id":12,"tenant":"t1","source":2,"kind":"all_distances",)"
      R"("consistency":"best_effort","deadline_ms":40,"extra":{"a":[1,2]}})",
      R"({"source":0,"id":3,"id":4,"targets":[1],"targets":[2,3],)"
      R"("fault_edges":[[4,5],[7,6]],"kind":"reachability","n":null})",
  };
  // Single bytes, and whole tokens spliced in as one edit.
  std::string alphabet = "{}[]\",:0123456789.eExX+-\\/ntrufalsqIN \t\v\f\xff";
  alphabet += '\0';
  const std::vector<std::string> tokens = {
      "1e2", "-0", "0x1", "inf", "NaN", "1.0", "1e999", "\\u0069", "\\u00",
      "\"id\":", "\"id\":9,", "\"source\":", "[[", "]]", "{\"a\":", "null",
      "true", "\"kind\":\"path\",", "\"tenant\":\"t1\",", "\"zz\":[],",
      std::string(33, '['), std::string(31, '['), "\v", "\f",
      "18446744073709551615", "9007199254740993"};
  Rng rng(0x5eedd1ffULL);
  for (int iter = 0; iter < 24000; ++iter) {
    std::string line = seeds[static_cast<std::size_t>(iter) % seeds.size()];
    const std::size_t edits = 1 + rng.next_below(3);
    for (std::size_t e = 0; e < edits; ++e) {
      const std::size_t pos = rng.next_below(line.size() + 1);
      switch (rng.next_below(4)) {
        case 0:  // overwrite
          if (pos < line.size()) {
            line[pos] = alphabet[rng.next_below(alphabet.size())];
          }
          break;
        case 1:  // delete
          if (pos < line.size()) line.erase(pos, 1);
          break;
        case 2:  // insert
          line.insert(pos, 1, alphabet[rng.next_below(alphabet.size())]);
          break;
        default:  // splice a token
          line.insert(pos, tokens[rng.next_below(tokens.size())]);
      }
    }
    check(line);
  }
  EXPECT_EQ(checked_, 24000u);
  // Only tokens spliced at or above 2^53 may differ, and some must have.
  EXPECT_GT(wide_, 0u);
  EXPECT_LT(wide_, checked_ / 20);
}

// The intended difference, pinned: integers at or above 2^53 are exact, and
// ids keep the int64 range.
TEST_F(ProtocolDifferential, IntegerTokensAreReadExactly) {
  parse_request_into(R"({"id":9007199254740993,"source":0})", resolve_,
                     reused_);
  ASSERT_EQ(reused_.status, ParseStatus::kOk) << reused_.error;
  EXPECT_EQ(reused_.request.id, 9007199254740993);
  parse_request_into(R"({"id":9223372036854775807,"source":0})", resolve_,
                     reused_);
  ASSERT_EQ(reused_.status, ParseStatus::kOk) << reused_.error;
  EXPECT_EQ(reused_.request.id, 9223372036854775807);
  parse_request_into(R"({"id":9223372036854775808,"source":0})", resolve_,
                     reused_);
  EXPECT_EQ(reused_.status, ParseStatus::kSyntax);
  EXPECT_EQ(reused_.error, "\"id\" must be a non-negative integer");
  parse_request_into(R"({"id":1,"source":0,"deadline_ms":4611686018427387905})",
                     resolve_, reused_);
  EXPECT_EQ(reused_.request.deadline_ms, 4611686018427387905);
  // The old reader rounded: the one documented difference.
  EXPECT_EQ(reference_parse_request_line(
                R"({"id":9007199254740993,"source":0})", resolve_)
                .request.id,
            9007199254740992);
  // Answers echo the exact id.
  QueryResponse resp;
  resp.id = 9007199254740993;
  EXPECT_EQ(format_response_line(resp).rfind("{\"id\":9007199254740993,", 0),
            0u);
}

TEST_F(ProtocolDifferential, ReusedRequestEqualsAFreshParse) {
  const std::string busy =
      R"({"id":9,"tenant":"t1","source":2,"targets":[1,2,3],"kind":"path",)"
      R"("consistency":"best_effort","structure":"identity","deadline_ms":7,)"
      R"("fault_edges":[[0,1],[5,6]],"fault_vertices":[4],"x":1,"y":2})";
  parse_request_into(busy, resolve_, reused_);
  ASSERT_EQ(reused_.status, ParseStatus::kOk) << reused_.error;
  ASSERT_EQ(reused_.warnings.size(), 2u);
  ASSERT_EQ(reused_.request.fault_edges.size(), 2u);
  EXPECT_EQ(reused_.tenant, "t1");
  for (const std::string bare :
       {R"({"source":0})", R"({"source":0,"tenant":"gone"})",
        R"({"source":0,"fault_edges":[[0,9]]})", R"({"id":1})"}) {
    parse_request_into(busy, resolve_, reused_);
    parse_request_into(bare, resolve_, reused_);
    EXPECT_EQ(describe(reused_), describe(parse_request_line(bare, resolve_)))
        << bare;
    EXPECT_TRUE(reused_.edge_pairs.size() <= 1) << bare;
  }
}

}  // namespace
}  // namespace ftbfs
