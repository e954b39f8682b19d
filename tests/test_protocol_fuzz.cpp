// Robustness tests for the hand-rolled JSONL wire parser and the socket
// framer: a serving process parses hostile bytes for a living, so malformed
// input of every shape — truncated lines, nesting bombs, huge numbers,
// invalid UTF-8, embedded NULs, oversized lines — must come back as a parse
// error (or a served request with warnings), never a crash, hang, or
// unparseable response line. The deterministic mutation fuzz at the bottom
// hammers the parser with seeded garbage so a regression shows up as a
// reproducible seed, not a flake.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "graph/generators.h"
#include "net/framing.h"
#include "service/json.h"
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
  // or non-numeric must fail json_read_uint cleanly (the double→uint64 cast
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

}  // namespace
}  // namespace ftbfs
