// Persistence round-trip property + corruption robustness (PR 8).
//
// Round trip: a service built from scratch and a service restored from its
// snapshot must answer an identical request stream with byte-identical
// response lines (format_response_line output compared string-for-string),
// via both the mmap and buffered load paths. Corruption: deterministic fuzz
// in the style of tests/test_protocol_fuzz.cpp — truncation at every length,
// a flip of every bit, version skew with a repaired header CRC — must always
// end in a typed SnapshotError or a provably harmless load (alignment gaps
// between sections are zero fill covered by no checksum, so a flip there may
// legitimately load; it must then decode to exactly the original image).
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "graph/generators.h"
#include "graph/io.h"
#include "persist/service_io.h"
#include "persist/snapshot.h"
#include "service/oracle_service.h"
#include "service/protocol.h"
#include "service/tenant.h"
#include "util/failpoint.h"
#include "util/rng.h"

namespace ftbfs {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/ftbfs_persist_" + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void spew(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out) << path;
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good());
}

void put_u32(std::string& bytes, std::size_t offset, std::uint32_t value) {
  for (int i = 0; i < 4; ++i) {
    bytes[offset + static_cast<std::size_t>(i)] =
        static_cast<char>((value >> (8 * i)) & 0xff);
  }
}

// Header layout facts the skew tests rely on (see snapshot.cpp): the u32
// format version sits at byte 8, and the CRC-32 over bytes [0, 48) is stored
// at byte 48. Rewriting the version without repairing that CRC would be
// caught as kChecksum; these tests repair it so the *version* check is what
// fires.
constexpr std::size_t kVersionOffset = 8;
constexpr std::size_t kHeaderCrcOffset = 48;

void repair_header_crc(std::string& bytes) {
  ASSERT_GE(bytes.size(), kHeaderCrcOffset + 4);
  put_u32(bytes, kHeaderCrcOffset, crc32(bytes.data(), kHeaderCrcOffset));
}

// A deterministic request mix: every query kind, fault sets over real edge
// ids, repeats (to exercise cache hit/miss sequencing), and a couple of
// sources (to exercise lazy pool growth on the built side and restored
// coverage on the loaded side).
std::vector<QueryRequest> make_requests(const Graph& g, std::uint64_t seed) {
  Rng rng(seed);
  const Vertex n = g.num_vertices();
  const EdgeId m = g.num_edges();
  constexpr QueryKind kKinds[] = {QueryKind::kDistance, QueryKind::kPath,
                                  QueryKind::kReachability,
                                  QueryKind::kAllDistances};
  std::vector<QueryRequest> reqs;
  for (int i = 0; i < 28; ++i) {
    QueryRequest req;
    req.id = i + 1;
    req.source = (i % 2 == 0) ? 0 : static_cast<Vertex>(n / 2);
    req.kind = kKinds[i % 4];
    if (req.kind != QueryKind::kAllDistances) {
      for (int t = 0; t < 3; ++t) {
        req.targets.push_back(static_cast<Vertex>(rng.next_below(n)));
      }
    }
    const std::size_t faults = i % 3;  // 0, 1, or 2 distinct fault edges
    while (req.fault_edges.size() < faults) {
      const EdgeId e = static_cast<EdgeId>(rng.next_below(m));
      bool dup = false;
      for (EdgeId have : req.fault_edges) dup = dup || have == e;
      if (!dup) req.fault_edges.push_back(e);
    }
    reqs.push_back(std::move(req));
  }
  // Exact repeats of earlier scenarios: on both the built and the restored
  // service these must replay the same miss-then-hit cache sequence.
  reqs.push_back(reqs[2]);
  reqs.back().id = 100;
  reqs.push_back(reqs[5]);
  reqs.back().id = 101;
  return reqs;
}

std::vector<std::string> serve_all(OracleService& service,
                                   const std::vector<QueryRequest>& reqs) {
  std::vector<std::string> out;
  out.reserve(reqs.size());
  for (const QueryRequest& req : reqs) {
    out.push_back(format_response_line(service.serve(req)));
  }
  return out;
}

ServiceConfig test_config() {
  ServiceConfig config;
  config.default_budget = 2;
  config.cache_capacity = 64;
  return config;
}

// The round-trip property: responses from a restored service are
// byte-identical to the responses the originally built service gave.
void expect_roundtrip(const Graph& g, const std::string& tag) {
  const ServiceConfig config = test_config();
  OracleService built(g, config);
  const std::vector<QueryRequest> reqs = make_requests(g, 7);
  const std::vector<std::string> expected = serve_all(built, reqs);
  ASSERT_GT(built.stats().structures_built, 0u) << tag;

  const SnapshotImage image = PersistAccess::export_service(built, true);
  const std::string path = temp_path(tag + ".ftb");
  save_snapshot(path, image);

  for (const bool use_mmap : {true, false}) {
    SnapshotLoadOptions options;
    options.use_mmap = use_mmap;
    SnapshotImage loaded = load_snapshot(path, options);
    EXPECT_EQ(fingerprint_of(loaded.graph), fingerprint_of(g));

    Graph host = std::move(loaded.graph);
    OracleService restored(host, config);
    PersistAccess::restore_service(restored, loaded, /*warm_cache=*/false);
    EXPECT_EQ(restored.pool_size(), built.pool_size());

    const std::vector<std::string> got = serve_all(restored, reqs);
    EXPECT_EQ(expected, got) << tag << " use_mmap=" << use_mmap;
    // Every structure the stream needs was in the snapshot: the restored
    // service lazily built nothing.
    EXPECT_EQ(restored.stats().structures_built, 0u)
        << tag << " use_mmap=" << use_mmap;
  }
}

TEST(PersistRoundTrip, CycleGraph) { expect_roundtrip(cycle_graph(40), "cycle"); }

TEST(PersistRoundTrip, GridGraph) { expect_roundtrip(grid_graph(6, 7), "grid"); }

TEST(PersistRoundTrip, ErdosRenyi) {
  expect_roundtrip(erdos_renyi(48, 0.12, 11, /*connect_spine=*/true), "er");
}

TEST(PersistRoundTrip, BarbellGraph) {
  expect_roundtrip(barbell_graph(12, 2), "barbell");
}

// Warm-cache restore answers identically modulo the cache_hit flag (warmed
// lines hit where the cold replay missed), and actually pre-fills lines.
// Zero-length arrays — a structure with no kept edges, a delta cache line
// with an empty diff — save and load without touching their (possibly null)
// data pointers; the sanitizer build fails on such a memcpy.
TEST(PersistRoundTrip, EmptyArraysRoundTrip) {
  SnapshotImage image;
  image.graph = cycle_graph(5);
  EntryImage entry;
  entry.name = "empty";
  image.entries.push_back(entry);
  CacheLineImage line;
  line.key_words = {0, 0, 0};
  line.delta = true;
  image.cache_lines.push_back(line);
  const std::string path = temp_path("empty_arrays.ftb");
  save_snapshot(path, image, 1);
  for (const bool use_mmap : {true, false}) {
    SnapshotLoadOptions options;
    options.use_mmap = use_mmap;
    const SnapshotImage loaded = load_snapshot(path, options);
    ASSERT_EQ(loaded.entries.size(), 1u);
    EXPECT_TRUE(loaded.entries[0].edges.empty());
    ASSERT_EQ(loaded.cache_lines.size(), 1u);
    EXPECT_TRUE(loaded.cache_lines[0].delta);
    EXPECT_TRUE(loaded.cache_lines[0].diff.empty());
  }
}

TEST(PersistRoundTrip, WarmCacheRestoreMatchesModuloCacheHit) {
  const Graph g = grid_graph(5, 8);
  const ServiceConfig config = test_config();
  OracleService built(g, config);
  const std::vector<QueryRequest> reqs = make_requests(g, 13);
  const std::vector<std::string> expected = serve_all(built, reqs);

  const SnapshotImage image = PersistAccess::export_service(built, true);
  const std::string path = temp_path("warm.ftb");
  save_snapshot(path, image);
  ASSERT_GT(image.cache_lines.size(), 0u);

  SnapshotImage loaded = load_snapshot(path);
  Graph host = std::move(loaded.graph);
  OracleService restored(host, test_config());
  PersistAccess::restore_service(restored, loaded, /*warm_cache=*/true);
  EXPECT_GT(restored.stats().cache_lines, 0u);

  const std::vector<std::string> got = serve_all(restored, reqs);
  ASSERT_EQ(expected.size(), got.size());
  auto strip_cache_hit = [](std::string line) {
    const auto at = line.find(",\"cache_hit\":");
    if (at == std::string::npos) return line;
    const std::size_t end = line.find_first_of(",}", at + 14);
    line.erase(at, end - at);
    return line;
  };
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(strip_cache_hit(expected[i]), strip_cache_hit(got[i])) << i;
  }
}

// Restore rebuilds each entry's baseline tree, so the first faulted query
// after a load is answered on the fault-delta fast or repair path, not by a
// full BFS.
TEST(PersistRoundTrip, RestoredBaselinesServeTheFastPath) {
  const Graph g = cycle_graph(32);
  OracleService built(g, test_config());
  QueryRequest req;
  req.id = 1;
  req.source = 0;
  req.targets = {5, 16};
  (void)built.serve(req);

  const SnapshotImage image = PersistAccess::export_service(built, false);
  const std::string path = temp_path("fastpath.ftb");
  save_snapshot(path, image);

  SnapshotImage loaded = load_snapshot(path);
  Graph host = std::move(loaded.graph);
  OracleService restored(host, test_config());
  PersistAccess::restore_service(restored, loaded, false);

  QueryRequest faulty = req;
  faulty.fault_edges = {1};  // a fault that misses half the tree
  (void)restored.serve(faulty);
  const ServiceStats stats = restored.stats();
  EXPECT_EQ(stats.structures_built, 0u);
  EXPECT_GT(stats.fast_path_hits + stats.repair_bfs, 0u)
      << "restored baseline should carry the delta query path";
}

// The CI artifact gate, asserted at unit level too: a snapshot is compact —
// under 2x the in-memory bytes of the state it captures.
TEST(PersistRoundTrip, FileStaysUnderTwiceResidentBytes) {
  const Graph g = erdos_renyi(64, 0.1, 3, /*connect_spine=*/true);
  OracleService built(g, test_config());
  const std::vector<QueryRequest> reqs = make_requests(g, 23);
  (void)serve_all(built, reqs);

  const SnapshotImage image = PersistAccess::export_service(built, true);
  const std::string path = temp_path("size.ftb");
  save_snapshot(path, image);
  const std::string bytes = slurp(path);
  EXPECT_LT(bytes.size(), 2 * image_resident_bytes(image))
      << "snapshot " << bytes.size() << " bytes vs resident "
      << image_resident_bytes(image);
}

// Sections encode on a crew of up to `jobs` workers; the file must not
// depend on how many there were.
TEST(PersistRoundTrip, SnapshotBytesIndependentOfJobs) {
  const Graph g = grid_graph(5, 8);
  OracleService built(g, test_config());
  (void)serve_all(built, make_requests(g, 13));
  const SnapshotImage image = PersistAccess::export_service(built, true);
  ASSERT_GT(image.entries.size(), 0u);
  ASSERT_GT(image.cache_lines.size(), 0u);  // all three sections present

  const std::string path = temp_path("jobs.ftb");
  save_snapshot(path, image, 1);
  const std::string reference = slurp(path);
  for (const unsigned jobs : {0u, 2u, 4u, 8u}) {
    save_snapshot(path, image, jobs);
    EXPECT_EQ(slurp(path), reference) << "jobs=" << jobs;
  }
}

// crc32 reads eight bytes per step; it must give the bytewise CRC-32 (IEEE)
// at every length and alignment, and chain through `seed`, or files written
// by earlier builds would fail their checksums.
TEST(PersistChecksum, MatchesTheBytewiseCrc32) {
  const auto bytewise = [](const unsigned char* p, std::size_t size) {
    std::uint32_t crc = 0xffffffffu;
    for (std::size_t i = 0; i < size; ++i) {
      crc ^= p[i];
      for (int k = 0; k < 8; ++k) {
        crc = (crc & 1) != 0 ? 0xedb88320u ^ (crc >> 1) : crc >> 1;
      }
    }
    return crc ^ 0xffffffffu;
  };
  EXPECT_EQ(crc32("123456789", 9), 0xcbf43926u);  // the standard check value
  Rng rng(3);
  std::vector<unsigned char> bytes(64);
  for (unsigned char& b : bytes) b = static_cast<unsigned char>(rng.next_below(256));
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t size = 0; offset + size <= bytes.size(); ++size) {
      const unsigned char* p = bytes.data() + offset;
      const std::uint32_t want = bytewise(p, size);
      EXPECT_EQ(crc32(p, size), want) << offset << "+" << size;
      const std::size_t half = size / 2;
      EXPECT_EQ(crc32(p + half, size - half, crc32(p, half)), want)
          << offset << "+" << size << " split at " << half;
    }
  }
}

// A live entry is resident as its H subgraph's CSR (edges, arcs, offsets)
// plus its engine's g→H table, which holds one slot per edge of G.
TEST(PersistRoundTrip, ResidentBytesCountEachEntrysGToHTablePerGraphEdge) {
  SnapshotImage image;
  image.graph = grid_graph(4, 5);  // n = 20, m = 31
  const std::uint64_t graph_only = image_resident_bytes(image);
  EntryImage entry;
  entry.name = "h";
  entry.edges = {0, 1, 2, 3, 4};
  image.entries.push_back(entry);
  // 5 kept edges × (8-byte Edge + two 8-byte Arcs) + 21 offsets × 4 + 31 × 4.
  EXPECT_EQ(image_resident_bytes(image) - graph_only, 5u * 24 + 21 * 4 + 31 * 4);
}

// Two entries with one name, or an entry named "identity" (the name of every
// pool's entry 0), cannot be restored into a pool: the loader rejects the
// file, so neither `load_snapshot` nor a tenant built from it gets that far.
void expect_entry_names_rejected(const std::vector<std::string>& names,
                                 const std::string& tag) {
  SnapshotImage image;
  image.graph = cycle_graph(8);
  for (const std::string& name : names) {
    EntryImage entry;
    entry.name = name;
    entry.edges = {0, 1, 2, 3, 4, 5, 6};
    image.entries.push_back(entry);
  }
  const std::string path = temp_path(tag + ".ftb");
  save_snapshot(path, image, 1);
  try {
    (void)load_snapshot(path);
    FAIL() << tag << ": snapshot loaded";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.status(), SnapshotStatus::kMalformed) << e.what();
  }
  TenantRegistry registry;
  EXPECT_THROW(registry.add_from_snapshot("alpha", path), SnapshotError);
  EXPECT_EQ(registry.size(), 0u) << tag;
}

TEST(PersistEntries, DuplicateEntryNamesAreMalformed) {
  expect_entry_names_rejected({"a@s0f2", "b@s1f2", "a@s0f2"}, "dup_names");
}

TEST(PersistEntries, EntryNamedIdentityIsMalformed) {
  expect_entry_names_rejected({"a@s0f2", "identity"}, "identity_name");
}

// --- corruption fuzz ---------------------------------------------------------

// One small snapshot every corruption test mutates: a couple of structures
// and cache lines keep every section type present while the file stays small
// enough to fuzz exhaustively.
class PersistCorruption : public ::testing::Test {
 protected:
  void SetUp() override {
    graph_ = cycle_graph(12);
    OracleService service(graph_, test_config());
    for (const QueryRequest& req : make_requests(graph_, 5)) {
      (void)service.serve(req);
    }
    image_ = PersistAccess::export_service(service, true);
    path_ = temp_path("fuzz.ftb");
    save_snapshot(path_, image_);
    bytes_ = slurp(path_);
    ASSERT_GT(bytes_.size(), kHeaderCrcOffset + 4);
  }

  // Writes `mutant` and loads it through the buffered path (the bounds checks
  // under test are shared with mmap; buffered keeps the exhaustive loops
  // cheap). Returns the image when the loader accepted the file.
  std::optional<SnapshotImage> try_load(const std::string& mutant) {
    spew(scratch_path(), mutant);
    SnapshotLoadOptions options;
    options.use_mmap = false;
    try {
      return load_snapshot(scratch_path(), options);
    } catch (const SnapshotError&) {
      return std::nullopt;
    }
  }

  std::string scratch_path() { return temp_path("fuzz_mutant.ftb"); }

  // Loose-but-sufficient image equality: same graph identity and the same
  // section contents field-for-field where it matters for serving.
  void expect_same_image(const SnapshotImage& got) {
    EXPECT_EQ(fingerprint_of(got.graph), fingerprint_of(image_.graph));
    ASSERT_EQ(got.entries.size(), image_.entries.size());
    for (std::size_t i = 0; i < got.entries.size(); ++i) {
      EXPECT_EQ(got.entries[i].name, image_.entries[i].name);
      EXPECT_EQ(got.entries[i].edges, image_.entries[i].edges);
      EXPECT_EQ(got.entries[i].exact, image_.entries[i].exact);
    }
    ASSERT_EQ(got.cache_lines.size(), image_.cache_lines.size());
    for (std::size_t i = 0; i < got.cache_lines.size(); ++i) {
      EXPECT_EQ(got.cache_lines[i].key_words, image_.cache_lines[i].key_words);
    }
  }

  Graph graph_;
  SnapshotImage image_;
  std::string path_;
  std::string bytes_;
};

TEST_F(PersistCorruption, TruncationAtEveryLengthIsRejected) {
  // Every proper prefix — including cutting inside the header, at each
  // section boundary, and mid-TOC — must throw, never load or crash.
  for (std::size_t len = 0; len < bytes_.size(); ++len) {
    ASSERT_FALSE(try_load(bytes_.substr(0, len)).has_value())
        << "prefix of " << len << " bytes loaded";
  }
}

TEST_F(PersistCorruption, EveryBitFlipIsRejectedOrHarmless) {
  std::size_t accepted = 0;
  for (std::size_t byte = 0; byte < bytes_.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mutant = bytes_;
      mutant[byte] = static_cast<char>(mutant[byte] ^ (1 << bit));
      std::optional<SnapshotImage> got = try_load(mutant);
      if (got.has_value()) {
        // Only a flip in inter-section alignment fill can be accepted (that
        // padding is covered by no CRC); the decoded image must then be
        // exactly the original.
        ++accepted;
        expect_same_image(*got);
        if (HasFatalFailure() || HasNonfatalFailure()) {
          FAIL() << "byte " << byte << " bit " << bit
                 << " flipped and loaded a different image";
        }
      }
    }
  }
  // CRC-covered bytes dominate the file: acceptance is the rare exception.
  EXPECT_LT(accepted, bytes_.size() / 4) << "too many flips went undetected";
}

TEST_F(PersistCorruption, FutureVersionIsRejectedAsBadVersion) {
  std::string mutant = bytes_;
  put_u32(mutant, kVersionOffset, kSnapshotVersion + 1);
  repair_header_crc(mutant);
  spew(scratch_path(), mutant);
  try {
    (void)load_snapshot(scratch_path());
    FAIL() << "future version loaded";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.status(), SnapshotStatus::kBadVersion) << e.what();
  }
}

TEST_F(PersistCorruption, VersionZeroIsRejectedAsBadVersion) {
  std::string mutant = bytes_;
  put_u32(mutant, kVersionOffset, 0);
  repair_header_crc(mutant);
  spew(scratch_path(), mutant);
  try {
    (void)load_snapshot(scratch_path());
    FAIL() << "version 0 loaded";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.status(), SnapshotStatus::kBadVersion) << e.what();
  }
}

TEST_F(PersistCorruption, WrongMagicIsRejectedAsBadMagic) {
  std::string mutant = bytes_;
  mutant[0] = 'X';
  repair_header_crc(mutant);  // magic must fire even with a consistent CRC
  spew(scratch_path(), mutant);
  try {
    (void)load_snapshot(scratch_path());
    FAIL() << "wrong magic loaded";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.status(), SnapshotStatus::kBadMagic) << e.what();
  }
}

TEST_F(PersistCorruption, HeaderEditWithoutCrcRepairIsRejected) {
  std::string mutant = bytes_;
  put_u32(mutant, kVersionOffset, kSnapshotVersion + 1);  // no CRC repair
  ASSERT_FALSE(try_load(mutant).has_value());
}

TEST_F(PersistCorruption, MismatchedExpectedFingerprintFailsClosed) {
  const Graph other = cycle_graph(13);
  const GraphFingerprint expect = fingerprint_of(other);
  SnapshotLoadOptions options;
  options.expect = &expect;
  try {
    (void)load_snapshot(path_, options);
    FAIL() << "mismatched graph served";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.status(), SnapshotStatus::kGraphMismatch);
    EXPECT_NE(std::string(e.what()).find("n=13"), std::string::npos)
        << "mismatch message should describe both fingerprints: " << e.what();
  }
}

TEST_F(PersistCorruption, PeekMatchesFullLoad) {
  EXPECT_EQ(peek_snapshot_fingerprint(path_), fingerprint_of(graph_));
}

TEST(PersistErrors, MissingFileIsIoError) {
  try {
    (void)load_snapshot(::testing::TempDir() + "/ftbfs_persist_nonexistent.ftb");
    FAIL() << "missing file loaded";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.status(), SnapshotStatus::kIoError);
  }
}

TEST(PersistErrors, SaveIntoMissingDirectoryIsIoError) {
  const Graph g = cycle_graph(6);
  SnapshotImage image;
  image.graph = g;
  try {
    save_snapshot(::testing::TempDir() + "/ftbfs_persist_no_such_dir/x.ftb",
                  image);
    FAIL() << "save into missing directory succeeded";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.status(), SnapshotStatus::kIoError);
  }
}

// --- manifest schema v2 ------------------------------------------------------

class PersistManifest : public ::testing::Test {
 protected:
  void SetUp() override {
    graph_ = grid_graph(4, 6);
    graph_path_ = temp_path("manifest_graph.txt");
    save_graph(graph_path_, graph_);

    OracleService service(graph_, test_config());
    for (const QueryRequest& req : make_requests(graph_, 31)) {
      (void)service.serve(req);
    }
    snapshot_path_ = temp_path("manifest.ftb");
    save_snapshot(snapshot_path_, PersistAccess::export_service(service, true));
  }

  std::string write_manifest(const std::string& name, const std::string& body) {
    const std::string path = temp_path(name + ".json");
    spew(path, body);
    return path;
  }

  Graph graph_;
  std::string graph_path_;
  std::string snapshot_path_;
};

TEST_F(PersistManifest, SchemaTwoSnapshotTenantServes) {
  TenantRegistry registry;
  registry.load_manifest(write_manifest(
      "v2_ok", "{\"schema\": 2, \"tenants\": [{\"name\": \"alpha\", "
               "\"snapshot\": \"" + snapshot_path_ + "\", "
               "\"cache_warm\": true}]}"));
  Tenant* t = registry.find("alpha");
  ASSERT_NE(t, nullptr);
  EXPECT_GT(t->service.pool_size(), 1u);
  EXPECT_GT(t->service.stats().cache_lines, 0u);  // cache_warm took effect
  EXPECT_EQ(fingerprint_of(t->graph), fingerprint_of(graph_));

  QueryRequest req;
  req.id = 1;
  req.source = 0;
  req.targets = {7};
  const QueryResponse resp = t->service.serve(req);
  EXPECT_EQ(resp.id, 1);
}

TEST_F(PersistManifest, SchemaTwoGraphPlusSnapshotCrossChecks) {
  TenantRegistry registry;
  registry.load_manifest(write_manifest(
      "v2_cross", "{\"schema\": 2, \"tenants\": [{\"name\": \"alpha\", "
                  "\"graph\": \"" + graph_path_ + "\", "
                  "\"snapshot\": \"" + snapshot_path_ + "\"}]}"));
  EXPECT_NE(registry.find("alpha"), nullptr);
}

TEST_F(PersistManifest, SchemaTwoMismatchedGraphFailsClosed) {
  const std::string other_path = temp_path("manifest_other.txt");
  save_graph(other_path, cycle_graph(9));
  TenantRegistry registry;
  try {
    registry.load_manifest(write_manifest(
        "v2_bad", "{\"schema\": 2, \"tenants\": [{\"name\": \"alpha\", "
                  "\"graph\": \"" + other_path + "\", "
                  "\"snapshot\": \"" + snapshot_path_ + "\"}]}"));
    FAIL() << "mismatched graph/snapshot pair loaded";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.status(), SnapshotStatus::kGraphMismatch);
  }
  EXPECT_EQ(registry.size(), 0u) << "no tenant may exist after a rejection";
}

TEST_F(PersistManifest, ManifestsWithoutSchemaTwoAreFatal) {
  const std::string tenants =
      "[{\"name\": \"alpha\", \"graph\": \"" + graph_path_ + "\"}]";
  const std::pair<const char*, std::string> cases[] = {
      {"bare_array", tenants},
      {"no_schema", "{\"tenants\": " + tenants + "}"},
      {"schema_1", "{\"schema\": 1, \"tenants\": " + tenants + "}"},
  };
  for (const auto& [name, body] : cases) {
    TenantRegistry registry;
    try {
      registry.load_manifest(write_manifest(name, body));
      FAIL() << name << ": manifest without \"schema\": 2 loaded";
    } catch (const GraphIoError& e) {
      EXPECT_NE(std::string(e.what()).find("schema"), std::string::npos)
          << name << ": " << e.what();
    }
    EXPECT_EQ(registry.size(), 0u) << name;
  }
}

TEST_F(PersistManifest, CacheWarmNeedsSnapshot) {
  TenantRegistry registry;
  EXPECT_THROW(registry.load_manifest(write_manifest(
                   "v2_warm_only",
                   "{\"schema\": 2, \"tenants\": [{\"name\": \"alpha\", "
                   "\"graph\": \"" + graph_path_ + "\", "
                   "\"cache_warm\": true}]}")),
               GraphIoError);
}

TEST_F(PersistManifest, UnknownSchemaIsFatal) {
  TenantRegistry registry;
  EXPECT_THROW(registry.load_manifest(write_manifest(
                   "v3", "{\"schema\": 3, \"tenants\": [{\"name\": \"alpha\", "
                         "\"graph\": \"" + graph_path_ + "\"}]}")),
               GraphIoError);
}

TEST_F(PersistManifest, SchemaTwoUnknownKeysAreNotFatal) {
  TenantRegistry registry;
  registry.load_manifest(write_manifest(
      "v2_unknown", "{\"schema\": 2, \"comment\": \"ignored\", "
                    "\"tenants\": [{\"name\": \"alpha\", "
                    "\"graph\": \"" + graph_path_ + "\", "
                    "\"color\": \"blue\"}]}"));
  EXPECT_NE(registry.find("alpha"), nullptr);
}

// --- injected I/O faults on the save/load path (docs/robustness.md) ---------

// Failpoint state is process-global; every armed test must disarm on exit.
struct DisarmOnExit {
  ~DisarmOnExit() { fp::disarm_all(); }
};

// A small snapshot image + the bytes of a clean save of it.
class PersistFaults : public ::testing::Test {
 protected:
  void SetUp() override {
    graph_ = cycle_graph(24);
    OracleService service(graph_, test_config());
    for (const QueryRequest& req : make_requests(graph_, 13)) {
      (void)service.serve(req);
    }
    image_ = PersistAccess::export_service(service, true);
    path_ = temp_path("faults.ftb");
    save_snapshot(path_, image_);
    clean_bytes_ = slurp(path_);
    ASSERT_FALSE(clean_bytes_.empty());
  }

  [[nodiscard]] bool tmp_exists() const {
    return ::access((path_ + ".tmp").c_str(), F_OK) == 0;
  }

  Graph graph_;
  SnapshotImage image_;
  std::string path_;
  std::string clean_bytes_;
};

TEST_F(PersistFaults, EintrOnWriteIsRetriedTransparently) {
  DisarmOnExit guard;
  ASSERT_TRUE(fp::arm("persist.write=err(EINTR,p=0.5,seed=11)"));
  save_snapshot(path_, image_);  // must neither throw nor corrupt
  EXPECT_EQ(slurp(path_), clean_bytes_);
  EXPECT_FALSE(tmp_exists());
}

TEST_F(PersistFaults, ShortWritesAreAbsorbedByTheWriteLoop) {
  DisarmOnExit guard;
  // 70% of writes truncated to half: the loop must converge (each truncated
  // write still makes progress) and the published file must be byte-identical
  // to a clean save.
  ASSERT_TRUE(fp::arm("persist.write=shortwrite(p=0.7,seed=3)"));
  save_snapshot(path_, image_);
  EXPECT_EQ(slurp(path_), clean_bytes_);
  EXPECT_FALSE(tmp_exists());
}

TEST_F(PersistFaults, EnospcFailsTypedKeepsPriorSnapshotAndUnlinksTmp) {
  DisarmOnExit guard;
  // The disk is full: the save must fail with a typed IO error, the
  // previously published snapshot must be untouched (the rename never ran),
  // and the half-written temp file must be unlinked — no debris.
  ASSERT_TRUE(fp::arm("persist.write=err(ENOSPC)"));
  try {
    save_snapshot(path_, image_);
    FAIL() << "save with injected ENOSPC succeeded";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.status(), SnapshotStatus::kIoError);
    EXPECT_NE(std::string(e.what()).find("cannot write"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(slurp(path_), clean_bytes_);
  EXPECT_FALSE(tmp_exists());
}

TEST_F(PersistFaults, FsyncFailureFailsTypedAndUnlinksTmp) {
  DisarmOnExit guard;
  // count=1: the temp-file fsync fails (a real durability failure → typed
  // error); the later parent-directory fsync is best-effort by design and is
  // not reached here.
  ASSERT_TRUE(fp::arm("persist.fsync=err(EIO,count=1)"));
  try {
    save_snapshot(path_, image_);
    FAIL() << "save with injected fsync failure succeeded";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.status(), SnapshotStatus::kIoError);
  }
  EXPECT_EQ(slurp(path_), clean_bytes_);
  EXPECT_FALSE(tmp_exists());
}

TEST_F(PersistFaults, MmapFailureFallsBackToBufferedRead) {
  DisarmOnExit guard;
  // A filesystem without mmap support: load must silently take the read()
  // path and produce the same image.
  ASSERT_TRUE(fp::arm("persist.mmap=err(ENOMEM)"));
  SnapshotLoadOptions options;
  options.use_mmap = true;
  SnapshotImage loaded = load_snapshot(path_, options);
  EXPECT_EQ(fingerprint_of(loaded.graph), fingerprint_of(graph_));
  EXPECT_EQ(loaded.entries.size(), image_.entries.size());
}

TEST_F(PersistFaults, SigkillMidSaveLeavesPriorSnapshotIntact) {
  DisarmOnExit guard;
  // The crash-recovery contract: a process killed between open(tmp) and
  // rename() must leave the previously published snapshot byte-identical.
  // The sleep failpoint holds the child inside the write loop so the kill
  // window is deterministic; fork() inherits the armed schedule.
  ASSERT_TRUE(fp::arm("persist.write=sleep(ms=20000,count=1)"));
  const pid_t child = ::fork();
  ASSERT_GE(child, 0) << std::strerror(errno);
  if (child == 0) {
    save_snapshot(path_, image_);  // parked in the first write's sleep
    ::_exit(0);                    // not reached: the parent kills us
  }
  // Give the child time to open the temp file and enter the stalled write.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  ASSERT_EQ(::kill(child, SIGKILL), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  EXPECT_TRUE(WIFSIGNALED(status));
  fp::disarm_all();

  // The publish rename never ran: the prior snapshot is untouched and loads.
  EXPECT_EQ(slurp(path_), clean_bytes_);
  SnapshotImage loaded = load_snapshot(path_);
  EXPECT_EQ(fingerprint_of(loaded.graph), fingerprint_of(graph_));
  // The kill left temp-file debris (nothing could unlink it); the next clean
  // save must clobber it, publish, and leave no .tmp behind.
  save_snapshot(path_, image_);
  EXPECT_EQ(slurp(path_), clean_bytes_);
  EXPECT_FALSE(tmp_exists());
}

}  // namespace
}  // namespace ftbfs
