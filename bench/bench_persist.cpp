// Persistence benchmark (PR 8): cold build vs snapshot load, measured as
// *time to first response* — the restart metric the src/persist/ subsystem
// exists for.
//
// Cold column: what `ftbfs serve --graph g.txt` pays before it can answer its
// first request — parse the edge-list text, construct the service, build the
// structure pool and the source baseline, answer one faulted distance query.
// Warm column: what `ftbfs serve --load snap.ftb` pays — mmap + checksum +
// validate the snapshot, restore the pool (which rebuilds each structure's
// baseline BFS tree; the file does not store it), answer the same query. Both
// columns end on byte-identical response lines (checked).
//
// Four rows per run:
//   * "pool" at n = 10^5 — the bench_e8 scale-sweep serving state (one
//     all-edges entry). No construction to skip, so both sides run the
//     baseline BFS and the cold side adds text parsing: this row is the
//     *floor* of the snapshot win and the measured n = 10^5
//     load-to-first-response number.
//   * the structure `serve` builds lazily at its default --budget
//     (Cons2FTBFS, budget 2) at a smaller n — construction is the paper's
//     expensive part, so this is where the >= 10x gate is enforced: the
//     row keeps n where one cold build is feasible, making the ratio a
//     measurement, not an extrapolation.
//   * single_ftbfs (budget 1) and Cons2FTBFS (budget 2) at n = 10^5, each
//     cold side run under a timeout (fork + alarm). If
//     construction does not finish in time, the elapsed time at the kill is
//     recorded as a measured *lower bound*, and the speedup against the
//     measured n = 10^5 load time is reported as ">= bound / load". A build
//     that finishes also reports the wall seconds of its phases (cons2:
//     step1_s, steps23_s). Skipped under --small (CI smoke budget).
//
// The first two rows time each side kRepeats times, alternating cold and
// warm, and report the median seconds of each side and the median of the
// per-pair ratios: on a shared machine one slow build or load must not
// decide the gate.
//
// Gates (checked by CI on --small, recorded in bench/BENCH_persist.json):
//   * construction rows: load-to-first-response at least 10x faster than
//     cold build (the median ratio);
//   * every snapshot file under 2x the in-memory bytes it captures.
//
// Usage: bench_persist [--small] [--json] [--n N] [--real-n N] [--seed S]
//                      [--cold-timeout S]
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "bench_util.h"
#include "engine/registry.h"
#include "graph/io.h"
#include "persist/service_io.h"
#include "persist/snapshot.h"
#include "service/oracle_service.h"
#include "service/protocol.h"
#include "util/timer.h"

namespace {

using namespace ftbfs;
using namespace ftbfs::bench;

constexpr int kRepeats = 5;

double median(std::vector<double> v) {
  std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
  return v[v.size() / 2];
}

struct Row {
  std::string algo;
  unsigned budget = 1;
  Vertex n = 0;
  EdgeId m = 0;
  double cold_s = 0.0;
  double save_s = 0.0;
  double load_s = 0.0;  // load-to-first-response
  double speedup = 0.0;
  std::uint64_t snapshot_bytes = 0;
  std::uint64_t resident_bytes = 0;
  double bytes_ratio = 0.0;
  std::uint64_t mismatches = 0;
  // The >= 10x gate is about skipping construction; the "pool" row has none
  // (its cold side is parse + baseline), so only construction rows enforce it.
  bool construction = false;
  // False when the cold build hit the timeout: cold_s and speedup are then
  // measured lower bounds, not totals.
  bool cold_completed = true;
  // Wall seconds per construction phase, from the registry (full-scale rows
  // whose build completed).
  std::vector<std::pair<std::string, double>> phases;
};

std::string temp_file(const char* name) {
  const char* dir = std::getenv("TMPDIR");
  return std::string(dir == nullptr ? "/tmp" : dir) + "/" + name;
}

QueryRequest first_request(const Graph& g) {
  QueryRequest req;
  req.id = 1;
  req.source = 0;
  req.targets = {static_cast<Vertex>(g.num_vertices() / 3),
                 static_cast<Vertex>(g.num_vertices() / 2),
                 static_cast<Vertex>(g.num_vertices() - 1)};
  req.fault_edges = {0};  // one faulted edge: exercises the FT query path
  return req;
}

std::uint64_t file_bytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return 0;
  std::fseek(f, 0, SEEK_END);
  const long at = std::ftell(f);
  std::fclose(f);
  return at < 0 ? 0 : static_cast<std::uint64_t>(at);
}

// One measured row, each side timed kRepeats times, alternating; the file is
// saved once, after the first cold side. `algo` == "pool" builds the bench_e8
// all-edges serving state; otherwise it names a BuilderRegistry construction
// run at `budget`.
Row measure(const std::string& algo, unsigned budget, Vertex n,
            std::uint64_t seed) {
  Row row;
  row.algo = algo;
  row.budget = budget;
  row.n = n;

  const Graph generated = make_sparse_er(n, seed);
  row.m = generated.num_edges();
  const std::string graph_path = temp_file("bench_persist_graph.txt");
  save_graph(graph_path, generated);

  ServiceConfig config;
  config.lazy_build = false;
  config.cache_capacity = 256;
  config.default_budget = row.budget;

  const QueryRequest req = first_request(generated);
  const std::string snap_path = temp_file("bench_persist.ftb");
  std::vector<double> cold_s, load_s, ratios;
  for (int rep = 0; rep < kRepeats; ++rep) {
    // --- cold: text file -> first response ----------------------------------
    Timer cold;
    const Graph g = load_graph(graph_path);
    OracleService built(g, config);
    if (algo == "pool") {
      std::vector<EdgeId> all(g.num_edges());
      std::iota(all.begin(), all.end(), 0u);
      built.add_structure("all", 0, config.default_budget, FaultModel::kEdge,
                          all);
    } else {
      built.build_structure(pool_entry_name(algo, 0, budget), 0, budget,
                            FaultModel::kEdge, algo);
    }
    const std::string cold_answer = format_response_line(built.serve(req));
    cold_s.push_back(cold.seconds());

    // --- save, once ---------------------------------------------------------
    if (rep == 0) {
      Timer save;
      const SnapshotImage image = PersistAccess::export_service(built, true);
      save_snapshot(snap_path, image);
      row.save_s = save.seconds();
      row.snapshot_bytes = file_bytes(snap_path);
      row.resident_bytes = image_resident_bytes(image);
      row.bytes_ratio = row.resident_bytes == 0
                            ? 0.0
                            : static_cast<double>(row.snapshot_bytes) /
                                  static_cast<double>(row.resident_bytes);
    }

    // --- warm: snapshot -> first response -----------------------------------
    Timer warm;
    SnapshotImage loaded = load_snapshot(snap_path);
    Graph host = std::move(loaded.graph);
    OracleService restored(host, config);
    PersistAccess::restore_service(restored, loaded, /*warm_cache=*/false);
    const std::string warm_answer = format_response_line(restored.serve(req));
    load_s.push_back(warm.seconds());

    ratios.push_back(load_s.back() == 0.0 ? 0.0
                                          : cold_s.back() / load_s.back());
    if (cold_answer != warm_answer) ++row.mismatches;
  }
  row.cold_s = median(cold_s);
  row.load_s = median(load_s);
  row.speedup = median(ratios);
  row.construction = algo != "pool";
  std::remove(graph_path.c_str());
  std::remove(snap_path.c_str());
  return row;
}

// The full-scale construction row: runs the registry build of `algo` at
// `budget` in a forked child under alarm(timeout), the way build_structure
// would, and reads its phase seconds back over a pipe. When construction
// does not finish, the elapsed time at the SIGALRM is a measured lower bound
// on the cold build, reported against `load_s`, the measured
// load-to-first-response at the same n (taken from the pool row, whose
// all-edges snapshot is a superset of — so no smaller than — any structure
// snapshot at that n).
Row measure_cold_bound(const std::string& algo, unsigned budget, Vertex n,
                       std::uint64_t seed, unsigned timeout_s, double load_s) {
  Row row;
  row.algo = algo;
  row.budget = budget;
  row.n = n;
  row.construction = true;
  row.load_s = load_s;

  const Graph g = make_sparse_er(n, seed);
  row.m = g.num_edges();
  int fds[2] = {-1, -1};
  if (::pipe(fds) != 0) {
    std::perror("pipe");
    std::exit(1);
  }
  Timer cold;
  const pid_t child = fork();
  if (child == 0) {
    ::close(fds[0]);
    ::alarm(timeout_s);
    const ServiceConfig config{.lazy_build = false};
    OracleService service(g, config);
    BuildResult built;
    service.build_structure(pool_entry_name(algo, 0, budget), 0, budget,
                            FaultModel::kEdge, algo, &built);
    (void)service.serve(first_request(g));
    std::string phases;
    for (const auto& [name, seconds] : built.phase_seconds) {
      phases += name + " " + std::to_string(seconds) + "\n";
    }
    if (::write(fds[1], phases.data(), phases.size()) !=
        static_cast<ssize_t>(phases.size())) {
      _exit(1);
    }
    _exit(0);
  }
  ::close(fds[1]);
  int status = 0;
  ::waitpid(child, &status, 0);
  row.cold_s = cold.seconds();
  row.cold_completed = WIFEXITED(status) && WEXITSTATUS(status) == 0;
  row.speedup = row.load_s == 0.0 ? 0.0 : row.cold_s / row.load_s;
  // The child exited, so its few lines sit in the pipe whole.
  std::FILE* in = ::fdopen(fds[0], "r");
  if (in == nullptr) {
    ::close(fds[0]);
    return row;
  }
  char name[64] = {};
  double seconds = 0.0;
  while (row.cold_completed &&
         std::fscanf(in, "%63s %lf", name, &seconds) == 2) {
    row.phases.emplace_back(name, seconds);
  }
  std::fclose(in);
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  bool small = false;
  bool json = false;
  Vertex pool_n = 100000;
  Vertex real_n = 20000;
  unsigned cold_timeout = 300;
  std::uint64_t seed = 17;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--small") == 0) {
      small = true;
    } else if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--n") == 0 && i + 1 < argc) {
      pool_n = static_cast<Vertex>(std::strtoul(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--real-n") == 0 && i + 1 < argc) {
      real_n = static_cast<Vertex>(std::strtoul(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--cold-timeout") == 0 && i + 1 < argc) {
      cold_timeout = static_cast<unsigned>(std::strtoul(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else {
      std::fprintf(stderr,
                   "usage: bench_persist [--small] [--json] [--n N] "
                   "[--real-n N] [--cold-timeout S] [--seed S]\n");
      return 2;
    }
  }
  if (small) {
    pool_n = 5000;
    real_n = 2000;
  }

  // The gated row times what `serve` builds lazily at its default --budget:
  // the construction a loaded snapshot spares it.
  const unsigned serve_budget = ServiceConfig{}.default_budget;
  const std::string serve_algo =
      BuilderRegistry::default_builder(serve_budget, FaultModel::kEdge, 1);
  std::vector<Row> rows;
  rows.push_back(measure("pool", 2, pool_n, seed));
  rows.push_back(measure(serve_algo, serve_budget, real_n, seed));
  if (!small) {
    rows.push_back(measure_cold_bound(
        BuilderRegistry::default_builder(1, FaultModel::kEdge, 1), 1, pool_n,
        seed, cold_timeout, rows[0].load_s));
    rows.push_back(measure_cold_bound(serve_algo, serve_budget, pool_n, seed,
                                      cold_timeout, rows[0].load_s));
  }

  bool ok = true;
  for (const Row& row : rows) {
    ok = ok && row.mismatches == 0;
    if (row.construction) ok = ok && row.speedup >= 10.0;
    if (row.snapshot_bytes != 0) ok = ok && row.bytes_ratio < 2.0;
  }

  if (json) {
    std::printf("{\"bench\":\"persist\",\"family\":\"sparse-ER(m=3n)\","
                "\"rows\":[");
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& row = rows[i];
      std::printf(
          "%s{\"algo\":\"%s\",\"budget\":%u,\"n\":%u,\"m\":%u,"
          "\"%s\":%.4f,"
          "\"save_s\":%.4f,\"load_first_response_s\":%.4f,\"%s\":%.1f,"
          "\"snapshot_bytes\":%" PRIu64 ",\"resident_bytes\":%" PRIu64
          ",\"bytes_ratio\":%.3f,\"cold_completed\":%s,\"construction\":%s,"
          "\"mismatches\":%" PRIu64 ",\"phase_s\":{",
          i == 0 ? "" : ",", row.algo.c_str(), row.budget, row.n, row.m,
          row.cold_completed ? "cold_build_s" : "cold_build_lower_bound_s",
          row.cold_s, row.save_s, row.load_s,
          row.cold_completed ? "speedup" : "speedup_lower_bound", row.speedup,
          row.snapshot_bytes, row.resident_bytes, row.bytes_ratio,
          row.cold_completed ? "true" : "false",
          row.construction ? "true" : "false", row.mismatches);
      for (std::size_t p = 0; p < row.phases.size(); ++p) {
        std::printf("%s\"%s\":%.4f", p == 0 ? "" : ",",
                    row.phases[p].first.c_str(), row.phases[p].second);
      }
      std::printf("}}");
    }
    std::printf("],\"gate\":{\"min_speedup\":10.0,\"max_bytes_ratio\":2.0},"
                "\"pass\":%s}\n",
                ok ? "true" : "false");
  } else {
    std::printf("persistence: cold build vs snapshot load "
                "(time to first response)\n");
    std::printf("%-14s %2s %8s %8s %10s %10s %10s %10s %8s %7s\n", "algo",
                "f", "n", "m", "cold s", "save s", "load s", "speedup", "MiB",
                "ratio");
    for (const Row& row : rows) {
      const char* bound = row.cold_completed ? " " : ">";
      std::printf(
          "%-14s %2u %8u %8u %s%9.3f %10.3f %10.3f %s%8.1fx %8.2f %7.3f%s",
          row.algo.c_str(), row.budget, row.n, row.m, bound, row.cold_s,
          row.save_s, row.load_s, bound, row.speedup,
          static_cast<double>(row.snapshot_bytes) / (1024.0 * 1024.0),
          row.bytes_ratio, row.mismatches == 0 ? "" : "  MISMATCH");
      for (const auto& [name, seconds] : row.phases) {
        std::printf("  %s %.3f", name.c_str(), seconds);
      }
      std::printf("\n");
    }
    std::printf("gates: construction speedup >= 10x, snapshot < 2x resident "
                "bytes: %s\n",
                ok ? "PASS" : "FAIL");
  }
  return ok ? 0 : 1;
}
