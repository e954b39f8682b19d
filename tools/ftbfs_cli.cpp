// ftbfs — command-line front end for the library.
//
// Subcommands (each has `--help` with the full flag table):
//   gen      generate a benchmark graph family to an edge-list file
//   build    construct an FT-BFS structure; --out writes the kept edges, or a
//            versioned .ftb snapshot (graph CSR + structures —
//            docs/persistence.md) when the path ends in .ftb
//   verify   check a structure file against its fault-tolerance contract
//   query    one-shot distance/path under a fault set
//   serve    JSONL oracle service over stdin or TCP (docs/serving.md);
//            --load restores the structure pool from a snapshot instead of
//            rebuilding (each structure's baseline BFS tree is rebuilt at
//            restore), --save writes one at drain
//   algos    list the registered structure builders
//   version  print the tool and snapshot-format versions
//   help     subcommand listing (help <command> = that command's --help)
//
// Flags follow one convention (tools/cli_flags.h): `--flag value` or
// `--flag=value`, strict typed validation, unknown flags rejected. Exit
// codes: 0 success, 1 runtime failure (I/O, snapshot rejection, socket
// setup), 2 usage.
//
// Structure construction is dispatched through the BuilderRegistry — any
// registered algorithm name (or alias) works with --algo, and unknown names
// list the registry. One-shot queries are served by a FaultQueryEngine over
// the built structure; `serve` runs an OracleService over a lazily built
// structure pool with scenario caching.
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <cmath>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cli_flags.h"
#include "core/verify.h"
#include "engine/query_engine.h"
#include "engine/registry.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "lowerbound/gstar.h"
#include "net/net_server.h"
#include "persist/service_io.h"
#include "persist/snapshot.h"
#include "service/oracle_service.h"
#include "service/protocol.h"
#include "service/tenant.h"
#include "util/failpoint.h"
#include "util/timer.h"

#ifndef FTBFS_CLI_VERSION
#define FTBFS_CLI_VERSION "0.0.0-dev"
#endif

namespace {

using namespace ftbfs;
using cli::FlagParser;
using cli::UsageError;

void list_algos(std::FILE* out) {
  for (const BuilderTraits& t : BuilderRegistry::instance().traits()) {
    std::string aliases;
    for (const std::string& a : t.aliases) {
      aliases += aliases.empty() ? a : ", " + a;
    }
    std::fprintf(out, "  %-14s %s%s%s\n", t.name.c_str(), t.summary.c_str(),
                 aliases.empty() ? "" : "  [aliases: ",
                 aliases.empty() ? "" : (aliases + "]").c_str());
  }
}

void global_usage(std::FILE* out) {
  std::fprintf(out,
               "usage: ftbfs <command> [flags]\n"
               "commands:\n"
               "  gen      generate a benchmark graph family\n"
               "  build    construct an FT-BFS structure (--out file.ftb "
               "writes a snapshot)\n"
               "  verify   check a structure against its fault-tolerance "
               "contract\n"
               "  query    one-shot distance/path under a fault set\n"
               "  serve    JSONL oracle service over stdin or TCP "
               "(--load/--save snapshots)\n"
               "  algos    list registered structure builders\n"
               "  version  print tool and snapshot-format versions\n"
               "  help     this listing; `ftbfs help <command>` shows its "
               "flags\n"
               "run `ftbfs <command> --help` for the flag table; registered "
               "builders (--algo):\n");
  list_algos(out);
}

// Unknown/unsupported algorithm names end with the registry listing so the
// user can pick a real one; this is a usage error (exit 2) like any other.
[[noreturn]] void registry_fail(const std::string& reason) {
  std::fprintf(stderr, "ftbfs: %s\nregistered builders:\n", reason.c_str());
  list_algos(stderr);
  std::exit(2);
}

// --- per-subcommand flag surfaces ------------------------------------------

FlagParser gen_parser() {
  FlagParser p("gen", "generate a benchmark graph family to an edge-list file");
  p.required("family", "<name>",
             "er|grid|cycle|path|hypercube|barbell|gstar1|gstar2");
  p.required("n", "<int>", "target vertex count");
  p.required("out", "<file>", "output edge-list path");
  p.optional("seed", "<int>", "generator seed", "1");
  p.optional("p", "<float>", "er edge probability", "0.1");
  return p;
}

FlagParser build_parser() {
  FlagParser p("build",
               "construct an FT-BFS structure through the BuilderRegistry");
  p.required("graph", "<file>", "host graph (edge-list file)");
  p.required("budget", "<f>", "fault budget the structure must survive");
  p.optional("source", "<v>", "BFS source vertex");
  p.optional("sources", "<v1,v2,...>", "multiple sources (multi-source build)");
  p.optional("algo", "<name>", "builder name or alias (see `ftbfs algos`)",
             "auto");
  p.optional("fault-model", "edge|vertex", "fault kind the budget covers",
             "edge");
  p.optional("out", "<file>",
             "write the kept edges; a .ftb path writes a snapshot instead "
             "(graph + structures, docs/persistence.md)");
  p.optional("stats", "plain|json", "build report format", "plain");
  p.optional("seed", "<int>", "tie-breaking weight seed", "1");
  p.optional("jobs", "<n>",
             "parallel construction workers; the structure is byte-identical "
             "at any value (0 = auto)",
             "0");
  return p;
}

FlagParser verify_parser() {
  FlagParser p("verify",
               "check a structure file against its fault-tolerance contract");
  p.required("graph", "<file>", "host graph (edge-list file)");
  p.required("structure", "<file>", "structure edge-list to validate");
  p.required("source", "<v>", "BFS source the structure serves");
  p.required("budget", "<f>", "fault budget to check");
  p.optional("mode", "exhaustive|sampled", "fault-set enumeration strategy",
             "exhaustive");
  p.optional("samples", "<int>", "fault sets drawn in sampled mode", "1000");
  p.optional("fault-model", "edge|vertex", "fault kind", "edge");
  return p;
}

FlagParser query_parser() {
  FlagParser p("query", "one-shot distance/path under a fault set");
  p.required("graph", "<file>", "host graph (edge-list file)");
  p.required("source", "<v>", "path source");
  p.required("target", "<v>", "path target");
  p.optional("fault-edges", "<u-v,u-v>", "failed edges (endpoints)");
  p.optional("fault-vertices", "<v1,v2>", "failed vertices");
  p.optional("budget", "<f>", "structure fault budget", "fault count");
  p.optional("algo", "<name>", "builder name or alias", "auto");
  p.optional("fault-model", "edge|vertex", "fault kind", "edge");
  p.optional("seed", "<int>", "tie-breaking weight seed", "1");
  return p;
}

FlagParser serve_parser() {
  FlagParser p("serve",
               "JSONL oracle service: requests on stdin (or per TCP "
               "connection with --listen), responses on stdout");
  p.optional("graph", "<file>", "host graph for the default tenant");
  p.optional("load", "<snap.ftb>",
             "restore the default tenant's pool from a snapshot, rebuilding "
             "each structure's baseline BFS tree (with --graph, the graph "
             "fingerprints must match)");
  p.optional("save", "<snap.ftb>",
             "write the default tenant's pool + warm cache as a snapshot at "
             "drain");
  p.optional("warm-cache", "on|off",
             "pre-fill the scenario cache from the loaded snapshot (cache_hit "
             "flags then differ from a cold run)",
             "off");
  p.optional("tenants", "<manifest.json>",
             "host additional named graphs (docs/serving.md schema table)");
  p.optional("budget", "<f>", "fault budget targeted by lazy builds", "2");
  p.optional("max-lazy-budget", "<f>", "largest budget a lazy build accepts",
             "3");
  p.optional("cache-capacity", "<n>", "scenario-cache lines (0 disables)",
             "256");
  p.optional("lazy", "on|off", "build pool entries on demand", "on");
  p.optional("seed", "<int>", "tie-breaking weight seed for lazy builds", "1");
  p.optional("build-jobs", "<n>",
             "parallel construction workers for lazy builds (0 = auto; "
             "structures are byte-identical at any value)",
             "0");
  p.optional("threads", "<n>", "worker threads (1..256)", "1");
  p.optional("mode", "ordered|relaxed",
             "response ordering contract (docs/serving.md)", "ordered");
  p.optional("max-requests", "<n>", "default tenant request quota (0 = off)",
             "0");
  p.optional("deadline-ms", "<n>",
             "default tenant per-request deadline (0 = off)", "0");
  p.optional("rate-limit-rps", "<r>",
             "default tenant token-bucket rate limit (0 = off)", "0");
  p.optional("rate-limit-burst", "<n>",
             "token-bucket burst (0 = max(1, ceil(rps)))", "0");
  p.optional("listen", "<host:port>", "serve over TCP instead of stdin");
  p.optional("shed-after-ms", "<n>",
             "answer `overloaded` after parking this long on a full admission "
             "queue (0 = park forever)",
             "2000; 0 on stdin");
  p.optional("write-stall-ms", "<n>",
             "evict a connection whose writes make no progress this long "
             "(0 = never)",
             "30000; 0 on stdin");
  p.optional("failpoints", "<schedule>",
             "arm fault-injection points (docs/robustness.md grammar; also "
             "read from $FTBFS_FAILPOINTS)");
  return p;
}

// `ftbfs help <command>` renders the same table as `ftbfs <command> --help`.
bool print_command_help(const std::string& cmd, std::FILE* out) {
  if (cmd == "gen") gen_parser().print_help(out);
  else if (cmd == "build") build_parser().print_help(out);
  else if (cmd == "verify") verify_parser().print_help(out);
  else if (cmd == "query") query_parser().print_help(out);
  else if (cmd == "serve") serve_parser().print_help(out);
  else return false;
  return true;
}

// --- shared helpers ---------------------------------------------------------

// Parses a delimiter-separated list of unsigned integers; any trailing or
// embedded garbage is a usage error. Shared by --sources, --fault-edges, and
// --fault-vertices.
std::vector<Vertex> parse_uint_list(const FlagParser& p, std::string spec,
                                    const std::string& delims,
                                    const char* error) {
  for (char& c : spec) {
    if (delims.find(c) != std::string::npos) c = ' ';
  }
  std::istringstream in(spec);
  std::vector<Vertex> out;
  Vertex v;
  while (in >> v) out.push_back(v);
  if (!in.eof()) p.fail(error);
  return out;
}

// The flags build/query share: budget, seed, fault model.
BuildRequest base_request(const Graph& g, const FlagParser& p,
                          std::uint64_t default_budget) {
  BuildRequest req;
  req.graph = &g;
  req.fault_budget = static_cast<unsigned>(
      p.get_uint("budget", default_budget, 0, 1u << 20));
  req.weight_seed = p.get_uint("seed", 1);
  const std::string model = p.get("fault-model", "edge");
  if (model == "vertex") {
    req.fault_model = FaultModel::kVertex;
  } else if (model != "edge") {
    p.fail("--fault-model must be edge or vertex");
  }
  return req;
}

// Dispatches through the registry, exiting with the name listing on any
// unknown name or unsupported request.
BuildResult registry_build(const BuildRequest& req, const std::string& algo) {
  const BuilderRegistry& reg = BuilderRegistry::instance();
  const std::string reason = reg.unsupported_reason(algo, req);
  if (!reason.empty()) registry_fail(reason);
  return reg.build(algo, req);
}

std::uint64_t file_size_bytes(const std::string& path) {
  struct stat st = {};
  return ::stat(path.c_str(), &st) == 0
             ? static_cast<std::uint64_t>(st.st_size)
             : 0;
}

// --- gen ---------------------------------------------------------------------

int cmd_gen(const FlagParser& p) {
  const std::string family = p.get("family");
  const Vertex n = static_cast<Vertex>(p.get_uint("n", 0, 1, 0xFFFFFFFFull));
  const std::uint64_t seed = p.get_uint("seed", 1);
  const double prob = p.get_double("p", 0.1);
  if (prob < 0.0 || prob > 1.0) p.fail("--p must be in [0, 1]");
  Graph g;
  if (family == "er") {
    g = erdos_renyi(n, prob, seed);
  } else if (family == "grid") {
    const Vertex side = static_cast<Vertex>(std::max(1.0, std::sqrt(n)));
    g = grid_graph(side, side);
  } else if (family == "cycle") {
    g = cycle_graph(n);
  } else if (family == "path") {
    g = path_graph(n);
  } else if (family == "hypercube") {
    unsigned dim = 1;
    while ((Vertex{1} << (dim + 1)) <= n) ++dim;
    g = hypercube_graph(dim);
  } else if (family == "barbell") {
    g = barbell_graph(n, std::max<Vertex>(1, n / 10));
  } else if (family == "gstar1") {
    g = build_gstar(1, n).graph;
  } else if (family == "gstar2") {
    g = build_gstar(2, n).graph;
  } else {
    p.fail("unknown family '" + family + "'");
  }
  save_graph(p.get("out"), g);
  std::printf("wrote %s: %s\n", p.get("out").c_str(), describe(g).c_str());
  return 0;
}

// --- build -------------------------------------------------------------------

// The fields of one build's JSON stats, without the enclosing braces.
void print_build_fields(const Graph& g, const BuildResult& r) {
  const FtBfsStats& st = r.structure.stats;
  std::printf("\"algorithm\":\"%s\",\"n\":%u,\"m\":%u,", r.algorithm.c_str(),
              g.num_vertices(), g.num_edges());
  std::printf("\"kept_edges\":%zu,\"fraction\":%.6f,\"seconds\":%.6f,",
              r.structure.edges.size(),
              g.num_edges() == 0
                  ? 0.0
                  : static_cast<double>(r.structure.edges.size()) /
                        g.num_edges(),
              r.build_seconds);
  std::printf("\"tree_edges\":%llu,\"new_edges\":%llu,\"dijkstra_runs\":%llu",
              static_cast<unsigned long long>(st.tree_edges),
              static_cast<unsigned long long>(st.new_edges),
              static_cast<unsigned long long>(st.dijkstra_runs));
  for (const auto& [key, value] : r.counters) {
    std::printf(",\"%s\":%llu", key.c_str(),
                static_cast<unsigned long long>(value));
  }
  for (const auto& [key, value] : r.phase_seconds) {
    std::printf(",\"%s\":%.6f", key.c_str(), value);
  }
}

void print_stats_json(const Graph& g, const BuildResult& r) {
  std::printf("{");
  print_build_fields(g, r);
  std::printf("}\n");
}

// `build --out snap.ftb`: build one structure per source through a quiesced
// OracleService (so pool entry names/indices match what `serve` would create
// lazily) and export the whole pool as a snapshot. `serve --load snap.ftb`
// then reaches first-response readiness with zero construction work: restore
// runs one BFS per structure for its baseline tree.
int build_snapshot(const Graph& g, const FlagParser& p, const BuildRequest& req,
                   const std::string& out, const std::string& stats_mode) {
  const BuilderRegistry& reg = BuilderRegistry::instance();
  std::string chosen = p.get("algo", "");
  if (chosen.empty()) {
    chosen = BuilderRegistry::default_builder(req.fault_budget, req.fault_model,
                                              1);
  }
  if (const BuilderTraits* traits = reg.find(chosen)) {
    chosen = traits->name;  // canonical name — matches lazy-build entry naming
  }
  std::vector<Vertex> sources;  // input order, duplicates collapsed
  for (const Vertex s : req.sources) {
    if (std::find(sources.begin(), sources.end(), s) == sources.end()) {
      sources.push_back(s);
    }
  }

  ServiceConfig sc;
  sc.default_budget = req.fault_budget;
  sc.max_lazy_budget = std::max(3u, req.fault_budget);
  sc.lazy_build = false;
  sc.cache_capacity = 0;
  sc.weight_seed = req.weight_seed;
  sc.build_jobs = req.options.jobs;
  OracleService service(g, sc);

  Timer timer;
  const bool json = stats_mode == "json";
  std::vector<BuildResult> builds(json ? sources.size() : 0);
  for (std::size_t i = 0; i < sources.size(); ++i) {
    const Vertex s = sources[i];
    BuildRequest one = req;
    one.sources = {s};
    const std::string reason = reg.unsupported_reason(chosen, one);
    if (!reason.empty()) registry_fail(reason);
    service.build_structure(pool_entry_name(chosen, s, req.fault_budget), s,
                            req.fault_budget, req.fault_model, chosen,
                            json ? &builds[i] : nullptr);
  }
  const double build_seconds = timer.seconds();

  const SnapshotImage image = PersistAccess::export_service(service, false);
  save_snapshot(out, image, req.options.jobs);
  const std::uint64_t bytes = file_size_bytes(out);

  if (json) {
    std::printf("{\"snapshot\":\"%s\",\"algorithm\":\"%s\",\"n\":%u,"
                "\"m\":%u,\"entries\":%zu,\"bytes\":%llu,"
                "\"resident_bytes\":%llu,\"seconds\":%.6f,\"builds\":[",
                out.c_str(), chosen.c_str(), g.num_vertices(), g.num_edges(),
                image.entries.size(), static_cast<unsigned long long>(bytes),
                static_cast<unsigned long long>(image_resident_bytes(image)),
                build_seconds);
    // Each structure's own build stats, as `build --stats json` without
    // --out prints them, under the source it was built for.
    for (std::size_t i = 0; i < sources.size(); ++i) {
      std::printf("%s{\"source\":%u,", i == 0 ? "" : ",", sources[i]);
      print_build_fields(g, builds[i]);
      std::printf("}");
    }
    std::printf("]}\n");
  } else {
    for (std::size_t i = 0; i < sources.size(); ++i) {
      std::printf("%s: kept %llu / %u edges\n",
                  service.entry_name(i + 1).c_str(),
                  static_cast<unsigned long long>(service.entry_edges(i + 1)),
                  g.num_edges());
    }
    std::printf("wrote snapshot %s: %zu structures, %llu bytes (%.2fs)\n",
                out.c_str(), image.entries.size(),
                static_cast<unsigned long long>(bytes), build_seconds);
  }
  return 0;
}

int cmd_build(const FlagParser& p) {
  const Graph g = load_graph(p.get("graph"));
  const std::string stats_mode = p.get("stats", "plain");
  if (stats_mode != "plain" && stats_mode != "json") {
    p.fail("--stats must be plain or json");  // fail before the build runs
  }
  BuildRequest req = base_request(g, p, 2);
  req.options.jobs = static_cast<unsigned>(p.get_uint("jobs", 0, 0, 256));
  if (p.has("sources")) {
    req.sources = parse_uint_list(p, p.get("sources"), ",",
                                  "malformed --sources (expected v1,v2,...)");
  } else if (p.has("source")) {
    req.sources = {
        static_cast<Vertex>(p.get_uint("source", 0, 0, 0xFFFFFFFFull))};
  } else {
    p.fail("build needs --source or --sources");
  }
  if (req.sources.empty()) p.fail("--sources is empty");

  if (p.has("out") && p.get("out").ends_with(".ftb")) {
    return build_snapshot(g, p, req, p.get("out"), stats_mode);
  }

  // JSON stats are for machines; include the optional instrumentation
  // (e.g. Cons2 path classification) in that mode.
  req.collect_stats = stats_mode == "json";
  const std::string algo =
      p.get("algo",
            BuilderRegistry::default_builder(req.fault_budget, req.fault_model,
                                             req.sources.size()));
  const BuildResult r = registry_build(req, algo);

  if (stats_mode == "json") {
    print_stats_json(g, r);
  } else {
    std::printf("%s: kept %zu / %u edges (%.1f%%) in %.2fs\n",
                r.algorithm.c_str(), r.structure.edges.size(), g.num_edges(),
                100.0 * static_cast<double>(r.structure.edges.size()) /
                    std::max(1u, g.num_edges()),
                r.build_seconds);
  }
  if (p.has("out")) {
    save_graph(p.get("out"), materialize(g, r.structure));
    if (stats_mode != "json") {
      std::printf("wrote structure to %s\n", p.get("out").c_str());
    }
  }
  return 0;
}

// --- verify ------------------------------------------------------------------

// Maps the edges of a structure file back onto ids of the host graph.
std::vector<EdgeId> structure_edge_ids(const Graph& g, const Graph& h) {
  std::vector<EdgeId> ids;
  for (EdgeId e = 0; e < h.num_edges(); ++e) {
    const EdgeId ge = g.find_edge(h.edge(e).u, h.edge(e).v);
    if (ge == kInvalidEdge) {
      std::fprintf(stderr, "structure edge (%u,%u) not present in graph\n",
                   h.edge(e).u, h.edge(e).v);
      std::exit(1);
    }
    ids.push_back(ge);
  }
  return ids;
}

int cmd_verify(const FlagParser& p) {
  const Graph g = load_graph(p.get("graph"));
  const Graph h = load_graph(p.get("structure"));
  const Vertex s =
      static_cast<Vertex>(p.get_uint("source", 0, 0, 0xFFFFFFFFull));
  const unsigned f =
      static_cast<unsigned>(p.get_uint("budget", 0, 0, 1u << 20));
  const std::string mode = p.get("mode", "exhaustive");
  const std::string model = p.get("fault-model", "edge");
  if (model != "edge" && model != "vertex") {
    p.fail("--fault-model must be edge or vertex");
  }
  // Keep library contract violations out of reach of user input.
  if (mode == "exhaustive" && f > 3) {
    p.fail("--mode exhaustive supports --budget 0..3");
  }
  if (mode == "sampled" && f == 0) {
    p.fail("--mode sampled requires --budget >= 1");
  }
  const std::vector<EdgeId> ids = structure_edge_ids(g, h);
  const std::vector<Vertex> sources = {s};

  Timer timer;
  std::optional<Violation> violation;
  if (model == "vertex") {
    if (mode != "exhaustive") {
      p.fail("--fault-model vertex supports --mode exhaustive only");
    }
    violation = verify_exhaustive_vertex(g, ids, sources, f);
  } else if (mode == "exhaustive") {
    violation = verify_exhaustive(g, ids, sources, f);
  } else if (mode == "sampled") {
    const std::uint64_t samples = p.get_uint("samples", 1000, 1);
    violation = verify_sampled(g, ids, sources, f, samples, 1);
  } else {
    p.fail("--mode must be exhaustive or sampled");
  }
  if (violation) {
    std::printf("INVALID: %s\n", violation->describe(g).c_str());
    return 1;
  }
  std::printf("VALID (%s, %s faults, f=%u, %.2fs)\n", mode.c_str(),
              model.c_str(), f, timer.seconds());
  return 0;
}

// --- query -------------------------------------------------------------------

int cmd_query(const FlagParser& p) {
  const Graph g = load_graph(p.get("graph"));
  const Vertex s =
      static_cast<Vertex>(p.get_uint("source", 0, 0, 0xFFFFFFFFull));
  const Vertex t =
      static_cast<Vertex>(p.get_uint("target", 0, 0, 0xFFFFFFFFull));
  if (t >= g.num_vertices()) p.fail("--target out of range");
  std::vector<EdgeId> faults;
  if (p.has("fault-edges")) {
    const char* err = "malformed --fault-edges (expected u-v,u-v)";
    const std::vector<Vertex> ends =
        parse_uint_list(p, p.get("fault-edges"), ",-", err);
    if (ends.size() % 2 != 0) p.fail(err);
    for (std::size_t i = 0; i < ends.size(); i += 2) {
      if (ends[i] >= g.num_vertices() || ends[i + 1] >= g.num_vertices()) {
        p.fail("fault edge endpoint out of range");
      }
      const EdgeId e = g.find_edge(ends[i], ends[i + 1]);
      if (e == kInvalidEdge) p.fail("fault edge not in graph");
      faults.push_back(e);
    }
  }
  std::vector<Vertex> fault_verts;
  if (p.has("fault-vertices")) {
    fault_verts =
        parse_uint_list(p, p.get("fault-vertices"), ",",
                        "malformed --fault-vertices (expected v1,v2,...)");
    for (const Vertex v : fault_verts) {
      if (v >= g.num_vertices()) p.fail("fault vertex out of range");
    }
  }
  // The structure's fault model must match the kind of faults queried — an
  // edge-fault structure does not cover vertex deletions and vice versa.
  if (!fault_verts.empty() && !faults.empty()) {
    p.fail("mixing --fault-edges and --fault-vertices is unsupported");
  }
  const bool vertex_model = !fault_verts.empty() ||
                            p.get("fault-model", "edge") == "vertex";
  if (vertex_model && !faults.empty()) {
    p.fail("--fault-model vertex queries take --fault-vertices, not "
           "--fault-edges");
  }
  if (!fault_verts.empty() && p.get("fault-model", "vertex") == "edge") {
    p.fail("--fault-vertices requires --fault-model vertex (or omit the "
           "flag)");
  }
  const std::size_t fault_count = faults.size() + fault_verts.size();

  BuildRequest req = base_request(g, p, 2);
  req.sources = {s};
  if (vertex_model) req.fault_model = FaultModel::kVertex;
  std::string algo = p.get("algo", "");
  if (!p.has("budget")) {
    // Default budget: the fault count, raised to an explicit --algo's
    // declared minimum so e.g. `--algo swap` works without --budget.
    std::size_t budget = fault_count;
    if (!algo.empty()) {
      const BuilderTraits* traits = BuilderRegistry::instance().find(algo);
      if (traits != nullptr) {
        budget = std::max<std::size_t>(budget, traits->min_fault_budget);
      }
    }
    req.fault_budget = static_cast<unsigned>(budget);
  }
  if (algo.empty()) {
    algo = BuilderRegistry::default_builder(req.fault_budget, req.fault_model);
  }
  if (fault_count > req.fault_budget) {
    p.fail("more fault edges/vertices than the structure's --budget");
  }
  const BuildResult built = registry_build(req, algo);
  FaultQueryEngine engine(g, built.structure);
  const BuilderTraits* traits =
      BuilderRegistry::instance().find(built.algorithm);
  std::printf("structure: %llu edges of %u (built by %s)\n",
              static_cast<unsigned long long>(engine.structure_edges()),
              g.num_edges(), built.algorithm.c_str());
  if (traits != nullptr && !traits->exact) {
    std::printf("note: %s is approximate — distances are upper bounds, not "
                "guaranteed exact\n",
                built.algorithm.c_str());
  }
  const FaultSpec spec{faults, fault_verts};
  const std::uint32_t d = engine.distance(s, t, spec);
  if (d == kInfHops) {
    std::printf("dist(%u,%u | %zu faults) = unreachable\n", s, t, fault_count);
  } else {
    std::printf("dist(%u,%u | %zu faults) = %u\n", s, t, fault_count, d);
    const auto path = engine.shortest_path(s, t, spec);
    std::printf("path:");
    for (const Vertex v : *path) std::printf(" %u", v);
    std::printf("\n");
  }
  return 0;
}

// --- serve -------------------------------------------------------------------

// Stop signal plumbing (docs/serving.md "Graceful shutdown"): SIGINT/SIGTERM
// set the flag and start NetServer's drain through its self-pipe. The
// handlers are installed WITHOUT SA_RESTART so the inline stdin loop, blocked
// in read, fails with EINTR and prints its summary instead of dying
// mid-stream.
std::atomic<bool> g_stop{false};
NetServer* g_net_server = nullptr;  // set before handlers are installed

void handle_stop_signal(int) {
  g_stop = true;
  if (g_net_server != nullptr) g_net_server->request_shutdown();
}

// SIGHUP = hot manifest reload (docs/robustness.md "Hot reload") wherever
// NetServer serves: --listen, or stdin at --threads > 1. The inline loop has
// no reload hook, so there SIGHUP keeps its default meaning.
void handle_reload_signal(int) {
  if (g_net_server != nullptr) g_net_server->request_reload();
}

void install_stop_handlers() {
  struct sigaction sa = {};
  sa.sa_handler = handle_stop_signal;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // no SA_RESTART: blocked reads must return EINTR
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);
}

void install_reload_handler() {
  struct sigaction sa = {};
  sa.sa_handler = handle_reload_signal;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_RESTART;  // reload must not abort anything mid-read
  ::sigaction(SIGHUP, &sa, nullptr);
}

// The serve summary, reconciled against the response stream: refusals include
// the wire-level ones (edge-resolution failures, unknown tenants, quota) that
// never reach a service, and parse errors are reported separately. With more
// than one tenant, a per-tenant breakdown follows — the per-tenant rows sum
// to the global line by construction.
void print_serve_summary(TenantRegistry& registry, const WireCounters& wire) {
  const std::uint64_t parse_errors =
      wire.parse_errors.load(std::memory_order_relaxed);
  const std::uint64_t resolve_refusals =
      wire.resolve_refusals.load(std::memory_order_relaxed);
  const std::uint64_t quota_refusals =
      wire.quota_refusals.load(std::memory_order_relaxed);
  const std::uint64_t rate_refusals =
      wire.rate_limit_refusals.load(std::memory_order_relaxed);
  const std::uint64_t deadline_refusals =
      wire.deadline_refusals.load(std::memory_order_relaxed);
  const std::uint64_t overload_sheds =
      wire.overload_sheds.load(std::memory_order_relaxed);
  // Pre-admission refusals (rate limit, deadline-at-admission) and loop-side
  // sheds never reach a service: fold them into the request/refusal totals so
  // the summary reconciles with the response stream.
  const std::uint64_t degraded =
      rate_refusals + deadline_refusals + overload_sheds;
  const TenantStats total = registry.global_stats();
  const ServiceStats& stats = total.service;
  std::size_t pool_size = 0;
  registry.for_each(
      [&](const Tenant& t) { pool_size += t.service.pool_size(); });
  std::fprintf(stderr,
               "served %llu requests (%llu ok, %llu refused); %llu parse "
               "errors; cache %llu/%llu hits (%.0f%%), %llu lines, "
               "%.0f B/line; %llu lazy builds, "
               "pool size %zu; query paths %llu fast / %llu repair / "
               "%llu full\n",
               static_cast<unsigned long long>(stats.requests +
                                               resolve_refusals +
                                               quota_refusals + degraded),
               static_cast<unsigned long long>(stats.served),
               static_cast<unsigned long long>(stats.refused +
                                               resolve_refusals +
                                               quota_refusals + degraded),
               static_cast<unsigned long long>(parse_errors),
               static_cast<unsigned long long>(stats.cache_hits),
               static_cast<unsigned long long>(stats.cache_hits +
                                               stats.cache_misses),
               100.0 * stats.cache_hit_rate(),
               static_cast<unsigned long long>(stats.cache_lines),
               stats.cache_bytes_per_line(),
               static_cast<unsigned long long>(stats.structures_built),
               pool_size,
               static_cast<unsigned long long>(stats.fast_path_hits),
               static_cast<unsigned long long>(stats.repair_bfs),
               static_cast<unsigned long long>(stats.full_bfs));
  if (degraded > 0) {
    std::fprintf(stderr,
                 "degraded: %llu rate-limited, %llu deadline-exceeded, "
                 "%llu overload-shed\n",
                 static_cast<unsigned long long>(rate_refusals),
                 static_cast<unsigned long long>(deadline_refusals),
                 static_cast<unsigned long long>(overload_sheds));
  }
  if (registry.size() > 1) {
    for (const TenantStats& ts : registry.stats()) {
      std::fprintf(
          stderr,
          "  tenant %-12s %llu requests (%llu ok, %llu refused, %llu "
          "quota-refused); cache %llu/%llu hits; %llu lazy builds\n",
          ts.name.c_str(),
          static_cast<unsigned long long>(ts.service.requests +
                                          ts.quota_refused),
          static_cast<unsigned long long>(ts.service.served),
          static_cast<unsigned long long>(ts.service.refused +
                                          ts.quota_refused),
          static_cast<unsigned long long>(ts.quota_refused),
          static_cast<unsigned long long>(ts.service.cache_hits),
          static_cast<unsigned long long>(ts.service.cache_hits +
                                          ts.service.cache_misses),
          static_cast<unsigned long long>(ts.service.structures_built));
    }
  }
}

// Writes all `n` bytes to `to`; false on an error. Socket writes use
// MSG_NOSIGNAL: a peer that has hung up fails the write instead of raising
// SIGPIPE.
bool write_all(int to, const char* data, std::size_t n, bool to_socket) {
  for (std::size_t off = 0; off < n;) {
    const ssize_t w = to_socket ? ::send(to, data + off, n - off, MSG_NOSIGNAL)
                                : ::write(to, data + off, n - off);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) return false;
    off += static_cast<std::size_t>(w);
  }
  return true;
}

// Copies `from` to `to` until EOF or an error on either side.
void copy_stream(int from, int to, bool to_socket) {
  char buf[1 << 16];
  while (true) {
    const ssize_t n = ::read(from, buf, sizeof buf);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0 ||
        !write_all(to, buf, static_cast<std::size_t>(n), to_socket)) {
      return;
    }
  }
}

// Parses --listen "host:port", ":port", or bare "port" (host defaults to
// 127.0.0.1; port 0 asks the kernel for an ephemeral port, printed on the
// "listening on" stderr line).
void parse_listen(const FlagParser& p, const std::string& spec,
                  NetServerConfig& nc) {
  const std::size_t colon = spec.rfind(':');
  std::string host;
  std::string port = spec;
  if (colon != std::string::npos) {
    host = spec.substr(0, colon);
    port = spec.substr(colon + 1);
  }
  if (!host.empty()) nc.host = host;
  if (port.empty() ||
      port.find_first_not_of("0123456789") != std::string::npos ||
      port.size() > 5 || std::stoul(port) > 65535) {
    p.fail("--listen expects host:port (port 0..65535)");
  }
  nc.port = static_cast<std::uint16_t>(std::stoul(port));
}

// `serve` on stdin at --threads 1: one request per line in, one response per
// line out. Answers collect in one buffer, written with one write(2) before
// every blocking read, whenever the buffer passes 64 KiB, and at EOF or
// stop: a pipe client that waits for each answer still gets it before the
// server blocks again. It frames exactly as NetServer does (same line cap,
// blank lines skipped). Relaxed mode with one thread is already in order —
// it differs only in stamping the correlation seq onto id-less lines,
// exactly as the workers would.
void serve_stdin_inline(TenantRegistry& registry, bool relaxed,
                        WireCounters& counters) {
  constexpr std::size_t kFlushBytes = 64 * 1024;
  LineFramer framer(NetServerConfig{}.max_line_bytes);
  std::uint64_t seq = 0;
  std::string out;
  ParsedRequest parsed;  // every line parses into this one request
  const auto flush = [&] {
    // A failed write drops the answers, as a failed stdio write did.
    (void)write_all(STDOUT_FILENO, out.data(), out.size(), false);
    out.clear();
  };
  const auto serve_line = [&](const std::string& line, bool oversized) {
    const auto at = static_cast<std::int64_t>(seq++);
    if (oversized) {
      out += oversized_line_answer(framer.max_line_bytes(), at, relaxed,
                                   counters);
    } else {
      LineJob job(registry, line, at, relaxed, counters, parsed);
      job.admit();
      job.finish(out);
    }
    out += '\n';
    if (out.size() >= kFlushBytes) flush();
  };
  char buf[1 << 16];
  while (!g_stop) {
    flush();
    const ssize_t n = ::read(STDIN_FILENO, buf, sizeof buf);
    if (n > 0) {
      framer.feed(buf, static_cast<std::size_t>(n), serve_line);
    } else if (n == 0) {
      framer.finish(serve_line);
      break;
    } else if (errno != EINTR) {
      break;
    }
  }
  flush();
}

int cmd_serve(const FlagParser& p) {
  if (p.has("failpoints")) {
    std::string fp_err;
    if (!fp::arm(p.get("failpoints"), &fp_err)) {
      p.fail("--failpoints: " + fp_err);
    }
  }
  const std::string armed = fp::active_schedule();
  if (!armed.empty()) {
    std::fprintf(stderr, "failpoints armed: %s\n", armed.c_str());
  }

  ServiceConfig config;
  config.default_budget =
      static_cast<unsigned>(p.get_uint("budget", 2, 0, 1u << 20));
  config.max_lazy_budget =
      static_cast<unsigned>(p.get_uint("max-lazy-budget", 3, 0, 1u << 20));
  config.cache_capacity = p.get_uint("cache-capacity", 256);
  config.weight_seed = p.get_uint("seed", 1);
  config.lazy_build = p.get_switch("lazy", true);
  config.build_jobs =
      static_cast<unsigned>(p.get_uint("build-jobs", 0, 0, 256));

  const unsigned threads =
      static_cast<unsigned>(p.get_uint("threads", 1, 1, 256));
  const std::string mode = p.get("mode", "ordered");
  if (mode != "ordered" && mode != "relaxed") {
    p.fail("--mode must be ordered or relaxed");
  }
  const bool relaxed = mode == "relaxed";

  const bool warm_cache = p.get_switch("warm-cache", false);
  if (p.has("warm-cache") && !p.has("load")) {
    p.fail("--warm-cache needs --load (there is no snapshot to warm from)");
  }

  // The tenant registry: --graph and/or --load host the default tenant
  // (named "default"), --tenants adds every manifest tenant after it. With
  // --tenants alone, the manifest's first tenant is the default. Registration
  // happens entirely before serving starts — the registry is immutable from
  // here on.
  TenantRegistry registry;
  TenantQuotas quotas;
  quotas.max_requests = p.get_uint("max-requests", 0);
  quotas.deadline_ms =
      static_cast<std::int64_t>(p.get_uint("deadline-ms", 0, 0, 1ull << 40));
  quotas.rate_limit_rps = p.get_double("rate-limit-rps", 0.0);
  if (!valid_rate_limit(quotas.rate_limit_rps)) {
    p.fail("--rate-limit-rps must be >= 0 and below 2^64");
  }
  quotas.rate_limit_burst = p.get_uint("rate-limit-burst", 0);
  if (p.has("load")) {
    // With --graph too, the fingerprints must match — a snapshot built from
    // a different graph is rejected (kGraphMismatch, exit 1), never served.
    Tenant& t = registry.add_from_snapshot(
        "default", p.get("load"), config, quotas, warm_cache,
        p.get("graph", ""));
    std::fprintf(stderr, "loaded snapshot %s: %zu structures, %llu warm "
                         "cache lines\n",
                 p.get("load").c_str(), t.service.pool_size() - 1,
                 static_cast<unsigned long long>(
                     t.service.stats().cache_lines));
  } else if (p.has("graph")) {
    registry.add("default", load_graph(p.get("graph")), config, quotas);
  } else if (p.has("max-requests") || p.has("deadline-ms") ||
             p.has("rate-limit-rps") || p.has("rate-limit-burst")) {
    p.fail("--max-requests/--deadline-ms/--rate-limit-* apply to the default "
           "tenant (--graph/--load); per-tenant quotas live in the --tenants "
           "manifest");
  }
  if (p.has("tenants")) {
    registry.load_manifest(p.get("tenants"), config);
  }
  if (registry.size() == 0) {
    p.fail("serve needs --graph, --load, and/or --tenants");
  }

  // Runs at drain, after the last response is flushed and before the
  // summary: the saved snapshot captures the pool the workload actually
  // built (lazy entries included) plus the warm cache.
  const auto save_at_drain = [&] {
    if (!p.has("save")) return;
    const SnapshotImage image = PersistAccess::export_service(
        registry.default_tenant()->service, /*include_cache=*/true);
    save_snapshot(p.get("save"), image);
    std::fprintf(stderr,
                 "saved snapshot %s: %zu structures, %zu cache lines, %llu "
                 "bytes\n",
                 p.get("save").c_str(), image.entries.size(),
                 image.cache_lines.size(),
                 static_cast<unsigned long long>(
                     file_size_bytes(p.get("save"))));
  };

  std::optional<NetServer> server;
  WireCounters inline_counters;
  bool truncated = false;  // stdin connection evicted: output is incomplete
  if (threads == 1 && !p.has("listen")) {
    install_stop_handlers();
    serve_stdin_inline(registry, relaxed, inline_counters);
  } else {
    // Everything else runs on NetServer (src/net/net_server.h): TCP clients
    // with --listen, otherwise stdin/stdout as its one connection. Ordered
    // mode means per-connection request order; relaxed stamps
    // per-connection seqs. On stdin nothing is shed or evicted unless asked
    // for: a paused stdout consumer must not lose responses.
    const bool on_stdin = !p.has("listen");
    NetServerConfig nc;
    nc.threads = threads;
    nc.ordered = !relaxed;
    nc.shed_after_ms = static_cast<std::int64_t>(
        p.get_uint("shed-after-ms", on_stdin ? 0 : 2000, 0, 1ull << 40));
    nc.write_stall_ms = static_cast<std::int64_t>(
        p.get_uint("write-stall-ms", on_stdin ? 0 : 30000, 0, 1ull << 40));
    if (p.has("tenants")) {
      // SIGHUP → re-read the manifest the server started with. Captures
      // `registry` by reference (outlives the server) and the path/config by
      // value; runs on the loop thread, so it may fprintf freely.
      const std::string manifest_path = p.get("tenants");
      nc.on_reload = [&registry, manifest_path, config] {
        const ReloadSummary rs = registry.reload(manifest_path, config);
        std::fprintf(stderr,
                     "reloaded %s: %zu added, %zu updated, %zu retired, "
                     "%zu reaped\n",
                     manifest_path.c_str(), rs.added, rs.updated, rs.retired,
                     rs.reaped);
      };
    }
    std::thread echo;  // stdin mode: copies the responses to stdout
    if (!on_stdin) {
      parse_listen(p, p.get("listen"), nc);
      server.emplace(registry, nc);
      std::fprintf(stderr, "listening on %s:%u\n", nc.host.c_str(),
                   static_cast<unsigned>(server->port()));
      std::fflush(stderr);
    } else {
      // stdin/stdout reach the server through a socketpair: two pumps copy
      // stdin in and responses out with plain reads and writes, which work
      // for pipes and regular files alike (epoll rejects regular files with
      // EPERM, and the goldens replay `< file > file`). The CLI's end stays
      // open until exit — the stdin pump may still be blocked in a read
      // after the run.
      int pair[2];
      if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, pair) != 0) {
        throw std::runtime_error(std::string("socketpair: ") +
                                 std::strerror(errno));
      }
      server.emplace(registry, nc, pair[1]);
      const int end = pair[0];
      std::thread([end] {
        copy_stream(STDIN_FILENO, end, /*to_socket=*/true);
        ::shutdown(end, SHUT_WR);  // the connection's EOF
      }).detach();
      echo = std::thread([end] { copy_stream(end, STDOUT_FILENO, false); });
    }
    g_net_server = &*server;
    install_stop_handlers();
    install_reload_handler();
    server->run();
    g_net_server = nullptr;
    if (!on_stdin) {
      std::fprintf(
          stderr, "drained: %llu connections, %llu responses\n",
          static_cast<unsigned long long>(server->connections_accepted()),
          static_cast<unsigned long long>(server->responses_sent()));
    } else if (server->connections_evicted_stalled() == 0) {
      // The server closed its end, so the pump reaches EOF once it has
      // copied the last response.
      echo.join();
    } else {
      echo.detach();  // evicted: stdout stopped draining, nothing waits on it
      std::fprintf(stderr, "ftbfs serve: stdout stalled past "
                           "--write-stall-ms; responses were dropped\n");
      truncated = true;
    }
  }
  if (g_stop && !p.has("listen")) {
    std::fprintf(stderr, "interrupted: drained in-flight requests\n");
  }
  save_at_drain();
  print_serve_summary(registry,
                      server ? server->wire_counters() : inline_counters);
  return truncated ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    global_usage(stderr);
    return 2;
  }
  const std::string cmd = argv[1];
  try {
    // $FTBFS_FAILPOINTS arms fault injection for any subcommand (the chaos
    // harness sets it around `serve --save` runs); malformed schedules are a
    // startup error, never a silently-disarmed one.
    fp::arm_from_env();
    if (cmd == "help" || cmd == "--help" || cmd == "-h") {
      if (argc >= 3 && print_command_help(argv[2], stdout)) return 0;
      global_usage(stdout);
      return 0;
    }
    if (cmd == "version" || cmd == "--version") {
      std::printf("ftbfs %s (snapshot format v%u)\n", FTBFS_CLI_VERSION,
                  kSnapshotVersion);
      return 0;
    }
    if (cmd == "algos") {
      list_algos(stdout);
      return 0;
    }
    if (cmd == "gen" || cmd == "build" || cmd == "verify" || cmd == "query" ||
        cmd == "serve") {
      FlagParser p = cmd == "gen"      ? gen_parser()
                     : cmd == "build"  ? build_parser()
                     : cmd == "verify" ? verify_parser()
                     : cmd == "query"  ? query_parser()
                                       : serve_parser();
      if (p.parse(argc, argv, 2) == false) return 0;  // --help handled
      if (cmd == "gen") return cmd_gen(p);
      if (cmd == "build") return cmd_build(p);
      if (cmd == "verify") return cmd_verify(p);
      if (cmd == "query") return cmd_query(p);
      return cmd_serve(p);
    }
  } catch (const UsageError& err) {
    std::fprintf(stderr, "ftbfs %s: %s\n", err.command().c_str(), err.what());
    std::fprintf(stderr, "run `ftbfs %s --help` for the flag table\n",
                 err.command().c_str());
    return 2;
  } catch (const SnapshotError& err) {
    // Typed snapshot rejections (corruption, version skew, graph mismatch)
    // fail closed before any serving starts.
    std::fprintf(stderr, "ftbfs: %s [%s]\n", err.what(),
                 to_string(err.status()));
    return 1;
  } catch (const GraphIoError& err) {
    std::fprintf(stderr, "ftbfs: %s\n", err.what());
    return 1;
  } catch (const std::exception& err) {
    // Socket setup failures (bind in use, bad address) land here.
    std::fprintf(stderr, "ftbfs: %s\n", err.what());
    return 1;
  }
  std::fprintf(stderr, "ftbfs: unknown command '%s'\n", cmd.c_str());
  global_usage(stderr);
  return 2;
}
