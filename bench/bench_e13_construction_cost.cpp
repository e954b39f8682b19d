// Experiment E13 (objective (1), kept polynomial per the paper): construction
// cost scaling of the registered algorithms, with fitted time exponents. The
// paper treats preprocessing as secondary ("our construction time is still
// polynomial in n"); this chart documents the polynomial — and, since the
// constructions went parallel, how far --jobs bends it.
//
// Three sections:
//   * E13a — the size ladder: every registered builder measured at the
//     dual-failure budget when supported, else its own budget (the greedy
//     set cover gets a reduced ladder — it enumerates m^f fault sets by
//     design). Fitted exponents printed under the table, and recorded per
//     algorithm as `fits[].time_exponent` in the JSON.
//   * E13b — full-build jobs sweep: each parallel_build family built to
//     completion at a fixed n across the jobs list, checking the structure
//     and stats against the jobs=1 build (the byte-identity contract of
//     core/build_parallel.h) and reporting wall-clock speedup.
//   * E13c — windowed throughput at n = 10^5: a full cons2ftbfs build at
//     that scale outlasts the window (bench_persist measures whole builds),
//     so each (family, jobs) cell forks a child that
//     builds with a progress counter in a MAP_SHARED page; the parent reads
//     the counter when the window closes and SIGKILLs the child. The counter
//     counts finished fault pairs (v, e) — the unit of fault_pairs_considered
//     — so rate = pairs / elapsed, speedup = rate(jobs) / rate(1). This is
//     the row the CI scaling gate keys on.
//
// Gates (exit status; recorded in bench/BENCH_e13.json by CI):
//   * every E13b jobs row byte-identical to its jobs=1 build;
//   * every E13c cell made progress (a stalled build fails on any machine);
//   * E13c speedup > 1 at 4 jobs for single_ftbfs and cons2ftbfs — enforced
//     only when the machine has >= 4 hardware threads, honestly reported as
//     skipped otherwise.
//
// Usage: bench_e13_construction_cost [--small] [--json] [--n N] [--window S]
#include <sys/mman.h>
#include <sys/wait.h>

#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <cinttypes>
#include <cstring>
#include <new>

#include "bench_util.h"
#include "core/cons2ftbfs.h"
#include "core/single_ftbfs.h"
#include "engine/registry.h"
#include "util/concurrency.h"

namespace {

using namespace ftbfs;
using namespace ftbfs::bench;

struct LadderRow {
  std::string algo;
  unsigned f = 0;
  Vertex n = 0;
  double seconds = 0.0;
};

struct JobsRow {
  std::string algo;
  Vertex n = 0;
  unsigned jobs = 1;
  double seconds = 0.0;
  double speedup = 1.0;
  bool identical = true;
};

struct RateRow {
  std::string algo;
  Vertex n = 0;
  unsigned jobs = 1;
  double window_s = 0.0;
  std::uint64_t pairs = 0;  // fault pairs finished in the window
  double rate = 0.0;        // pairs per second
  double speedup = 1.0;
};

// The stats fields the parallel schedule must reproduce exactly; compared
// here as a smoke check (tests/test_parallel_build.cpp does the full
// field-by-field property test).
bool same_build(const FtStructure& a, const FtStructure& b) {
  return a.edges == b.edges && a.stats.tree_edges == b.stats.tree_edges &&
         a.stats.new_edges == b.stats.new_edges &&
         a.stats.max_new_per_vertex == b.stats.max_new_per_vertex &&
         a.stats.fault_pairs_considered == b.stats.fault_pairs_considered &&
         a.stats.dijkstra_runs == b.stats.dijkstra_runs &&
         a.stats.divergence_fallbacks == b.stats.divergence_fallbacks;
}

// One E13c cell: fork, build with the progress counter in the shared page,
// harvest the counter when the window closes (or the whole build finishes
// early — possible under a --n override), SIGKILL + reap. The child never
// flushes state — everything the parent reads lives in the MAP_SHARED page.
double windowed_cell(const Graph& g, const std::string& algo, unsigned jobs,
                     double window_s, std::atomic<std::uint64_t>* counter,
                     std::uint64_t* pairs_out) {
  counter->store(0);
  Timer timer;
  const pid_t child = ::fork();
  if (child == 0) {
    if (algo == "single_ftbfs") {
      SingleFtbfsOptions opt;
      opt.jobs = jobs;
      opt.progress = counter;
      (void)build_single_ftbfs(g, 0, opt);
    } else {
      Cons2Options opt;
      opt.classify_paths = false;
      opt.jobs = jobs;
      opt.progress = counter;
      (void)build_cons2ftbfs(g, 0, opt);
    }
    _exit(0);
  }
  int status = 0;
  double elapsed = 0.0;
  for (;;) {
    ::usleep(50 * 1000);
    elapsed = timer.seconds();
    if (::waitpid(child, &status, WNOHANG) == child) break;
    if (elapsed >= window_s) {
      ::kill(child, SIGKILL);
      ::waitpid(child, &status, 0);
      break;
    }
  }
  *pairs_out = counter->load();
  return elapsed;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  bool small = false;
  Vertex big_n = 100000;
  double window_s = 0.0;  // 0 = defaulted from --small below
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--small") == 0) {
      small = true;
    } else if (std::strcmp(argv[i], "--n") == 0 && i + 1 < argc) {
      big_n = static_cast<Vertex>(std::strtoul(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--window") == 0 && i + 1 < argc) {
      window_s = std::strtod(argv[++i], nullptr);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--small] [--json] [--n N] [--window S]\n",
                   argv[0]);
      return 2;
    }
  }
  // Progress moves in steps — one tree edge's batch of pairs, or one target's
  // steps (2) and (3) — so the window must cover many of them even at the
  // small setting.
  if (window_s <= 0.0) window_s = small ? 3.0 : 10.0;
  const std::vector<unsigned> jobs_list =
      small ? std::vector<unsigned>{1, 4} : std::vector<unsigned>{1, 2, 4, 8};
  const unsigned hardware = hardware_workers();

  const BuilderRegistry& reg = BuilderRegistry::instance();

  // --- E13a: size ladder ----------------------------------------------------
  std::vector<LadderRow> ladder;
  struct Series {
    std::string name;
    std::vector<double> x, y;
  };
  std::vector<Series> series;
  for (const BuilderTraits& t : reg.traits()) {
    // Prefer the dual-failure budget (the paper's regime) where supported.
    const unsigned f =
        std::max(t.min_fault_budget, std::min(2u, t.max_fault_budget));
    if (f > t.max_fault_budget || f == 0) continue;
    // Builders that declare heavy construction get a reduced size ladder.
    const std::vector<Vertex> sizes =
        t.heavy_construction
            ? (small ? std::vector<Vertex>{32u, 48u}
                     : std::vector<Vertex>{32u, 48u, 64u})
            : (small ? std::vector<Vertex>{128u, 256u}
                     : std::vector<Vertex>{128u, 256u, 512u, 1024u});
    Series s{t.name, {}, {}};
    for (const Vertex n : sizes) {
      const Graph g = make_sparse_er(n, 53);
      BuildRequest req;
      req.graph = &g;
      req.sources = {0};
      req.fault_budget = f;
      const BuildResult r = reg.build(t.name, req);
      ladder.push_back({t.name, f, n, r.build_seconds});
      s.x.push_back(n);
      s.y.push_back(std::max(r.build_seconds, 1e-5));
    }
    series.push_back(std::move(s));
  }

  // --- E13b: full-build jobs sweep (byte-identity + wall speedup) -----------
  std::vector<JobsRow> jobs_rows;
  bool identical_ok = true;
  for (const BuilderTraits& t : reg.traits()) {
    if (!t.parallel_build) continue;
    const unsigned f =
        std::max(t.min_fault_budget, std::min(2u, t.max_fault_budget));
    const Vertex n = small ? 192u : 512u;
    const Graph g = make_sparse_er(n, 53);
    BuildRequest req;
    req.graph = &g;
    req.sources = {0};
    req.fault_budget = f;
    req.options.jobs = 1;
    const BuildResult base = reg.build(t.name, req);
    jobs_rows.push_back({t.name, n, 1, base.build_seconds, 1.0, true});
    for (const unsigned jobs : jobs_list) {
      if (jobs == 1) continue;
      req.options.jobs = jobs;
      const BuildResult r = reg.build(t.name, req);
      JobsRow row;
      row.algo = t.name;
      row.n = n;
      row.jobs = jobs;
      row.seconds = r.build_seconds;
      row.speedup =
          r.build_seconds == 0.0 ? 1.0 : base.build_seconds / r.build_seconds;
      row.identical = same_build(base.structure, r.structure);
      identical_ok = identical_ok && row.identical;
      jobs_rows.push_back(row);
    }
  }

  // --- E13c: windowed throughput at n = 10^5 --------------------------------
  auto* counter = static_cast<std::atomic<std::uint64_t>*>(
      ::mmap(nullptr, sizeof(std::atomic<std::uint64_t>),
             PROT_READ | PROT_WRITE, MAP_SHARED | MAP_ANONYMOUS, -1, 0));
  std::vector<RateRow> rate_rows;
  if (counter != MAP_FAILED) {
    new (counter) std::atomic<std::uint64_t>(0);
    const Graph big = make_sparse_er(big_n, 53);
    for (const std::string algo : {"single_ftbfs", "cons2ftbfs"}) {
      double rate1 = 0.0;
      for (const unsigned jobs : jobs_list) {
        RateRow row;
        row.algo = algo;
        row.n = big_n;
        row.jobs = jobs;
        const double elapsed =
            windowed_cell(big, algo, jobs, window_s, counter, &row.pairs);
        row.window_s = elapsed;
        row.rate = elapsed == 0.0
                       ? 0.0
                       : static_cast<double>(row.pairs) / elapsed;
        if (jobs == 1) rate1 = row.rate;
        row.speedup = (jobs == 1 || rate1 == 0.0) ? 1.0 : row.rate / rate1;
        rate_rows.push_back(row);
      }
    }
    ::munmap(counter, sizeof(std::atomic<std::uint64_t>));
  } else {
    std::fprintf(stderr, "mmap(MAP_SHARED) failed; skipping the E13c sweep\n");
  }

  // --- gate ------------------------------------------------------------------
  // A cell without progress is a stalled build, whatever the machine.
  bool progress_ok = true;
  for (const RateRow& row : rate_rows) progress_ok = progress_ok && row.pairs > 0;
  // Scaling is only demanded of a machine that can physically provide it.
  const bool gate_applicable = hardware >= 4 && !rate_rows.empty();
  bool scaling_ok = true;
  if (gate_applicable) {
    for (const RateRow& row : rate_rows) {
      if (row.jobs == 4) scaling_ok = scaling_ok && row.speedup > 1.0;
    }
  }
  const bool ok =
      identical_ok && progress_ok && (!gate_applicable || scaling_ok);

  if (json) {
    std::printf("{\"bench\":\"e13_construction\",\"hardware_threads\":%u,"
                "\"family\":\"sparse-ER(m=3n)\",\"ladder\":[",
                hardware);
    for (std::size_t i = 0; i < ladder.size(); ++i) {
      const LadderRow& r = ladder[i];
      std::printf("%s{\"algo\":\"%s\",\"f\":%u,\"n\":%u,\"seconds\":%.4f}",
                  i == 0 ? "" : ",", r.algo.c_str(), r.f, r.n, r.seconds);
    }
    // The ladder slope per algorithm: the fitted time exponent E13a prints
    // under its table.
    std::printf("],\"fits\":[");
    bool first_fit = true;
    for (const auto& s : series) {
      if (s.x.size() < 2) continue;
      const PowerFit fit = fit_power_law(s.x, s.y);
      std::printf("%s{\"algo\":\"%s\",\"points\":%zu,\"time_exponent\":%.3f,"
                  "\"r_squared\":%.4f}",
                  first_fit ? "" : ",", s.name.c_str(), s.x.size(),
                  fit.exponent, fit.r_squared);
      first_fit = false;
    }
    std::printf("],\"jobs_sweep\":[");
    for (std::size_t i = 0; i < jobs_rows.size(); ++i) {
      const JobsRow& r = jobs_rows[i];
      std::printf("%s{\"algo\":\"%s\",\"n\":%u,\"jobs\":%u,\"seconds\":%.4f,"
                  "\"speedup\":%.2f,\"identical\":%s}",
                  i == 0 ? "" : ",", r.algo.c_str(), r.n, r.jobs, r.seconds,
                  r.speedup, r.identical ? "true" : "false");
    }
    std::printf("],\"throughput\":[");
    for (std::size_t i = 0; i < rate_rows.size(); ++i) {
      const RateRow& r = rate_rows[i];
      std::printf("%s{\"algo\":\"%s\",\"n\":%u,\"jobs\":%u,\"window_s\":%.2f,"
                  "\"pairs\":%" PRIu64 ",\"rate_per_s\":%.1f,"
                  "\"speedup\":%.2f}",
                  i == 0 ? "" : ",", r.algo.c_str(), r.n, r.jobs, r.window_s,
                  r.pairs, r.rate, r.speedup);
    }
    std::printf("],\"gate\":{\"min_speedup_at_4_jobs\":1.0,\"applicable\":%s,"
                "\"identical\":%s,\"progress\":%s},\"pass\":%s}\n",
                gate_applicable ? "true" : "false",
                identical_ok ? "true" : "false",
                progress_ok ? "true" : "false", ok ? "true" : "false");
    return ok ? 0 : 1;
  }

  Table table("E13a: construction time (sparse-ER, m = 3n)");
  table.set_header({"algorithm", "f", "n", "seconds"});
  for (const LadderRow& r : ladder) {
    table.add_row({r.algo, fmt_u64(r.f), fmt_u64(r.n),
                   fmt_double(r.seconds, 3)});
  }
  table.print(std::cout);
  for (const auto& s : series) {
    if (s.x.size() >= 2) print_fit(s.name, s.x, s.y, 0.0);
  }

  Table jt("E13b: full-build jobs sweep (identical = byte-equal to jobs=1)");
  jt.set_header({"algorithm", "n", "jobs", "seconds", "speedup", "identical"});
  for (const JobsRow& r : jobs_rows) {
    jt.add_row({r.algo, fmt_u64(r.n), fmt_u64(r.jobs),
                fmt_double(r.seconds, 3), fmt_double(r.speedup, 2),
                r.identical ? "yes" : "NO"});
  }
  jt.print(std::cout);

  Table rt("E13c: windowed construction throughput, n = " +
           std::to_string(big_n));
  rt.set_header({"algorithm", "jobs", "window s", "pairs", "pairs/s",
                 "speedup"});
  for (const RateRow& r : rate_rows) {
    rt.add_row({r.algo, fmt_u64(r.jobs), fmt_double(r.window_s, 2),
                fmt_u64(r.pairs), fmt_double(r.rate, 1),
                fmt_double(r.speedup, 2)});
  }
  rt.print(std::cout);

  std::printf("\nReading: all constructions are low-degree polynomials (the\n"
              "greedy set cover pays its Θ(m^f) fault-set enumeration, which\n"
              "is why the paper positions it for instances, not for scale);\n"
              "--jobs divides the per-tree-edge selections and the per-\n"
              "target work across a crew without changing a single byte of\n"
              "the output.\n");
  std::printf("gate: identical %s; progress in every cell %s; "
              "speedup > 1 at 4 jobs %s\n",
              identical_ok ? "PASS" : "FAIL", progress_ok ? "PASS" : "FAIL",
              gate_applicable ? (scaling_ok ? "PASS" : "FAIL")
                              : "SKIPPED (needs >= 4 hardware threads)");
  return ok ? 0 : 1;
}
