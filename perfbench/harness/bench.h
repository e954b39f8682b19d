// Shared declarations of the harness modes: end-to-end runs against the
// `ftbfs` binary, the traced per-layer replay, and the self-tests.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "inputs.h"

namespace perfbench {

struct Ctx {
  const WorkloadSpec* spec = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool inject_wrong = false;
  std::string ftbfs;  // the binary under test
  std::string work;   // scratch directory for this run's files
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string note;  // printed next to the value (sample counts, bases)
  bool in_result = true;  // false: printed in the report, not in the result
};

// What one run prints: its metrics plus the correctness ledger.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> failures;  // the first few, for the log

  void fail(const std::string& why, std::uint64_t count = 1);
  void add(std::string name, double value, std::string unit, std::string note = {},
           bool in_result = true);
  // Prints the metric table, then the result object as the last line.
  void print(const std::string& header) const;
};

// The seed-derived input streams every mode shares.
enum Stream : std::uint64_t { kGraphStream = 1, kRequestStream = 2, kVerifyStream = 3 };

// Generates the workload graph for `seed`, writes it to `path`, returns it.
Graph make_graph(const WorkloadSpec& spec, std::uint64_t seed,
                 const std::string& path);

// Samples fault sets of size 1..2 and checks dist(0,v,H∖F) = dist(0,v,G∖F)
// for every v. Returns the number of samples that failed.
std::uint64_t verify_ft_sampled(const Graph& g, const std::vector<EdgeId>& h,
                                std::size_t samples, std::uint64_t seed,
                                bool inject_wrong);

// Client-side results of one serve session.
struct ServeResult {
  std::vector<double> setup_s;
  double cpu_us_per_req = 0;
  std::vector<double> window_rps;  // closed loop, per 0.5 s slice
  std::vector<double> open_latency_ms;
  std::vector<double> window_p50, window_p99;  // open loop, per 1 s slice
  std::size_t open_slices = 0;
  std::size_t late_windows = 0;  // open-loop slices left out: generator late
  double open_lateness_p99_ms = 0;
  bool open_valid = true;
  std::string open_note;
  double peak_rss_mb = 0;
  double snapshot_build_s = 0;
  std::uint64_t structure_edges = 0;
  std::uint64_t net_sheds = 0, parse_errors = 0;
};

struct ServePhases {
  int setup_spawns = 5;
  double warmup_s = 1;
  double closed_s = 4;  // total over all rounds
  double open_s = 4;    // total over all rounds
  int rounds = 1;       // alternations of a closed and an open phase
};

// Runs a serve workload end to end: inputs, snapshot (serve-cached), setup
// spawns, warm-up, closed loop, open loop, drain and checks. `snapshot` may
// name an existing .ftb to serve instead of building one.
ServeResult run_serve(const Ctx& ctx, const ServePhases& phases, Report& rep,
                      const std::string& snapshot = {});

int run_e2e(const Ctx& ctx);
int run_trace(const Ctx& ctx);
int run_selftest();

}  // namespace perfbench
