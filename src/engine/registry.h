// StructureBuilder registry — one uniform construction interface.
//
// Every FT structure construction in the library (the paper's Cons2FTBFS, the
// [10] single-failure baseline, the Observation-1.6 chain construction, the
// multi-source unions, the Theorem-1.3 greedy set cover, the swap-edge
// approximate structure) is registered here under a stable name with declared
// capabilities (fault-budget range, multi-source, vertex faults, exactness).
// Consumers — the CLI, the benches, the property tests — iterate or look up by
// name instead of hard-coding per-algorithm dispatch chains, so a new
// construction lands everywhere by adding one registration.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/ftbfs_common.h"
#include "graph/graph.h"

namespace ftbfs {

inline constexpr unsigned kUnboundedFaults =
    std::numeric_limits<unsigned>::max();

// Execution knobs that never change the built structure.
struct BuildOptions {
  // Worker threads for parallel construction: 0 = auto (clamped hardware
  // concurrency), 1 = sequential. Builders with a parallel path (declared by
  // BuilderTraits::parallel_build) produce byte-identical structures and
  // stats at any value; the rest run sequentially and the registry reports a
  // `parallel_fallback_sequential` counter when jobs would exceed 1.
  unsigned jobs = 1;
};

// One construction request. `graph` must outlive the call.
struct BuildRequest {
  const Graph* graph = nullptr;
  std::vector<Vertex> sources;  // at least one
  unsigned fault_budget = 0;
  FaultModel fault_model = FaultModel::kEdge;
  std::uint64_t weight_seed = 1;  // tie-breaking assignment W
  // Enables optional instrumentation (e.g. Cons2FTBFS path classification);
  // costs time, never changes the structure.
  bool collect_stats = false;
  BuildOptions options;
};

// One construction result: the structure plus uniform bookkeeping.
struct BuildResult {
  FtStructure structure;
  std::string algorithm;       // registry name that produced it
  double build_seconds = 0.0;  // wall clock, filled by the registry
  // Algorithm-specific counters (chains enumerated, BFS runs, ...), uniform
  // enough for the CLI's JSON stats output and the bench tables.
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  // Wall seconds per construction phase (e.g. "step1_s"); like
  // build_seconds, they vary run to run.
  std::vector<std::pair<std::string, double>> phase_seconds;
};

// Declared capabilities of a registered builder; `build` validates requests
// against these before dispatching.
struct BuilderTraits {
  std::string name;
  std::string summary;                // one line for --help / error listings
  std::vector<std::string> aliases;   // legacy CLI spellings
  unsigned min_fault_budget = 0;
  unsigned max_fault_budget = kUnboundedFaults;
  bool multi_source = false;   // accepts |sources| > 1
  bool vertex_faults = false;  // accepts FaultModel::kVertex
  bool exact = true;  // guarantees dist(s,v,H∖F) = dist(s,v,G∖F) in budget
  // Construction cost is superpolynomial in practice (e.g. Θ(σ·m^f) fault-set
  // enumeration); benches and sweeps should use reduced instance sizes.
  bool heavy_construction = false;
  // Honors BuildOptions::jobs with byte-identical output at any job count
  // (the speculate-and-commit schedule of core/build_parallel.h). Builders
  // without it ignore jobs and build sequentially.
  bool parallel_build = false;
};

class BuilderRegistry {
 public:
  using BuildFn = std::function<BuildResult(const BuildRequest&)>;

  // The process-wide registry, pre-seeded with every library construction.
  [[nodiscard]] static BuilderRegistry& instance();

  void add(BuilderTraits traits, BuildFn fn);

  // Lookup by name or alias; nullptr if unknown.
  [[nodiscard]] const BuilderTraits* find(std::string_view name) const;

  // Registered canonical names, in registration order.
  [[nodiscard]] std::vector<std::string> names() const;
  [[nodiscard]] const std::vector<BuilderTraits>& traits() const {
    return traits_;
  }

  // Empty string if `name` exists and can serve `req`; otherwise a
  // human-readable reason.
  [[nodiscard]] std::string unsupported_reason(std::string_view name,
                                               const BuildRequest& req) const;

  // Validates and dispatches. Precondition: unsupported_reason(name, req) is
  // empty (contract violation otherwise).
  [[nodiscard]] BuildResult build(std::string_view name,
                                  const BuildRequest& req) const;

  // Default builder name for a request shape (the construction the paper
  // line recommends there). Single source, edge faults: kfail_ftbfs for 0,
  // single_ftbfs for 1, cons2ftbfs for 2, kfail_ftbfs beyond. Vertex faults:
  // kfail_ftbfs (the only vertex-capable builder). Multiple sources: the
  // ftmbfs union where it applies (f in 1..2, edge faults), else the greedy
  // approx_ftmbfs. No registered builder serves multi-source *vertex* faults;
  // for that shape the returned name's unsupported_reason explains the gap
  // (this function never fails).
  [[nodiscard]] static std::string default_builder(
      unsigned fault_budget, FaultModel model = FaultModel::kEdge,
      std::size_t num_sources = 1);

  BuilderRegistry() = default;

 private:
  std::vector<BuilderTraits> traits_;
  std::vector<BuildFn> fns_;
};

}  // namespace ftbfs
