// Workload definitions, seeded input generation, and answer checking.
//
// Everything the program under test receives is generated here from the
// workload seed: the graph file, the request stream, and (through the binary
// itself) the snapshot. Truth comes from the library's identity
// FaultQueryEngine over G, computed outside every timed region.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "engine/query_engine.h"
#include "graph/graph.h"
#include "util.h"

namespace perfbench {

using ftbfs::EdgeId;
using ftbfs::Graph;
using ftbfs::Vertex;

enum class Kind : std::uint8_t { kDistance, kReachability, kAllDistances, kPath };

// One workload's fixed parameters. perfbench/README.md carries the same table.
struct WorkloadSpec {
  std::string name;
  Vertex n = 0;
  EdgeId m = 0;
  bool serve = false;
  bool tcp = false;            // --listen (else stdin/stdout)
  unsigned threads = 4;        // serve --threads / build --jobs
  int setup_spawns = 11;       // set-up samples (median reported)
  unsigned connections = 1;    // client channels
  unsigned window = 1;         // closed-loop requests outstanding per channel
  double open_rate = 0;        // fixed open-loop rate, requests/s
  std::size_t scenario_pool = 0;  // 0 = every request draws fresh faults
  double share_reach = 0, share_all = 0, share_path = 0;  // rest: distance
  bool pin_identity = false;   // "structure":"identity"
  unsigned targets = 4;        // per distance/reachability request
  double tree_fault_share = 0.5;  // faults drawn from the BFS tree of source 0
};

// Returns nullptr for an unknown name.
const WorkloadSpec* find_workload(const std::string& name);
const std::vector<WorkloadSpec>& all_workloads();

// A random connected graph with exactly m edges: a random recursive spanning
// tree over a shuffled labelling plus uniform random chords.
std::vector<std::pair<Vertex, Vertex>> generate_edges(Vertex n, EdgeId m,
                                                      std::uint64_t seed);
void write_edge_list(const std::string& path, Vertex n,
                     const std::vector<std::pair<Vertex, Vertex>>& edges);
Graph build_graph(Vertex n, const std::vector<std::pair<Vertex, Vertex>>& edges);

// BFS-tree edges of `source` in g (the faults that actually damage answers).
std::vector<EdgeId> bfs_tree_edges(const Graph& g, Vertex source);

struct Request {
  Kind kind = Kind::kDistance;
  std::int32_t scenario = -1;  // pool index, or -1 when faults are inline
  std::vector<Vertex> targets;
  std::vector<EdgeId> faults;  // host edge ids; empty when from the pool
};

// Draws the request stream. Requests are numbered in issue order; the
// number doubles as the wire id.
class RequestGen {
 public:
  RequestGen(const WorkloadSpec& spec, const Graph& g, std::uint64_t seed);

  Request next();
  std::string line(std::uint64_t id, const Request& r) const;
  const std::vector<std::vector<EdgeId>>& pool() const { return pool_; }

 private:
  std::vector<EdgeId> draw_faults();

  const WorkloadSpec* spec_;
  const Graph* g_;
  Rng rng_;
  std::vector<EdgeId> tree_;
  std::vector<std::vector<EdgeId>> pool_;
};

// Hop distances from source 0 under `faults`, as the wire reports them
// (-1 = unreachable).
using Truth = std::vector<std::int64_t>;

// Identity-engine truth. `delta` selects the engine's fault-delta tier (fast,
// used for bulk truth) or its plain masked BFS (the independent reference).
class TruthEngine {
 public:
  TruthEngine(const Graph& g, bool delta);
  Truth all(const std::vector<EdgeId>& faults);
  // Bulk: distances to each request's targets, computed on `threads` workers.
  std::vector<std::vector<std::int64_t>> targets_bulk(
      const std::vector<Request>& reqs, unsigned threads);

 private:
  ftbfs::FaultQueryEngine engine_;
};

// Checks one answer against truth. `full` is the complete distance vector
// for the request's scenario, or null when `target_truth` holds the
// per-target distances instead. Returns an empty string when correct.
std::string check_answer(const Graph& g, const Request& r, const Answer& a,
                         const Truth* full,
                         const std::vector<std::int64_t>* target_truth);

}  // namespace perfbench
