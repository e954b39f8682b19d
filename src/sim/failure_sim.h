// Discrete-time failure/repair simulation.
//
// The systems-side companion to the theory: edges fail and recover over time
// (independent per-tick probabilities, optionally capped at a maximum number
// of concurrent faults), and one or more *overlays* (sub-structures of the
// graph, e.g. a BFS tree, a single-failure FT-BFS, a dual-failure FT-BFS)
// route from the source every tick. Metrics separate ticks inside the
// overlay's fault budget from ticks beyond it, making the FT guarantee
// ("exact whenever |F| <= f") directly observable.
//
// Routing per tick goes through one OracleService: the ground truth is the
// service's identity entry, each overlay is a pool entry pinned by name, and
// every tick issues best-effort all-distances requests (over-budget ticks
// must still be answered — measuring the degradation is the point), one per
// row, in row order, on the thread that calls run(). The cache's
// hit/miss/eviction stream is therefore as reproducible as the metrics. Fault
// trajectories revisit states constantly (repairs return to recent sets, calm
// stretches stay fault-free), so the service's scenario cache serves repeated
// tick-states without re-running BFS — service_stats() shows the hit rate.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "service/oracle_service.h"
#include "graph/graph.h"

namespace ftbfs {

struct SimConfig {
  double failure_probability = 0.002;  // per alive edge, per tick
  double repair_probability = 0.2;     // per failed edge, per tick
  std::uint32_t ticks = 500;
  std::uint64_t seed = 1;
  // Hard cap on concurrent faults (simulates a maintenance policy); no new
  // failures start while the cap is reached. 0 = no failures at all.
  std::size_t max_concurrent_faults = 2;
  // Scenario-cache capacity of the routing service (0 disables caching).
  std::size_t cache_capacity = 512;
  // Fault-delta query path of the routing service's engines. The simulator
  // is the delta path's natural customer: a tick's fault set is small and
  // drifts edge by edge, so cache-missing tick-states repair a few subtrees
  // instead of re-running BFS over every overlay. Metrics are identical
  // either way; off reproduces the pre-delta serving cost.
  bool delta_queries = true;
  // Delta-compressed scenario cache of the routing service: tick-states
  // perturb few distances, so cached lines shrink to the affected-region
  // diff (ServiceConfig::cache_delta_max_fraction; <= 0 keeps full vectors).
  // Metrics are identical for every setting — only resident bytes change.
  double cache_delta_max_fraction = 0.25;
};

struct OverlayMetrics {
  std::string name;
  std::uint64_t edges = 0;             // overlay size
  std::uint64_t routed = 0;            // (tick, target) pairs evaluated
  std::uint64_t exact = 0;             // overlay distance == graph distance
  std::uint64_t stretched = 0;         // finite but longer
  std::uint64_t disconnected = 0;      // overlay lost a reachable target
  std::uint64_t extra_hops = 0;        // total stretch in hops
  // Same counters restricted to ticks whose concurrent fault count is within
  // the overlay's declared budget (where the FT guarantee applies).
  std::uint64_t routed_in_budget = 0;
  std::uint64_t non_exact_in_budget = 0;  // MUST be 0 for a valid FT overlay
};

class FailureSimulator {
 public:
  FailureSimulator(const Graph& g, Vertex source, SimConfig config);

  // Registers an overlay (edge ids of g) with a declared fault budget f.
  // Names must be unique and must not shadow the service's "identity" entry.
  void add_overlay(std::string name, std::span<const EdgeId> edges,
                   unsigned fault_budget);

  // Runs the process and returns one metrics row per overlay.
  [[nodiscard]] std::vector<OverlayMetrics> run();

  // Fault-count histogram of the last run (index = #concurrent faults).
  [[nodiscard]] const std::vector<std::uint64_t>& fault_histogram() const {
    return fault_histogram_;
  }

  // Serving counters of the routing service (cache hits across tick-states).
  [[nodiscard]] ServiceStats service_stats() const { return service_.stats(); }

 private:
  struct Overlay {
    std::string name;
    std::size_t entry;  // pool entry handle in service_
    unsigned budget;
  };

  const Graph* g_;
  Vertex source_;
  SimConfig config_;
  OracleService service_;
  std::vector<Overlay> overlays_;
  std::vector<std::uint64_t> fault_histogram_;
};

}  // namespace ftbfs
