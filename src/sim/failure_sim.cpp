#include "sim/failure_sim.h"

#include <algorithm>

#include "util/rng.h"

namespace ftbfs {

namespace {

ServiceConfig sim_service_config(const SimConfig& config) {
  ServiceConfig out;
  out.lazy_build = false;  // the sim routes only on its registered overlays
  out.cache_capacity = config.cache_capacity;
  out.delta_queries = config.delta_queries;
  out.cache_delta_max_fraction = config.cache_delta_max_fraction;
  return out;
}

}  // namespace

FailureSimulator::FailureSimulator(const Graph& g, Vertex source,
                                   SimConfig config)
    : g_(&g),
      source_(source),
      config_(config),
      service_(g, sim_service_config(config)) {
  FTBFS_EXPECTS(source < g.num_vertices());
}

void FailureSimulator::add_overlay(std::string name,
                                   std::span<const EdgeId> edges,
                                   unsigned fault_budget) {
  const std::size_t entry = service_.add_structure(
      name, source_, fault_budget, FaultModel::kEdge, edges);
  overlays_.push_back(Overlay{std::move(name), entry, fault_budget});
}

std::vector<OverlayMetrics> FailureSimulator::run() {
  const Graph& g = *g_;
  Rng rng(derive_seed(config_.seed, 0x51D));
  std::vector<bool> failed(g.num_edges(), false);
  // Current fault set (host edge ids), kept sorted so the repair draws below
  // consume the RNG in edge-id order — the same stream association as a full
  // edge scan, keeping fault trajectories reproducible for a fixed seed.
  std::vector<EdgeId> failed_list;

  std::vector<OverlayMetrics> metrics(overlays_.size());
  for (std::size_t i = 0; i < overlays_.size(); ++i) {
    metrics[i].name = overlays_[i].name;
    metrics[i].edges = service_.entry_edges(overlays_[i].entry);
  }
  fault_histogram_.assign(g.num_edges() + 1, 0);

  // One request skeleton per tick: best-effort because over-budget ticks must
  // still route (the metrics *measure* what breaks beyond the budget).
  QueryRequest req;
  req.source = source_;
  req.kind = QueryKind::kAllDistances;
  req.consistency = Consistency::kBestEffort;

  // Row 0 = ground truth (identity), rows 1.. = overlays, all answered
  // against the same tick-state in row order.
  const std::size_t rows = 1 + overlays_.size();
  std::vector<std::vector<std::uint32_t>> routed(rows);

  for (std::uint32_t tick = 0; tick < config_.ticks; ++tick) {
    // Repairs first, then new failures subject to the cap.
    std::erase_if(failed_list, [&](EdgeId e) {
      if (rng.next_bool(config_.repair_probability)) {
        failed[e] = false;
        return true;
      }
      return false;
    });
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      if (failed_list.size() >= config_.max_concurrent_faults) break;
      if (!failed[e] && rng.next_bool(config_.failure_probability)) {
        failed[e] = true;
        failed_list.insert(
            std::lower_bound(failed_list.begin(), failed_list.end(), e), e);
      }
    }
    ++fault_histogram_[failed_list.size()];

    req.fault_edges = failed_list;
    for (std::size_t r = 0; r < rows; ++r) {
      req.structure = r == 0 ? "identity" : overlays_[r - 1].name;
      routed[r] = service_.serve(req).distances;
    }
    const std::vector<std::uint32_t>& truth = routed[0];

    for (std::size_t i = 0; i < overlays_.size(); ++i) {
      const Overlay& overlay = overlays_[i];
      const std::vector<std::uint32_t>& got = routed[i + 1];
      const bool in_budget = failed_list.size() <= overlay.budget;
      OverlayMetrics& m = metrics[i];
      for (Vertex v = 0; v < g.num_vertices(); ++v) {
        if (v == source_ || truth[v] == kInfHops) continue;
        ++m.routed;
        if (in_budget) ++m.routed_in_budget;
        if (got[v] == truth[v]) {
          ++m.exact;
        } else if (got[v] == kInfHops) {
          ++m.disconnected;
          if (in_budget) ++m.non_exact_in_budget;
        } else {
          ++m.stretched;
          m.extra_hops += got[v] - truth[v];
          if (in_budget) ++m.non_exact_in_budget;
        }
      }
    }
  }
  return metrics;
}

}  // namespace ftbfs
