#include "core/verify.h"

#include <algorithm>

#include "engine/query_engine.h"
#include "spath/bfs.h"
#include "util/rng.h"

namespace ftbfs {
namespace {

// Shared machinery: compares dist(s,·) in G∖F vs H∖F for one fault set. Both
// sides are FaultQueryEngines — the identity engine serves ground truth from
// G, the structure engine owns the g→H translation — so the verifier carries
// no masked-BFS or translation scratch of its own.
class Comparator {
 public:
  Comparator(const Graph& g, std::span<const EdgeId> h_edges)
      : g_(g), g_engine_(g), h_engine_(g, h_edges) {}

  // Returns a violation for fault set `faults` (host ids), if any. The
  // violation's `faults` field is filled by the caller (it knows whether ids
  // are edges or vertices).
  std::optional<Violation> check(std::span<const Vertex> sources,
                                 const FaultSpec& faults) {
    for (const Vertex s : sources) {
      const std::vector<std::uint32_t>& dg = g_engine_.all_distances(s, faults);
      const std::vector<std::uint32_t>& dh = h_engine_.all_distances(s, faults);
      for (Vertex v = 0; v < g_.num_vertices(); ++v) {
        if (dg[v] != dh[v]) {
          Violation viol;
          viol.source = s;
          viol.v = v;
          viol.dist_g = dg[v];
          viol.dist_h = dh[v];
          return viol;
        }
      }
    }
    return std::nullopt;
  }

  [[nodiscard]] const Graph& g() const { return g_; }
  [[nodiscard]] FaultQueryEngine& g_engine() { return g_engine_; }

 private:
  const Graph& g_;
  FaultQueryEngine g_engine_;
  FaultQueryEngine h_engine_;
};

// Depth-first over every fault set that extends `faults` by at most
// `remaining` ids from `next` up: edge ids under kEdge, vertex ids under
// kVertex. Returns the first violation, in lexicographic order of the sets.
std::optional<Violation> enumerate_faults(Comparator& cmp, FaultModel model,
                                          std::span<const Vertex> sources,
                                          std::vector<std::uint32_t>& faults,
                                          std::uint32_t next,
                                          unsigned remaining) {
  const bool vertex = model == FaultModel::kVertex;
  if (auto v = cmp.check(sources, vertex ? vertex_faults(faults)
                                         : edge_faults(faults))) {
    v->faults = faults;
    v->fault_model = model;
    return v;
  }
  if (remaining == 0) return std::nullopt;
  const std::uint32_t ids =
      vertex ? cmp.g().num_vertices() : cmp.g().num_edges();
  for (std::uint32_t id = next; id < ids; ++id) {
    faults.push_back(id);
    if (auto v = enumerate_faults(cmp, model, sources, faults, id + 1,
                                  remaining - 1)) {
      return v;
    }
    faults.pop_back();
  }
  return std::nullopt;
}

}  // namespace

std::optional<Violation> verify_exhaustive_vertex(
    const Graph& g, std::span<const EdgeId> h_edges,
    std::span<const Vertex> sources, unsigned f) {
  FTBFS_EXPECTS(f <= 3);
  Comparator cmp(g, h_edges);
  std::vector<Vertex> faults;
  return enumerate_faults(cmp, FaultModel::kVertex, sources, faults, 0, f);
}

std::string Violation::describe(const Graph& g) const {
  std::string out = "FT-MBFS violation: source " + std::to_string(source) +
                    " -> " + std::to_string(v) + " " + to_string(fault_model) +
                    " faults {";
  for (std::size_t i = 0; i < faults.size(); ++i) {
    if (i > 0) out += ", ";
    if (fault_model == FaultModel::kVertex) {
      out += std::to_string(faults[i]);
    } else {
      const Edge& e = g.edge(faults[i]);
      out += "(" + std::to_string(e.u) + "," + std::to_string(e.v) + ")";
    }
  }
  out += "} dist_G=" +
         (dist_g == kInfHops ? std::string("inf") : std::to_string(dist_g)) +
         " dist_H=" +
         (dist_h == kInfHops ? std::string("inf") : std::to_string(dist_h));
  return out;
}

std::optional<Violation> verify_exhaustive(const Graph& g,
                                           std::span<const EdgeId> h_edges,
                                           std::span<const Vertex> sources,
                                           unsigned f) {
  FTBFS_EXPECTS(f <= 3);
  Comparator cmp(g, h_edges);
  std::vector<EdgeId> faults;
  return enumerate_faults(cmp, FaultModel::kEdge, sources, faults, 0, f);
}

std::optional<Violation> verify_sampled(const Graph& g,
                                        std::span<const EdgeId> h_edges,
                                        std::span<const Vertex> sources,
                                        unsigned f, std::uint64_t samples,
                                        std::uint64_t seed) {
  FTBFS_EXPECTS(f >= 1);
  Comparator cmp(g, h_edges);
  Rng rng(derive_seed(seed, 0x7E51F1));

  // The fault-free case is always checked.
  if (auto v = cmp.check(sources, {})) return v;

  for (std::uint64_t it = 0; it < samples; ++it) {
    std::vector<EdgeId> faults;
    if (it % 2 == 0) {
      // Uniform distinct edges.
      while (faults.size() < f) {
        const EdgeId e = static_cast<EdgeId>(rng.next_below(g.num_edges()));
        if (std::find(faults.begin(), faults.end(), e) == faults.end()) {
          faults.push_back(e);
        }
      }
    } else {
      // Adversarial chain: each successive fault lies on the replacement path
      // of the previous ones (queried through the ground-truth engine).
      const Vertex s =
          sources[static_cast<std::size_t>(rng.next_below(sources.size()))];
      const Vertex v = static_cast<Vertex>(rng.next_below(g.num_vertices()));
      for (unsigned step = 0; step < f; ++step) {
        const BfsResult& r = cmp.g_engine().query(s, edge_faults(faults));
        if (r.hops[v] == kInfHops || r.hops[v] == 0) break;
        // Walk parent pointers; pick a uniformly random edge of the path.
        std::vector<EdgeId> path_edges;
        for (Vertex cur = v; r.parent[cur] != kInvalidVertex;
             cur = r.parent[cur]) {
          path_edges.push_back(r.parent_edge[cur]);
        }
        faults.push_back(path_edges[static_cast<std::size_t>(
            rng.next_below(path_edges.size()))]);
      }
      while (faults.size() < f) {  // pad with uniform edges if chain ended
        const EdgeId e = static_cast<EdgeId>(rng.next_below(g.num_edges()));
        if (std::find(faults.begin(), faults.end(), e) == faults.end()) {
          faults.push_back(e);
        }
      }
    }
    if (auto viol = cmp.check(sources, edge_faults(faults))) {
      viol->faults = faults;
      return viol;
    }
  }
  return std::nullopt;
}

}  // namespace ftbfs
