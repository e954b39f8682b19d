#include "inputs.h"

#include <cstdio>
#include <stdexcept>
#include <thread>
#include <unordered_set>

#include "spath/bfs.h"

namespace perfbench {

const std::vector<WorkloadSpec>& all_workloads() {
  static const std::vector<WorkloadSpec> specs = [] {
    std::vector<WorkloadSpec> v;
    WorkloadSpec build;
    build.name = "build-cons2";
    build.n = 2000;
    build.m = 8000;
    v.push_back(build);

    WorkloadSpec cached;
    cached.name = "serve-cached";
    cached.n = 2000;
    cached.m = 8000;
    cached.serve = true;
    cached.connections = 1;
    cached.threads = 1;
    cached.window = 32;
    cached.open_rate = 10000;
    cached.scenario_pool = 64;
    cached.share_reach = 0.1;
    cached.share_all = 0.1;
    cached.tree_fault_share = 0.5;
    v.push_back(cached);

    WorkloadSpec repair;
    repair.name = "serve-repair";
    repair.n = 100000;
    repair.m = 400000;
    repair.serve = true;
    repair.tcp = true;
    repair.connections = 4;
    repair.setup_spawns = 5;  // each one loads the n=1e5 graph
    repair.window = 8;
    repair.open_rate = 2000;
    repair.share_path = 0.1;
    repair.pin_identity = true;
    repair.tree_fault_share = 0.85;
    v.push_back(repair);
    return v;
  }();
  return specs;
}

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& s : all_workloads()) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

std::vector<std::pair<Vertex, Vertex>> generate_edges(Vertex n, EdgeId m,
                                                      std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Vertex> label(n);
  for (Vertex i = 0; i < n; ++i) label[i] = i;
  for (Vertex i = n; i > 1; --i) {
    std::swap(label[i - 1], label[rng.below(i)]);
  }
  std::vector<std::pair<Vertex, Vertex>> edges;
  edges.reserve(m);
  std::unordered_set<std::uint64_t> seen;
  seen.reserve(2 * static_cast<std::size_t>(m));
  auto add = [&](Vertex u, Vertex v) {
    if (u == v) return false;
    const std::uint64_t key = (static_cast<std::uint64_t>(std::min(u, v)) << 32) |
                              std::max(u, v);
    if (!seen.insert(key).second) return false;
    edges.emplace_back(u, v);
    return true;
  };
  for (Vertex i = 1; i < n; ++i) {
    add(label[i], label[rng.below(i)]);
  }
  while (edges.size() < m) {
    add(static_cast<Vertex>(rng.below(n)), static_cast<Vertex>(rng.below(n)));
  }
  return edges;
}

void write_edge_list(const std::string& path, Vertex n,
                     const std::vector<std::pair<Vertex, Vertex>>& edges) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  std::fprintf(f, "n %u\n", n);
  for (const auto& [u, v] : edges) std::fprintf(f, "e %u %u\n", u, v);
  if (std::fclose(f) != 0) throw std::runtime_error("cannot write " + path);
}

Graph build_graph(Vertex n, const std::vector<std::pair<Vertex, Vertex>>& edges) {
  ftbfs::GraphBuilder b(n);
  for (const auto& [u, v] : edges) b.add_edge(u, v);
  return std::move(b).build();
}

std::vector<EdgeId> bfs_tree_edges(const Graph& g, Vertex source) {
  ftbfs::Bfs bfs(g);
  const ftbfs::BfsResult& r = bfs.run(source);
  std::vector<EdgeId> out;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    if (r.parent_edge[v] != ftbfs::kInvalidEdge) out.push_back(r.parent_edge[v]);
  }
  return out;
}

RequestGen::RequestGen(const WorkloadSpec& spec, const Graph& g,
                       std::uint64_t seed)
    : spec_(&spec), g_(&g), rng_(seed), tree_(bfs_tree_edges(g, 0)) {
  if (spec.scenario_pool > 0) {
    pool_.emplace_back();  // the fault-free scenario
    while (pool_.size() < spec.scenario_pool) pool_.push_back(draw_faults());
  }
}

std::vector<EdgeId> RequestGen::draw_faults() {
  const std::size_t count = 1 + rng_.below(2);
  std::vector<EdgeId> f;
  while (f.size() < count) {
    const EdgeId e = rng_.chance(spec_->tree_fault_share)
                         ? tree_[rng_.below(tree_.size())]
                         : static_cast<EdgeId>(rng_.below(g_->num_edges()));
    if (f.empty() || f.front() != e) f.push_back(e);
  }
  return f;
}

Request RequestGen::next() {
  Request r;
  const double u = rng_.unit();
  if (u < spec_->share_all) {
    r.kind = Kind::kAllDistances;
  } else if (u < spec_->share_all + spec_->share_reach) {
    r.kind = Kind::kReachability;
  } else if (u < spec_->share_all + spec_->share_reach + spec_->share_path) {
    r.kind = Kind::kPath;
  } else {
    r.kind = Kind::kDistance;
  }
  if (r.kind != Kind::kAllDistances) {
    const unsigned count = r.kind == Kind::kPath ? 1 : spec_->targets;
    for (unsigned i = 0; i < count; ++i) {
      r.targets.push_back(static_cast<Vertex>(rng_.below(g_->num_vertices())));
    }
  }
  if (!pool_.empty()) {
    r.scenario = static_cast<std::int32_t>(rng_.below(pool_.size()));
  } else {
    r.faults = draw_faults();
  }
  return r;
}

std::string RequestGen::line(std::uint64_t id, const Request& r) const {
  static const char* const kKinds[] = {"distance", "reachability",
                                       "all_distances", "path"};
  std::string s;
  s.reserve(160);
  s += "{\"id\":";
  s += std::to_string(id);
  s += ",\"source\":0,\"kind\":\"";
  s += kKinds[static_cast<int>(r.kind)];
  s += '"';
  if (!r.targets.empty()) {
    s += ",\"targets\":[";
    for (std::size_t i = 0; i < r.targets.size(); ++i) {
      if (i > 0) s += ',';
      s += std::to_string(r.targets[i]);
    }
    s += ']';
  }
  const std::vector<EdgeId>& faults = r.scenario >= 0 ? pool_[r.scenario] : r.faults;
  if (!faults.empty()) {
    s += ",\"fault_edges\":[";
    for (std::size_t i = 0; i < faults.size(); ++i) {
      const ftbfs::Edge& e = g_->edge(faults[i]);
      if (i > 0) s += ',';
      s += '[';
      s += std::to_string(e.u);
      s += ',';
      s += std::to_string(e.v);
      s += ']';
    }
    s += ']';
  }
  if (spec_->pin_identity) s += ",\"structure\":\"identity\"";
  s += '}';
  return s;
}

TruthEngine::TruthEngine(const Graph& g, bool delta) : engine_(g) {
  ftbfs::FaultQueryEngine::DeltaOptions opt;
  opt.enabled = delta;
  engine_.set_delta_options(opt);
}

namespace {
std::int64_t wire_hops(std::uint32_t h) {
  return h == ftbfs::kInfHops ? -1 : static_cast<std::int64_t>(h);
}
}  // namespace

Truth TruthEngine::all(const std::vector<EdgeId>& faults) {
  const auto& hops = engine_.all_distances(0, ftbfs::edge_faults(faults));
  Truth t(hops.size());
  for (std::size_t i = 0; i < hops.size(); ++i) t[i] = wire_hops(hops[i]);
  return t;
}

std::vector<std::vector<std::int64_t>> TruthEngine::targets_bulk(
    const std::vector<Request>& reqs, unsigned threads) {
  std::vector<std::vector<std::int64_t>> out(reqs.size());
  (void)engine_.baseline_hops(0);  // build once, before the workers race
  auto work = [&](unsigned w) {
    auto lease = engine_.acquire_scratch();
    for (std::size_t i = w; i < reqs.size(); i += threads) {
      const auto& hops =
          engine_.all_distances(lease, 0, ftbfs::edge_faults(reqs[i].faults));
      for (const Vertex t : reqs[i].targets) out[i].push_back(wire_hops(hops[t]));
    }
  };
  std::vector<std::thread> crew;
  for (unsigned w = 0; w < threads; ++w) crew.emplace_back(work, w);
  for (std::thread& t : crew) t.join();
  return out;
}

std::string check_answer(const Graph& g, const Request& r, const Answer& a,
                         const Truth* full,
                         const std::vector<std::int64_t>* target_truth) {
  auto truth_of = [&](std::size_t i) {
    return full != nullptr ? (*full)[r.targets[i]] : (*target_truth)[i];
  };
  if (r.kind == Kind::kAllDistances) {
    if (a.status != "ok") return "status " + a.status;
    if (!a.has_distances || a.distances != *full) return "all_distances differ";
    return {};
  }
  bool any_reachable = false;
  for (std::size_t i = 0; i < r.targets.size(); ++i) {
    any_reachable |= truth_of(i) >= 0;
  }
  const char* want_status = any_reachable ? "ok" : "disconnected";
  if (a.status != want_status) return "status " + a.status + ", want " + want_status;
  switch (r.kind) {
    case Kind::kDistance:
      if (!a.has_distances || a.distances.size() != r.targets.size()) {
        return "distances missing";
      }
      for (std::size_t i = 0; i < r.targets.size(); ++i) {
        if (a.distances[i] != truth_of(i)) {
          return "distance to " + std::to_string(r.targets[i]) + " is " +
                 std::to_string(a.distances[i]) + ", want " +
                 std::to_string(truth_of(i));
        }
      }
      return {};
    case Kind::kReachability:
      if (!a.has_reachable || a.reachable.size() != r.targets.size()) {
        return "reachable missing";
      }
      for (std::size_t i = 0; i < r.targets.size(); ++i) {
        if ((a.reachable[i] != 0) != (truth_of(i) >= 0)) return "reachability differs";
      }
      return {};
    case Kind::kPath:
      if (!a.has_paths || a.paths.size() != r.targets.size()) return "paths missing";
      for (std::size_t i = 0; i < r.targets.size(); ++i) {
        const auto& p = a.paths[i];
        const std::int64_t want = truth_of(i);
        if (want < 0) {
          if (!p.empty()) return "path to an unreachable target";
          continue;
        }
        if (static_cast<std::int64_t>(p.size()) != want + 1) return "path length differs";
        if (p.front() != 0 || p.back() != r.targets[i]) return "path endpoints wrong";
        for (std::size_t k = 0; k + 1 < p.size(); ++k) {
          if (p[k] < 0 || p[k + 1] < 0 || p[k] >= g.num_vertices() ||
              p[k + 1] >= g.num_vertices()) {
            return "path vertex out of range";
          }
          const EdgeId e = g.find_edge(static_cast<Vertex>(p[k]),
                                       static_cast<Vertex>(p[k + 1]));
          if (e == ftbfs::kInvalidEdge) return "path uses a missing edge";
          for (const EdgeId f : r.faults) {
            if (f == e) return "path uses a faulted edge";
          }
        }
      }
      return {};
    case Kind::kAllDistances:
      break;
  }
  return {};
}

}  // namespace perfbench
