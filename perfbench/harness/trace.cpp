// Traced mode: replays the seed's inputs in-process through each layer's
// public functions, with a span around every call, and reports per-layer
// metrics. Two short untraced sessions against the real binary give the
// front ends' share (client-observed latency minus in-process latency).
#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <thread>

#include "bench.h"
#include "core/selector.h"
#include "engine/registry.h"
#include "graph/io.h"
#include "net/framing.h"
#include "persist/service_io.h"
#include "persist/snapshot.h"
#include "service/protocol.h"
#include "service/tenant.h"
#include "service/work_queue.h"
#include "spath/bfs.h"
#include "spath/dijkstra.h"
#include "spath/weights.h"

namespace perfbench {

std::vector<double> Tracer::durations_us(const std::string& name) const {
  std::vector<double> out;
  for (const Record& r : spans_) {
    if (name == r.name) out.push_back(static_cast<double>(r.end_ns - r.start_ns) * 1e-3);
  }
  return out;
}

std::vector<std::int64_t> Tracer::self_ns() const {
  std::vector<std::int64_t> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end_ns - spans_[i].start_ns;
  }
  for (const Record& r : spans_) {
    if (r.parent >= 0) self[r.parent] -= r.end_ns - r.start_ns;
  }
  return self;
}

void Tracer::write_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  const std::vector<std::int64_t> self = self_ns();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Record& r = spans_[i];
    std::fprintf(f,
                 "{\"span\":%zu,\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"parent\":%d,\"req\":%llu,\"self_ns\":%lld}\n",
                 i, r.name, static_cast<long long>(r.start_ns),
                 static_cast<long long>(r.end_ns), r.parent,
                 static_cast<unsigned long long>(r.req),
                 static_cast<long long>(self[i]));
  }
  std::fclose(f);
}

void Tracer::print_self_table() const {
  struct Row {
    std::string name;
    std::uint64_t count = 0;
    double total_s = 0, self_s = 0;
  };
  std::vector<Row> rows;
  const std::vector<std::int64_t> self = self_ns();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    auto it = std::find_if(rows.begin(), rows.end(),
                           [&](const Row& r) { return r.name == spans_[i].name; });
    if (it == rows.end()) {
      rows.push_back({spans_[i].name});
      it = rows.end() - 1;
    }
    ++it->count;
    it->total_s += ns_to_s(spans_[i].end_ns - spans_[i].start_ns);
    it->self_s += ns_to_s(self[i]);
  }
  std::sort(rows.begin(), rows.end(),
            [](const Row& a, const Row& b) { return a.self_s > b.self_s; });
  std::printf("spans (self time = duration minus child spans):\n");
  std::printf("  %-24s %9s %12s %12s\n", "name", "count", "total s", "self s");
  for (const Row& r : rows) {
    std::printf("  %-24s %9llu %12.6f %12.6f\n", r.name.c_str(),
                static_cast<unsigned long long>(r.count), r.total_s, r.self_s);
  }
}

namespace {

using ftbfs::OracleService;
using ftbfs::QueryResponse;
using ftbfs::TenantRegistry;

constexpr unsigned kJobs = 4;
constexpr std::size_t kServiceReplay = 20000;
constexpr std::size_t kRepairReplay = 10000;
constexpr std::size_t kLineJobReplay = 60000;

std::string str(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.4g", v);
  return buf;
}

double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

// Every layer replay shares these: the seed's graphs and the report.
struct Replay {
  const Ctx* ctx;
  Report* rep;
  Tracer* tr;
  Graph build_graph;  // the build-cons2 / serve-cached graph
  std::string snapshot;
  double tools_pipeline_p50_us = 0;
  double net_pipeline_p50_us = 0;
};

// spath: one blocked tree edge per run, the step the constructions repeat.
void replay_spath(Replay& r) {
  const Graph& g = r.build_graph;
  const ftbfs::WeightAssignment w(g, 1);
  ftbfs::Dijkstra dij(g, w);
  ftbfs::Bfs bfs(g);
  ftbfs::GraphMask mask(g);
  const std::vector<EdgeId> tree = bfs_tree_edges(g, 0);
  Rng rng(mix_seed(r.ctx->seed, kVerifyStream));
  for (int i = 0; i < 300; ++i) {
    mask.clear();
    mask.block_edge(tree[rng.below(tree.size())]);
    {
      Span s(*r.tr, "spath.dijkstra");
      (void)dij.run(0, &mask);
    }
    {
      Span s(*r.tr, "spath.bfs");
      (void)bfs.run(0, &mask);
    }
  }
  r.rep->add("spath.dijkstra_us", median(r.tr->durations_us("spath.dijkstra")), "us",
             "Dijkstra::run, one blocked tree edge, median of 300");
  r.rep->add("spath.bfs_us", median(r.tr->durations_us("spath.bfs")), "us",
             "Bfs::run, one blocked tree edge, median of 300");
}

// core: select_single_fault for every (target, pi-edge) pair, in the order
// the sequential construction visits them.
void replay_select(Replay& r) {
  const Graph& g = r.build_graph;
  const ftbfs::WeightAssignment w(g, 1);
  ftbfs::PathSelector sel(g, w);
  sel.mask().clear();
  const ftbfs::SpResult tree = sel.w_sssp(0);
  const std::uint64_t bfs0 = sel.bfs_runs();
  const std::uint64_t dij0 = sel.dijkstra_runs();
  ftbfs::VertexIndexMap pi_pos(g.num_vertices());
  std::uint64_t calls = 0;
  for (Vertex v = 1; v < g.num_vertices(); ++v) {
    if (!tree.reached(v)) continue;
    const ftbfs::Path pi = ftbfs::extract_path(tree, v);
    pi_pos.bind(pi);
    for (std::size_t i = 0; i + 1 < pi.size(); ++i, ++calls) {
      Span s(*r.tr, "core.select", v);
      (void)ftbfs::select_single_fault(sel, pi, pi_pos, i);
    }
  }
  r.rep->add("core.select_us", median(r.tr->durations_us("core.select")), "us",
             "select_single_fault, median of " + std::to_string(calls) + " pairs");
  r.rep->add("core.select_bfs_per_call", ratio(sel.bfs_runs() - bfs0, calls), "count",
             "PathSelector BFS runs / calls");
  r.rep->add("core.select_dijkstra_per_call", ratio(sel.dijkstra_runs() - dij0, calls),
             "count", "PathSelector Dijkstra runs / calls");
}

// engine + persist: the registry build, then the snapshot the CLI would
// write for it, saved and restored as `serve --load` does.
void replay_build_and_persist(Replay& r) {
  const Graph& g = r.build_graph;
  ftbfs::BuildRequest req;
  req.graph = &g;
  req.sources = {0};
  req.fault_budget = 2;
  req.options.jobs = kJobs;
  ftbfs::BuildResult built;
  {
    Span s(*r.tr, "engine.build");
    built = ftbfs::BuilderRegistry::instance().build("cons2ftbfs", req);
  }
  std::uint64_t conflicts = 0;
  for (const auto& [key, value] : built.counters) {
    if (key == "spec_conflicts") conflicts = value;
  }
  const std::uint64_t targets = g.num_vertices() - 1;
  r.rep->add("engine.build_s", r.tr->durations_us("engine.build").front() * 1e-6, "s",
             "BuilderRegistry::build cons2ftbfs, jobs " + std::to_string(kJobs));
  r.rep->add("core.dijkstra_runs", static_cast<double>(built.structure.stats.dijkstra_runs),
             "count", "BuildResult");
  r.rep->add("core.fault_pairs_considered",
             static_cast<double>(built.structure.stats.fault_pairs_considered), "count",
             "BuildResult");
  r.rep->add("core.spec_conflict_ratio", ratio(conflicts, targets), "ratio",
             std::to_string(conflicts) + " spec_conflicts / " + std::to_string(targets) +
                 " covered targets");

  ftbfs::ServiceConfig sc;
  sc.lazy_build = false;
  sc.cache_capacity = 0;
  sc.build_jobs = kJobs;
  OracleService svc(g, sc);
  svc.add_structure("cons2ftbfs@s0f2", 0, 2, ftbfs::FaultModel::kEdge,
                    built.structure.edges);
  (void)svc.engine(1).baseline_hops(0);
  const ftbfs::SnapshotImage image = ftbfs::PersistAccess::export_service(svc, false);
  r.snapshot = r.ctx->work + "/trace.ftb";
  {
    Span s(*r.tr, "persist.save");
    ftbfs::save_snapshot(r.snapshot, image, kJobs);
  }
  {
    Span s(*r.tr, "persist.load");
    TenantRegistry restored;
    restored.add_from_snapshot("default", r.snapshot);
  }
  r.rep->add("persist.save_s", r.tr->durations_us("persist.save").front() * 1e-6, "s",
             "save_snapshot, jobs " + std::to_string(kJobs));
  r.rep->add("persist.load_s", r.tr->durations_us("persist.load").front() * 1e-6, "s",
             "load_snapshot + restore_service");
  r.rep->add("persist.snapshot_bytes",
             static_cast<double>(std::filesystem::file_size(r.snapshot)), "bytes",
             "cons2 snapshot of the build graph");
}

std::unique_ptr<TenantRegistry> restore(const Replay& r) {
  auto reg = std::make_unique<TenantRegistry>();
  reg->add_from_snapshot("default", r.snapshot);
  return reg;
}

// One request through parse -> admit -> execute -> format, each in a span.
// `classify` names the execute span from the response and the engine's
// counters. Returns the formatted line.
std::string serve_one(Tracer& tr, OracleService& svc, const Graph& g,
                      const std::string& line, std::uint64_t id,
                      const std::function<const char*(const QueryResponse&)>& classify) {
  Span whole(tr, "request", id);
  ftbfs::ParsedRequest parsed;
  {
    Span s(tr, "service.parse", id);
    parsed = ftbfs::parse_request_line(line, g);
  }
  ftbfs::QueryResponse resp;
  {
    OracleService::Admission adm = [&] {
      Span s(tr, "service.admit", id);
      return svc.admit(parsed.request);
    }();
    Span s(tr, "service.execute", id);
    resp = svc.execute(std::move(adm));
    s.rename(classify(resp));
  }
  Span s(tr, "service.format", id);
  return ftbfs::format_response_line(resp);
}

void check_line(Report& rep, const Graph& g, const Request& req, const std::string& line,
                const Truth* full, const std::vector<std::int64_t>* target_truth) {
  ++rep.attempted;
  Answer a;
  if (!JsonScanner(line).parse_answer(a)) {
    rep.fail("in-process response unparseable");
    return;
  }
  const std::string err = check_answer(g, req, a, full, target_truth);
  if (!err.empty()) rep.fail("in-process replay: " + err);
}

// service: the serve-cached stream through the restored snapshot service.
// Run untraced and traced, alternately, to measure the tracing overhead.
void replay_service(Replay& r) {
  const WorkloadSpec& spec = *find_workload("serve-cached");
  const Graph& g = r.build_graph;
  RequestGen gen(spec, g, mix_seed(r.ctx->seed, kRequestStream));
  std::vector<Request> reqs;
  std::vector<std::string> lines;
  for (std::size_t i = 0; i < kServiceReplay; ++i) {
    reqs.push_back(gen.next());
    lines.push_back(gen.line(i, reqs.back()));
  }
  TruthEngine truth(g, false);
  std::vector<Truth> pool_truth;
  for (const auto& f : gen.pool()) pool_truth.push_back(truth.all(f));

  const auto hit_or_miss = [](const QueryResponse& resp) {
    return resp.cache_hit ? "service.hit" : "service.miss";
  };
  std::vector<double> plain_s, traced_s;
  for (int round = 0; round < 4; ++round) {
    const bool traced = round % 2 == 1;
    Tracer scratch;
    scratch.enabled = traced;
    auto reg = restore(r);
    OracleService& svc = reg->default_tenant()->service;
    const ftbfs::ServiceStats before = svc.stats();
    std::uint64_t bytes = 0;
    std::vector<std::string> out(lines.size());
    const std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < lines.size(); ++i) {
      out[i] = serve_one(scratch, svc, reg->default_tenant()->graph, lines[i], i,
                         hit_or_miss);
    }
    (traced ? traced_s : plain_s).push_back(ns_to_s(now_ns() - t0));
    if (round != 3) continue;
    // The last traced round is the one reported.
    r.tr->append(scratch);
    for (std::size_t i = 0; i < lines.size(); ++i) {
      bytes += out[i].size() + 1;
      check_line(*r.rep, g, reqs[i], out[i], &pool_truth[reqs[i].scenario], nullptr);
    }
    const ftbfs::ServiceStats after = svc.stats();
    const std::uint64_t hits = after.cache_hits - before.cache_hits;
    const std::uint64_t misses = after.cache_misses - before.cache_misses;
    r.rep->add("service.parse_us", median(scratch.durations_us("service.parse")), "us",
               "parse_request_line, serve-cached stream");
    r.rep->add("service.admit_us", median(scratch.durations_us("service.admit")), "us",
               "OracleService::admit");
    r.rep->add("service.hit_us", median(scratch.durations_us("service.hit")), "us",
               "OracleService::execute on a cache hit");
    r.rep->add("service.format_us", median(scratch.durations_us("service.format")), "us",
               "format_response_line");
    r.rep->add("service.cache_hit_ratio", ratio(hits, hits + misses), "ratio",
               std::to_string(hits) + " hits / " + std::to_string(hits + misses) +
                   " lookups (reads, serve-cached)");
    r.rep->add("service.response_bytes_per_req", ratio(bytes, lines.size()), "bytes",
               "serve-cached mix");
    r.tools_pipeline_p50_us = median(scratch.durations_us("request"));
  }
  const double overhead = (median(traced_s) / median(plain_s) - 1.0) * 100.0;
  r.rep->add("trace.overhead_pct", overhead, "%",
             "traced " + str(median(traced_s)) + " s vs untraced " + str(median(plain_s)) +
                 " s, " + std::to_string(kServiceReplay) + " requests, median of 2 each");
}

// service: LineJob replay with ordered admission, as `serve` runs it on stdin
// with 1 thread (inline) and with 4 (reader, sequencer, resequencer).
double linejob_replay(const Replay& r, const std::vector<std::string>& lines,
                      unsigned threads, std::uint64_t& digest) {
  auto reg = restore(r);
  ftbfs::WireCounters counters;
  std::uint64_t h = 1469598103934665603ull;
  const auto sink = [&](const std::string& out) {
    for (const char c : out) h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ull;
    h = (h ^ '\n') * 1099511628211ull;
  };
  const std::int64_t t0 = now_ns();
  if (threads == 1) {
    for (std::size_t i = 0; i < lines.size(); ++i) {
      ftbfs::LineJob job(*reg, lines[i], static_cast<std::int64_t>(i), false, counters);
      job.admit();
      sink(job.finish());
    }
  } else {
    struct Item {
      std::uint64_t seq;
      const std::string* line;
      std::chrono::steady_clock::time_point arrival;
    };
    ftbfs::BoundedQueue<Item> queue(4 * threads);
    ftbfs::RequestSequencer order;
    ftbfs::Resequencer output(sink, 64 * threads);
    auto worker = [&] {
      std::vector<Item> batch;
      std::vector<ftbfs::LineJob> jobs;
      while (queue.pop_batch(batch, 8) > 0) {
        jobs.clear();
        for (const Item& item : batch) {
          jobs.emplace_back(*reg, *item.line, static_cast<std::int64_t>(item.seq), false,
                            counters, item.arrival);
        }
        order.wait_for(batch.front().seq);
        for (ftbfs::LineJob& job : jobs) job.admit();
        order.advance_n(batch.size());
        for (std::size_t i = 0; i < batch.size(); ++i) {
          output.emit(batch[i].seq, jobs[i].finish());
        }
      }
    };
    std::vector<std::thread> crew;
    for (unsigned w = 0; w < threads; ++w) crew.emplace_back(worker);
    for (std::size_t i = 0; i < lines.size(); ++i) {
      queue.push(Item{i, &lines[i], std::chrono::steady_clock::now()});
    }
    queue.close();
    for (std::thread& t : crew) t.join();
  }
  digest = h;
  return static_cast<double>(lines.size()) / ns_to_s(now_ns() - t0);
}

void replay_linejob(Replay& r) {
  const WorkloadSpec& spec = *find_workload("serve-cached");
  RequestGen gen(spec, r.build_graph, mix_seed(r.ctx->seed, kRequestStream));
  std::vector<std::string> lines;
  for (std::size_t i = 0; i < kLineJobReplay; ++i) lines.push_back(gen.line(i, gen.next()));
  std::uint64_t d1 = 0, d4 = 0;
  double rps1 = 0, rps4 = 0;
  {
    Span s(*r.tr, "service.replay_1w");
    rps1 = linejob_replay(r, lines, 1, d1);
  }
  {
    Span s(*r.tr, "service.replay_4w");
    rps4 = linejob_replay(r, lines, 4, d4);
  }
  r.rep->attempted += 1;
  if (d1 != d4) r.rep->fail("ordered 4-worker replay output differs from 1 worker");
  const std::string base = std::to_string(kLineJobReplay) + " serve-cached lines";
  r.rep->add("service.replay_rps_1w", rps1, "1/s", "LineJob inline, " + base);
  r.rep->add("service.replay_rps_4w", rps4, "1/s",
             "LineJob, 4 workers, ordered admission, " + base);
  r.rep->add("service.scaling_4w", rps4 / rps1, "ratio", "replay_rps_4w / replay_rps_1w");
}

// graph + engine + net framing: the serve-repair stream against the identity
// engine of the n=1e5 graph, one request at a time.
void replay_engine(Replay& r) {
  const WorkloadSpec& spec = *find_workload("serve-repair");
  const std::string file = r.ctx->work + "/repair.txt";
  const Graph mine = make_graph(spec, r.ctx->seed, file);
  Graph loaded;
  {
    Span s(*r.tr, "graph.load");
    loaded = ftbfs::load_graph(file);
  }
  r.rep->add("graph.load_s", r.tr->durations_us("graph.load").front() * 1e-6, "s",
             "load_graph, n=" + std::to_string(spec.n) + " m=" + std::to_string(spec.m));
  ftbfs::ServiceConfig sc;
  sc.lazy_build = false;
  TenantRegistry reg;
  ftbfs::Tenant& t = reg.add("default", std::move(loaded), sc);
  OracleService& svc = t.service;
  {
    Span s(*r.tr, "engine.baseline");
    (void)svc.engine(0).baseline_hops(0);
  }
  r.rep->add("engine.baseline_ms", r.tr->durations_us("engine.baseline").front() * 1e-3,
             "ms", "first baseline_hops(0), identity engine of the n=1e5 graph");

  RequestGen gen(spec, mine, mix_seed(r.ctx->seed, kRequestStream));
  std::vector<Request> reqs;
  std::vector<std::string> lines, out;
  for (std::size_t i = 0; i < kRepairReplay; ++i) {
    reqs.push_back(gen.next());
    lines.push_back(gen.line(i, reqs.back()));
  }
  ftbfs::FaultQueryEngine& identity = svc.engine(0);
  std::uint64_t fast = 0, repair = 0, full = 0, paths = 0;
  const ftbfs::ServiceStats before = svc.stats();
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const auto ps0 = identity.path_stats();
    const auto classify = [&](const QueryResponse& resp) -> const char* {
      if (resp.cache_hit) return "service.hit";
      if (reqs[i].kind == Kind::kPath) {
        ++paths;
        return "engine.path";
      }
      const auto ps1 = identity.path_stats();
      if (ps1.full_bfs > ps0.full_bfs) {
        ++full;
        return "engine.full";
      }
      if (ps1.repair_bfs > ps0.repair_bfs) {
        ++repair;
        return "engine.repair";
      }
      ++fast;
      return "engine.fast";
    };
    out.push_back(serve_one(*r.tr, svc, t.graph, lines[i], 1'000'000 + i, classify));
  }
  const ftbfs::ServiceStats after = svc.stats();
  TruthEngine truth(mine, true);
  const auto want = truth.targets_bulk(reqs, kJobs);
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    check_line(*r.rep, mine, reqs[i], out[i], nullptr, &want[i]);
  }
  const std::uint64_t misses = fast + repair + full;
  const std::string base = " of " + std::to_string(misses) + " non-path misses";
  r.rep->add("engine.fast_us", median(r.tr->durations_us("engine.fast")), "us",
             "execute, baseline fast path");
  r.rep->add("engine.repair_us", median(r.tr->durations_us("engine.repair")), "us",
             "execute, subtree repair BFS");
  r.rep->add("engine.path_us", median(r.tr->durations_us("engine.path")), "us",
             "execute, path kind (" + std::to_string(paths) + " requests)");
  r.rep->add("engine.fast_share", ratio(fast, misses), "ratio", std::to_string(fast) + base);
  r.rep->add("engine.repair_share", ratio(repair, misses), "ratio",
             std::to_string(repair) + base);
  r.rep->add("engine.full_share", ratio(full, misses), "ratio", std::to_string(full) + base);
  r.rep->add("service.cache_evictions_per_kreq",
             ratio((after.cache_evictions - before.cache_evictions) * 1000, lines.size()),
             "count", "writes, serve-repair stream");
  r.rep->add("service.cache_bytes_per_line", after.cache_bytes_per_line(), "bytes",
             std::to_string(after.cache_lines) + " resident lines, serve-repair");
  std::vector<double> req_us;
  for (const Tracer::Record& rec : r.tr->spans()) {
    if (rec.req >= 1'000'000 && std::string_view(rec.name) == "request") {
      req_us.push_back(static_cast<double>(rec.end_ns - rec.start_ns) * 1e-3);
    }
  }
  r.net_pipeline_p50_us = median(req_us);

  std::string stream;
  for (const std::string& l : lines) stream += l + '\n';
  ftbfs::LineFramer framer(1 << 20);
  std::uint64_t framed = 0;
  for (std::size_t off = 0; off < stream.size(); off += 65536) {
    Span s(*r.tr, "net.frame");
    framer.feed(stream.data() + off, std::min<std::size_t>(65536, stream.size() - off),
                [&](const std::string&, bool) { ++framed; });
  }
  ++r.rep->attempted;
  if (framed != lines.size()) r.rep->fail("LineFramer framed a different line count");
  double frame_us = 0;
  for (const double d : r.tr->durations_us("net.frame")) frame_us += d;
  r.rep->add("net.frame_us", frame_us / static_cast<double>(framed), "us",
             "LineFramer::feed per line, 64 KiB chunks");
}

// The front ends' share: client-observed open-loop p50 of a short untraced
// session against the real binary, minus the in-process pipeline p50.
void front_ends(Replay& r) {
  ServePhases phases;
  phases.setup_spawns = 1;
  phases.warmup_s = 0.5;
  phases.closed_s = 0;
  phases.open_s = 2;
  Ctx cached = *r.ctx;
  cached.spec = find_workload("serve-cached");
  cached.inject_wrong = false;
  const ServeResult c = run_serve(cached, phases, *r.rep, r.snapshot);
  r.rep->add("tools.overhead_us",
             percentile(c.open_latency_ms, 50) * 1e3 - r.tools_pipeline_p50_us, "us",
             "serve-cached stdin p50 " + str(percentile(c.open_latency_ms, 50) * 1e3) +
                 " us minus in-process p50 " + str(r.tools_pipeline_p50_us) + " us");
  Ctx repair = *r.ctx;
  repair.spec = find_workload("serve-repair");
  repair.inject_wrong = false;
  const ServeResult n = run_serve(repair, phases, *r.rep);
  r.rep->add("net.overhead_us",
             percentile(n.open_latency_ms, 50) * 1e3 - r.net_pipeline_p50_us, "us",
             "serve-repair TCP p50 " + str(percentile(n.open_latency_ms, 50) * 1e3) +
                 " us minus in-process p50 " + str(r.net_pipeline_p50_us) + " us");
  r.rep->add("net.sheds", static_cast<double>(n.net_sheds), "count",
             "overload sheds, serve-repair summary");
  r.rep->add("net.parse_errors", static_cast<double>(n.parse_errors), "count",
             "serve-repair summary");
}

}  // namespace

int run_trace(const Ctx& ctx) {
  Report rep;
  Tracer tr;
  Replay r{&ctx, &rep, &tr, {}, {}, 0, 0};
  r.build_graph = make_graph(*find_workload("build-cons2"), ctx.seed, ctx.work + "/build.txt");
  replay_spath(r);
  replay_select(r);
  replay_build_and_persist(r);
  replay_service(r);
  replay_linejob(r);
  replay_engine(r);
  front_ends(r);

  const std::string spans = ctx.work + "/spans.jsonl";
  tr.write_jsonl(spans);
  tr.print_self_table();
  std::printf("spans written to %s (%zu spans)\n", spans.c_str(), tr.spans().size());
  // Report metrics in the order BENCHMARK.json lists them.
  std::sort(rep.metrics.begin(), rep.metrics.end(),
            [](const Metric& a, const Metric& b) { return a.name < b.name; });
  rep.print("traced replay (seed " + std::to_string(ctx.seed) + ", workload " +
            ctx.spec->name + ": every layer replays this seed's inputs)");
  return rep.failed == 0 ? 0 : 1;
}

}  // namespace perfbench
