// End-to-end mode: drives the real `ftbfs` binary as a child process and
// checks every answer it gives.
#include <fcntl.h>
#include <signal.h>

#include <cmath>
#include <cstdio>
#include <optional>
#include <thread>

#include "bench.h"
#include "child.h"
#include "graph/mask.h"
#include "loadgen.h"
#include "persist/snapshot.h"
#include "spath/bfs.h"

namespace perfbench {

namespace {

constexpr double kClosedWindowS = 0.5;
constexpr double kOpenWindowS = 1.0;
constexpr double kMaxLateMs = 5.0;  // generator lateness p99 that voids a slice

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

// Requests issued to the servers of one run, by wire id, plus their checks.
class Book {
 public:
  Book(const WorkloadSpec& spec, const Graph& g, std::uint64_t seed, Report& rep,
       bool inject_wrong)
      : g_(&g), gen_(spec, g, mix_seed(seed, kRequestStream)),
        rep_(&rep), inject_wrong_(inject_wrong) {
    TruthEngine truth(g, /*delta=*/false);
    for (const auto& faults : gen_.pool()) pool_truth_.push_back(truth.all(faults));
  }

  // The next request is a fault-free distance probe to vertex 1.
  void force_probe() {
    Request r;
    r.targets = {1};
    if (!gen_.pool().empty()) r.scenario = 0;
    forced_ = r;
  }

  std::string make(std::uint64_t id) {
    if (id != reqs_.size()) throw std::logic_error("request ids out of order");
    reqs_.push_back(forced_ ? *forced_ : gen_.next());
    forced_.reset();
    return gen_.line(id, reqs_.back());
  }

  // Pool workloads are judged on arrival; the others keep the answer for
  // verify_deferred(), which needs truth for scenarios drawn on the fly.
  bool check(std::uint64_t id, std::string_view line) {
    Answer a;
    if (!JsonScanner(line).parse_answer(a)) {
      rep_->fail("unparseable response: " + std::string(line.substr(0, 120)));
      return false;
    }
    if (a.id != static_cast<std::int64_t>(id)) {
      rep_->fail("response id " + std::to_string(a.id) + " for request " +
                 std::to_string(id));
      return false;
    }
    const Request& r = reqs_[id];
    if (r.scenario < 0) {
      if (deferred_.size() <= id) deferred_.resize(id + 1);
      deferred_[id] = std::move(a);
      return true;
    }
    const Truth* full = &pool_truth_[r.scenario];
    Truth wrong;
    if (inject_wrong_ && !injected_) {
      injected_ = true;
      wrong = *full;
      for (auto& d : wrong) d += 1;
      full = &wrong;
    }
    const std::string err = check_answer(*g_, r, a, full, nullptr);
    if (!err.empty()) {
      rep_->fail("request " + std::to_string(id) + ": " + err);
      return false;
    }
    return true;
  }

  // Truth for every deferred answer: the identity engine's delta tier for
  // all of them, cross-checked against its plain masked BFS on a sample.
  void verify_deferred() {
    if (deferred_.empty()) return;
    std::vector<Request> reqs(reqs_.begin(),
                              reqs_.begin() + static_cast<std::ptrdiff_t>(deferred_.size()));
    TruthEngine fast(*g_, /*delta=*/true);
    auto truth = fast.targets_bulk(reqs, 4);
    TruthEngine plain(*g_, /*delta=*/false);
    for (std::size_t i = 0; i < reqs.size(); i += 997) {
      const Truth all = plain.all(reqs[i].faults);
      for (std::size_t k = 0; k < reqs[i].targets.size(); ++k) {
        if (all[reqs[i].targets[k]] != truth[i][k]) {
          rep_->fail("truth engines disagree on request " + std::to_string(i));
        }
      }
    }
    if (inject_wrong_ && !injected_ && !truth.empty()) {
      injected_ = true;
      for (auto& d : truth.front()) d += 1;
    }
    for (std::size_t i = 0; i < deferred_.size(); ++i) {
      if (deferred_[i].status.empty()) continue;  // never answered
      const std::string err = check_answer(*g_, reqs[i], deferred_[i], nullptr, &truth[i]);
      if (!err.empty()) rep_->fail("request " + std::to_string(i) + ": " + err);
    }
  }

  [[nodiscard]] std::uint64_t issued() const { return reqs_.size(); }

 private:
  const Graph* g_;
  RequestGen gen_;
  Report* rep_;
  bool inject_wrong_;
  bool injected_ = false;
  std::optional<Request> forced_;
  std::vector<Request> reqs_;
  std::vector<Truth> pool_truth_;
  std::vector<Answer> deferred_;
};

// One `ftbfs serve` process with its client channels.
struct Server {
  Child child;
  std::vector<Channel> channels;
  std::string err_path;
};

void set_nonblocking(int fd) {
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
}

// Spawns serve and returns once the first probe is answered: the set-up time.
std::optional<double> start_server(const Ctx& ctx, const std::vector<std::string>& argv,
                                   Server& s, Book& book, Report& rep, int idx) {
  const WorkloadSpec& spec = *ctx.spec;
  s.err_path = ctx.work + "/serve" + std::to_string(idx) + ".err";
  s.child = spawn_child(argv, !spec.tcp, !spec.tcp, ctx.work + "/serve.out", s.err_path);
  if (spec.tcp) {
    const std::string line = wait_for_line(s.err_path, "listening on", 120);
    const std::size_t colon = line.rfind(':');
    if (colon == std::string::npos) {
      rep.fail("serve never reported its port: " + read_file(s.err_path));
      return std::nullopt;
    }
    const int port = std::stoi(line.substr(colon + 1));
    for (unsigned c = 0; c < spec.connections; ++c) {
      const int fd = connect_loopback(port);
      if (fd < 0) {
        rep.fail("connect failed");
        return std::nullopt;
      }
      set_nonblocking(fd);
      Channel ch;
      ch.wfd = ch.rfd = fd;
      s.channels.push_back(std::move(ch));
    }
  } else {
    set_nonblocking(s.child.in_fd);
    set_nonblocking(s.child.out_fd);
    Channel ch;
    ch.wfd = s.child.in_fd;
    ch.rfd = s.child.out_fd;
    s.channels.push_back(std::move(ch));
  }
  LoadGen gen(s.channels, [&](std::uint64_t id) { return book.make(id); },
              [&](std::uint64_t id, std::string_view l) { return book.check(id, l); },
              book.issued());
  book.force_probe();
  ++rep.attempted;
  if (!gen.single(120)) {
    rep.fail("set-up probe unanswered: " + read_file(s.err_path));
    return std::nullopt;
  }
  return ns_to_s(now_ns() - s.child.spawn_ns);
}

// Ends the session (EOF on stdin, or SIGTERM for --listen) and reaps it.
ExitInfo stop_server(const Ctx& ctx, Server& s) {
  if (ctx.spec->tcp) {
    for (Channel& ch : s.channels) close_fd(ch.wfd);
    ::kill(s.child.pid, SIGTERM);
  }
  return reap_child(s.child, 60);
}

std::vector<std::string> serve_argv(const Ctx& ctx, const std::string& graph,
                                    const std::string& snapshot) {
  std::vector<std::string> a = {ctx.ftbfs, "serve", "--threads",
                                std::to_string(ctx.spec->threads)};
  if (!snapshot.empty()) {
    a.insert(a.end(), {"--load", snapshot});
  } else {
    a.insert(a.end(), {"--graph", graph, "--lazy", "off"});
  }
  if (ctx.spec->tcp) a.insert(a.end(), {"--listen", "127.0.0.1:0"});
  return a;
}

// `ftbfs build --algo cons2ftbfs --budget 2 --source 0 --jobs 4 --out x.ftb`.
ExitInfo build_snapshot(const Ctx& ctx, const std::string& graph,
                        const std::string& out) {
  Child c = spawn_child({ctx.ftbfs, "build", "--graph", graph, "--algo", "cons2ftbfs",
                         "--budget", "2", "--source", "0", "--jobs",
                         std::to_string(ctx.spec->threads), "--out", out},
                        false, false, ctx.work + "/build.out", ctx.work + "/build.err");
  return reap_child(c, 170);
}

// Kept edges of the single structure in a snapshot the binary wrote, as edge
// ids of g (matched by endpoints, whatever order the snapshot stores).
std::vector<EdgeId> snapshot_edges(const Graph& g, const std::string& path,
                                   Report& rep) {
  try {
    ftbfs::SnapshotImage img = ftbfs::load_snapshot(path);
    if (img.entries.size() != 1) {
      rep.fail("snapshot holds " + std::to_string(img.entries.size()) + " structures");
      return {};
    }
    std::vector<EdgeId> out;
    for (const EdgeId e : img.entries.front().edges) {
      const ftbfs::Edge& ed = img.graph.edge(e);
      const EdgeId mine = g.find_edge(ed.u, ed.v);
      if (mine == ftbfs::kInvalidEdge) {
        rep.fail("snapshot structure has an edge missing from the graph");
        return {};
      }
      out.push_back(mine);
    }
    return out;
  } catch (const std::exception& e) {
    rep.fail(std::string("snapshot unreadable: ") + e.what());
    return {};
  }
}

void report_context(std::uint64_t steal_before) {
  std::printf("context: nproc %u, cpu \"%s\", steal %llu jiffies during the run\n",
              std::thread::hardware_concurrency(), cpu_model().c_str(),
              static_cast<unsigned long long>(steal_jiffies() - steal_before));
}

int run_build(const Ctx& ctx) {
  Report rep;
  const std::uint64_t steal0 = steal_jiffies();
  const std::string graph = ctx.work + "/g.txt";
  const std::string out = ctx.work + "/h.ftb";
  const Graph g = make_graph(*ctx.spec, ctx.seed, graph);

  std::vector<double> wall, cpu, rss;
  std::string first_bytes;
  const std::int64_t start = now_ns();
  while (wall.size() < 3 || ns_to_s(now_ns() - start) < ctx.seconds) {
    ++rep.attempted;
    const ExitInfo e = build_snapshot(ctx, graph, out);
    if (!e.clean) {
      rep.fail("ftbfs build exited " + std::to_string(e.code) + ": " +
               read_file(ctx.work + "/build.err"));
      break;
    }
    wall.push_back(e.wall_s);
    cpu.push_back(e.cpu_s);
    rss.push_back(e.maxrss_mb);
    const std::string bytes = read_file(out);
    if (first_bytes.empty()) {
      first_bytes = bytes;
    } else if (bytes != first_bytes) {
      rep.fail("snapshot bytes differ between identical builds");
    }
  }
  const double loop_s = ns_to_s(now_ns() - start);

  const std::vector<EdgeId> h = snapshot_edges(g, out, rep);
  constexpr std::size_t kFtSamples = 400;
  rep.attempted += kFtSamples;
  if (!h.empty()) {
    const std::uint64_t bad = verify_ft_sampled(
        g, h, kFtSamples, mix_seed(ctx.seed, kVerifyStream), ctx.inject_wrong);
    if (bad > 0) rep.fail("structure fails the FT check on sampled fault sets", bad);
  }

  // Set-up: bringing the built structure up behind `serve --load`.
  std::vector<double> setup;
  Book book(*ctx.spec, g, ctx.seed, rep, false);
  for (int i = 0; i < ctx.spec->setup_spawns && rep.failed == 0; ++i) {
    Server s;
    const auto t = start_server(ctx, serve_argv(ctx, graph, out), s, book, rep, i);
    const ExitInfo e = stop_server(ctx, s);
    if (t) setup.push_back(*t);
    if (!e.clean) rep.fail("serve --load exited " + std::to_string(e.code));
  }

  report_context(steal0);
  const std::size_t n = wall.size();
  std::vector<double> wall_ms;
  for (const double w : wall) wall_ms.push_back(w * 1e3);
  const double tail = supported_tail_percentile(n);
  const std::string samples = "n=" + std::to_string(n) + " builds";
  rep.add("setup_s", median(setup), "s",
          "serve --load of the built snapshot, median of " + std::to_string(setup.size()));
  rep.add("peak_rss_mb", median(rss), "MB", "ftbfs build, median of " + samples);
  rep.add("throughput_rps", static_cast<double>(n) / loop_s, "1/s", "builds per second",
          false);
  rep.add("latency_p50_ms", percentile(wall_ms, 50), "ms", "build wall time, " + samples,
          false);
  rep.add("latency_p99_ms", percentile(wall_ms, tail), "ms",
          "p" + fmt(tail) + " of build wall time (highest percentile " + samples +
              " support)",
          false);
  rep.add("server_cpu_us_per_req", median(cpu) * 1e6, "us", "CPU per build");
  rep.add("structure_edges", static_cast<double>(h.size()), "count",
          "kept edges of " + std::to_string(g.num_edges()));
  rep.print("workload build-cons2 (ftbfs build --algo cons2ftbfs --jobs " +
            std::to_string(ctx.spec->threads) + ")");
  return rep.failed == 0 ? 0 : 1;
}

}  // namespace

void Report::fail(const std::string& why, std::uint64_t count) {
  failed += count;
  if (failures.size() < 10) failures.push_back(why);
}

void Report::add(std::string name, double value, std::string unit, std::string note,
                 bool in_result) {
  metrics.push_back({std::move(name), value, std::move(unit), std::move(note), in_result});
}

void Report::print(const std::string& header) const {
  std::printf("%s\n", header.c_str());
  for (const Metric& m : metrics) {
    std::printf("  %-32s %14s %-6s %s%s\n", m.name.c_str(), fmt(m.value).c_str(),
                m.unit.c_str(), m.note.c_str(), m.in_result ? "" : " [report only]");
  }
  const double rate = attempted == 0 ? 0.0
                                     : static_cast<double>(failed) /
                                           static_cast<double>(attempted);
  std::printf("  %-32s %14s %-6s %llu failed of %llu attempted\n", "error_rate",
              fmt(rate).c_str(), "ratio", static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  for (const std::string& f : failures) std::printf("  FAILURE: %s\n", f.c_str());
  std::string json = "{\"correct\": ";
  json += failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(std::max<std::uint64_t>(1, attempted));
  json += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics) {
    if (!m.in_result) continue;
    json += first ? "" : ", ";
    first = false;
    json += "\"" + m.name + "\": {\"value\": " + json_number(m.value) + ", \"unit\": \"" +
            m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

Graph make_graph(const WorkloadSpec& spec, std::uint64_t seed, const std::string& path) {
  const auto edges = generate_edges(spec.n, spec.m, mix_seed(seed, kGraphStream));
  write_edge_list(path, spec.n, edges);
  return build_graph(spec.n, edges);
}

std::uint64_t verify_ft_sampled(const Graph& g, const std::vector<EdgeId>& h,
                                std::size_t samples, std::uint64_t seed,
                                bool inject_wrong) {
  std::vector<bool> in_h(g.num_edges(), false);
  for (const EdgeId e : h) in_h[e] = true;
  std::vector<EdgeId> outside_h;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (!in_h[e]) outside_h.push_back(e);
  }
  ftbfs::GraphMask mask_g(g), mask_h(g);
  const std::vector<EdgeId> tree = bfs_tree_edges(g, 0);
  ftbfs::Bfs bfs(g);
  Rng rng(seed);
  std::uint64_t bad = 0;
  for (std::size_t s = 0; s < samples; ++s) {
    std::vector<EdgeId> f;
    const std::size_t count = 1 + rng.below(2);
    while (f.size() < count) {
      const EdgeId e = rng.chance(0.5) ? tree[rng.below(tree.size())]
                                       : h[rng.below(h.size())];
      if (f.empty() || f.front() != e) f.push_back(e);
    }
    mask_g.clear();
    mask_h.clear();
    ftbfs::block_edges(mask_h, outside_h);
    for (const EdgeId e : f) {
      mask_g.block_edge(e);
      mask_h.block_edge(e);
    }
    std::vector<std::uint32_t> dist_g = bfs.run(0, &mask_g).hops;
    if (inject_wrong && s == 0) dist_g.back() += 1;
    const std::vector<std::uint32_t>& dist_h = bfs.run(0, &mask_h).hops;
    if (dist_g != dist_h) ++bad;
  }
  return bad;
}

ServeResult run_serve(const Ctx& ctx, const ServePhases& phases, Report& rep,
                      const std::string& snapshot_in) {
  const WorkloadSpec& spec = *ctx.spec;
  ServeResult res;
  const std::string graph = ctx.work + "/g.txt";
  const Graph g = make_graph(spec, ctx.seed, graph);
  std::string snapshot = snapshot_in;
  if (snapshot.empty() && spec.scenario_pool > 0) {
    // serve-cached serves a structure the binary under test just built.
    snapshot = ctx.work + "/snap.ftb";
    ++rep.attempted;
    const ExitInfo e = build_snapshot(ctx, graph, snapshot);
    if (!e.clean) {
      rep.fail("ftbfs build exited " + std::to_string(e.code));
      return res;
    }
    res.snapshot_build_s = e.wall_s;
  }
  if (!snapshot.empty()) {
    const std::vector<EdgeId> h = snapshot_edges(g, snapshot, rep);
    res.structure_edges = h.size();
    if (!h.empty() && snapshot_in.empty()) {
      rep.attempted += 200;
      const std::uint64_t bad =
          verify_ft_sampled(g, h, 200, mix_seed(ctx.seed, kVerifyStream), false);
      if (bad > 0) rep.fail("snapshot structure fails the FT check", bad);
    }
  } else {
    res.structure_edges = g.num_edges();  // identity: the structure is G
  }

  Book book(spec, g, ctx.seed, rep, ctx.inject_wrong);
  const std::vector<std::string> argv = serve_argv(ctx, graph, snapshot);
  for (int i = 0; i + 1 < phases.setup_spawns && rep.failed == 0; ++i) {
    Server s;
    const auto t = start_server(ctx, argv, s, book, rep, i);
    const ExitInfo e = stop_server(ctx, s);
    if (t) res.setup_s.push_back(*t);
    if (!e.clean) rep.fail("serve exited " + std::to_string(e.code));
  }
  if (rep.failed > 0) return res;

  Server s;
  const auto t = start_server(ctx, argv, s, book, rep, phases.setup_spawns);
  if (!t) {
    stop_server(ctx, s);
    return res;
  }
  res.setup_s.push_back(*t);
  LoadGen gen(s.channels, [&](std::uint64_t id) { return book.make(id); },
              [&](std::uint64_t id, std::string_view l) { return book.check(id, l); },
              book.issued());
  std::vector<PhaseStats> phase_log;
  phase_log.push_back(gen.closed("warmup", phases.warmup_s, spec.window));
  // Closed and open phases alternate, so both sample the whole run and a
  // slow stretch of the host cannot land on one of them only.
  double cpu_s = 0;
  std::uint64_t closed_done = 0;
  std::vector<double> all_p50, all_p99;
  const auto per_window = static_cast<std::size_t>(spec.open_rate * kOpenWindowS);
  for (int round = 0; round < phases.rounds; ++round) {
    if (phases.closed_s > 0) {
      const double cpu0 = proc_cpu_s(s.child.pid);
      phase_log.push_back(gen.closed("closed", phases.closed_s / phases.rounds, spec.window));
      cpu_s += proc_cpu_s(s.child.pid) - cpu0;
      const PhaseStats& c = phase_log.back();
      closed_done += c.completed;
      for (const double w : c.window_throughputs(kClosedWindowS)) res.window_rps.push_back(w);
    }
    phase_log.push_back(gen.open("open", phases.open_s / phases.rounds, spec.open_rate));
    PhaseStats& o = phase_log.back();
    judge_open_loop(o, kMaxLateMs, 0.02 * spec.open_rate);
    res.open_latency_ms.insert(res.open_latency_ms.end(), o.latency_ms.begin(),
                               o.latency_ms.end());
    res.open_lateness_p99_ms = std::max(res.open_lateness_p99_ms, percentile(o.lateness_ms, 99));
    if (!o.valid) {
      res.open_valid = false;
      res.open_note += o.why_invalid + "; ";
    }
    // Per-slice latency; a slice the generator fell behind in is left out.
    const std::vector<double> p50 = o.window_percentiles(kOpenWindowS, 50);
    const std::vector<double> p99 = o.window_percentiles(kOpenWindowS, 99);
    res.open_slices += p50.size();
    for (std::size_t w = 0; w < p50.size(); ++w) {
      all_p50.push_back(p50[w]);
      all_p99.push_back(p99[w]);
      const auto at = [&](std::size_t i) {
        return o.lateness_ms.begin() +
               static_cast<std::ptrdiff_t>(std::min(i, o.lateness_ms.size()));
      };
      if (percentile(std::vector<double>(at(w * per_window), at((w + 1) * per_window)), 99) >
          kMaxLateMs) {
        ++res.late_windows;
        continue;
      }
      res.window_p50.push_back(p50[w]);
      res.window_p99.push_back(p99[w]);
    }
  }
  if (res.window_p50.empty()) {  // nothing valid: report all, flagged above
    res.window_p50 = all_p50;
    res.window_p99 = all_p99;
  }
  if (closed_done > 0) {
    res.cpu_us_per_req = cpu_s * 1e6 / static_cast<double>(closed_done);
  }
  const ExitInfo e = stop_server(ctx, s);
  res.peak_rss_mb = e.maxrss_mb;
  if (!e.clean) rep.fail("serve exited " + std::to_string(e.code));

  std::uint64_t main_sent = 1;  // the probe
  for (const PhaseStats& p : phase_log) {
    main_sent += p.sent;
    rep.attempted += p.sent;
    if (p.transport_errors > 0) {
      rep.fail(p.name + ": " + std::to_string(p.transport_errors) + " transport errors",
               p.transport_errors);
    }
    std::printf("phase %-7s sent %8llu answered %8llu in %7.3f s%s\n", p.name.c_str(),
                static_cast<unsigned long long>(p.sent),
                static_cast<unsigned long long>(p.completed), p.seconds(),
                p.valid ? "" : "  (invalid)");
  }
  book.verify_deferred();

  const ServeSummary sum = parse_serve_summary(read_file(s.err_path));
  if (!sum.found) {
    rep.fail("no serve summary: " + read_file(s.err_path));
  } else {
    if (sum.lazy_builds != 0) rep.fail("serve ran lazy builds");
    if (sum.parse_errors != 0) rep.fail("serve reported parse errors", sum.parse_errors);
    if (sum.requests != main_sent || sum.ok != main_sent) {
      rep.fail("serve summary counts " + std::to_string(sum.ok) + " ok of " +
               std::to_string(sum.requests) + ", sent " + std::to_string(main_sent));
    }
    res.net_sheds = sum.overload_sheds;
    res.parse_errors = sum.parse_errors;
    std::printf("serve summary: %llu requests, cache %llu/%llu hits, %llu lines at %.0f "
                "B/line, %llu lazy builds, query paths %llu fast / %llu repair / %llu "
                "full, %llu sheds\n",
                static_cast<unsigned long long>(sum.requests),
                static_cast<unsigned long long>(sum.cache_hits),
                static_cast<unsigned long long>(sum.cache_lookups),
                static_cast<unsigned long long>(sum.cache_lines), sum.bytes_per_line,
                static_cast<unsigned long long>(sum.lazy_builds),
                static_cast<unsigned long long>(sum.fast),
                static_cast<unsigned long long>(sum.repair),
                static_cast<unsigned long long>(sum.full),
                static_cast<unsigned long long>(sum.overload_sheds));
  }
  return res;
}

int run_e2e(const Ctx& ctx) {
  if (!ctx.spec->serve) return run_build(ctx);
  Report rep;
  const std::uint64_t steal0 = steal_jiffies();
  ServePhases phases;
  phases.setup_spawns = ctx.spec->setup_spawns;
  phases.rounds = 4;
  phases.warmup_s = std::max(0.5, 0.1 * ctx.seconds);
  phases.closed_s = 0.45 * ctx.seconds;
  phases.open_s = 0.45 * ctx.seconds;
  const ServeResult r = run_serve(ctx, phases, rep);
  report_context(steal0);
  std::printf("open loop: rate %g req/s, generator lateness p99 %.3f ms, %s%s; %zu of "
              "%zu one-second slices left out (generator late)\n",
              ctx.spec->open_rate, r.open_lateness_p99_ms,
              r.open_valid ? "valid" : "INVALID: ", r.open_note.c_str(), r.late_windows,
              r.open_slices);
  std::printf("open loop over all slices: p50 %.6g ms, p99 %.6g ms\n",
              percentile(r.open_latency_ms, 50), percentile(r.open_latency_ms, 99));
  if (r.snapshot_build_s > 0) {
    std::printf("snapshot build (ftbfs build --out): %.3f s\n", r.snapshot_build_s);
  }
  const std::size_t n = r.open_latency_ms.size();
  const std::string samples = "n=" + std::to_string(n) + " open-loop requests at " +
                              fmt(ctx.spec->open_rate) + "/s, median of " +
                              std::to_string(r.window_p50.size()) + " 1 s slices";
  rep.add("setup_s", median(r.setup_s), "s",
          "spawn to first answer, median of " + std::to_string(r.setup_s.size()) +
              " spawns");
  rep.add("peak_rss_mb", r.peak_rss_mb, "MB", "serve process");
  rep.add("throughput_rps", median(r.window_rps), "1/s",
          "closed loop, median of " + std::to_string(r.window_rps.size()) +
              " 0.5 s slices",
          false);
  rep.add("latency_p50_ms", median(r.window_p50), "ms", samples, false);
  rep.add("latency_p99_ms", median(r.window_p99), "ms", samples, false);
  rep.add("server_cpu_us_per_req", r.cpu_us_per_req, "us", "closed loop, user+sys");
  rep.add("structure_edges", static_cast<double>(r.structure_edges), "count",
          ctx.spec->scenario_pool > 0 ? "cons2 structure served" : "identity (G)");
  rep.print("workload " + ctx.spec->name);
  return rep.failed == 0 ? 0 : 1;
}

}  // namespace perfbench
