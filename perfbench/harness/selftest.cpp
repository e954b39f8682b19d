// Self-tests of the harness's own machinery: order statistics, answer
// checking (an injected wrong answer must be caught), open-loop lateness and
// backlog accounting, and span self time.
#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <thread>

#include "bench.h"
#include "loadgen.h"
#include "trace.h"

namespace perfbench {

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  std::printf("  %-4s %s\n", ok ? "ok" : "FAIL", what);
  if (!ok) ++failures;
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void test_percentiles() {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  expect(near(percentile(v, 50), 50.5), "p50 of 1..100 is 50.5");
  expect(near(percentile(v, 99), 99.01), "p99 of 1..100 is 99.01");
  expect(near(percentile({7}, 99), 7), "percentile of one sample is that sample");
  expect(supported_tail_percentile(10000) == 99.9, "10000 samples support p99.9");
  expect(supported_tail_percentile(1000) == 99.0, "1000 samples support p99");
  expect(supported_tail_percentile(999) == 95.0, "999 samples support only p95");
  expect(supported_tail_percentile(3) == 100.0, "3 samples support only the max");
}

void test_answer_checks() {
  const Graph g = build_graph(4, {{0, 1}, {1, 2}, {2, 3}, {0, 3}});
  Answer a;
  expect(JsonScanner(R"({"id":7, "status":"ok","exact":true,"served_by":"x","cache_hit":false,)"
                     R"("warnings":["a"],"distances":[2,-1]})")
             .parse_answer(a) &&
             a.id == 7 && a.status == "ok" && a.distances.size() == 2 &&
             a.distances[1] == -1,
         "scanner reads id, status and distances, skipping other fields");
  expect(!JsonScanner(R"({"id":7,"distances":[1,})").parse_answer(a),
         "scanner rejects a truncated line");

  Request r;
  r.targets = {2, 3};
  const Truth truth = {0, 1, 2, 1};
  JsonScanner(R"({"id":1,"status":"ok","distances":[2,1]})").parse_answer(a);
  expect(check_answer(g, r, a, &truth, nullptr).empty(), "a right answer passes");
  Truth wrong = truth;
  wrong[2] += 1;
  expect(!check_answer(g, r, a, &wrong, nullptr).empty(),
         "an injected wrong distance is caught");
  JsonScanner(R"({"id":1,"status":"disconnected","distances":[2,1]})").parse_answer(a);
  expect(!check_answer(g, r, a, &truth, nullptr).empty(), "a wrong status is caught");

  Request p;
  p.kind = Kind::kPath;
  p.targets = {2};
  p.faults = {g.find_edge(0, 1)};
  const std::vector<std::int64_t> d2 = {3};
  JsonScanner(R"({"status":"ok","paths":[[0,3,2]]})").parse_answer(a);
  expect(!check_answer(g, p, a, nullptr, &d2).empty(), "a path shorter than truth is caught");
  JsonScanner(R"({"status":"ok","paths":[[0,1,2,3,2]]})").parse_answer(a);
  expect(!check_answer(g, p, a, nullptr, &d2).empty(), "a path through a fault is caught");
  const std::vector<std::int64_t> d2ok = {2};
  JsonScanner(R"({"status":"ok","paths":[[0,3,2]]})").parse_answer(a);
  expect(check_answer(g, p, a, nullptr, &d2ok).empty(), "a valid replacement path passes");
}

void test_open_loop_accounting() {
  PhaseStats steady;
  steady.lateness_ms.assign(1000, 0.05);
  steady.backlog.assign(30, 4);
  judge_open_loop(steady, 2.0, 10);
  expect(steady.valid, "a punctual generator with a flat backlog is valid");

  PhaseStats late = steady;
  for (int i = 0; i < 20; ++i) late.lateness_ms[i] = 9;
  judge_open_loop(late, 2.0, 10);
  expect(!late.valid, "p99 lateness above the limit invalidates the phase");

  PhaseStats growing = steady;
  for (std::size_t i = 0; i < growing.backlog.size(); ++i) growing.backlog[i] = 2 * i;
  judge_open_loop(growing, 2.0, 10);
  expect(!growing.valid, "a growing backlog invalidates the phase");

  // A real open loop against an echo peer that stalls once for 30 ms: the
  // requests due during the stall are charged from their due time.
  int sv[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
    expect(false, "socketpair");
    return;
  }
  std::thread echo([fd = sv[1]] {
    std::string buf;
    char chunk[4096];
    int lines = 0;
    for (;;) {
      const ssize_t n = ::read(fd, chunk, sizeof chunk);
      if (n <= 0) break;
      buf.append(chunk, static_cast<std::size_t>(n));
      std::size_t nl;
      while ((nl = buf.find('\n')) != std::string::npos) {
        const std::string req = buf.substr(0, nl);
        buf.erase(0, nl + 1);
        if (++lines == 50) std::this_thread::sleep_for(std::chrono::milliseconds(30));
        const std::string resp = req + "\n";
        if (::write(fd, resp.data(), resp.size()) < 0) return;
      }
    }
  });
  ::fcntl(sv[0], F_SETFL, ::fcntl(sv[0], F_GETFL) | O_NONBLOCK);
  std::vector<Channel> chans(1);
  chans[0].wfd = chans[0].rfd = sv[0];
  LoadGen gen(
      chans, [](std::uint64_t id) { return "{\"id\":" + std::to_string(id) + "}"; },
      [](std::uint64_t id, std::string_view line) {
        Answer a;
        return JsonScanner(line).parse_answer(a) && a.id == static_cast<std::int64_t>(id);
      },
      0);
  const PhaseStats st = gen.open("selftest", 0.2, 2000);
  ::shutdown(sv[0], SHUT_RDWR);
  echo.join();
  ::close(sv[0]);
  ::close(sv[1]);
  expect(st.sent == 400 && st.completed == 400 && st.bad == 0,
         "every scheduled request is sent and answered");
  expect(st.lateness_ms.size() == 400, "lateness is recorded for every send");
  double worst = 0;
  for (const double l : st.latency_ms) worst = std::max(worst, l);
  expect(worst >= 25, "a stall is charged to the requests it delays");
}

void test_self_time() {
  Tracer t;
  t.add({"a", 0, 100, -1, 1});
  t.add({"b", 10, 30, 0, 1});
  t.add({"c", 40, 60, 0, 1});
  t.add({"d", 45, 50, 2, 1});
  const std::vector<std::int64_t> self = t.self_ns();
  expect(self[0] == 60 && self[1] == 20 && self[2] == 15 && self[3] == 5,
         "self time subtracts exactly the child spans");
  Tracer live;
  {
    Span outer(live, "outer", 9);
    Span inner(live, "inner", 9);
  }
  expect(live.spans().size() == 2 && live.spans()[1].parent == 0 &&
             live.spans()[1].req == 9 &&
             live.spans()[0].end_ns >= live.spans()[1].end_ns,
         "nested spans record their parent and request id");
  Tracer off;
  off.enabled = false;
  { Span s(off, "x"); }
  expect(off.spans().empty(), "a disabled tracer records nothing");
}

}  // namespace

int run_selftest() {
  std::printf("percentiles and sample counts\n");
  test_percentiles();
  std::printf("answer checks\n");
  test_answer_checks();
  std::printf("open-loop accounting\n");
  test_open_loop_accounting();
  std::printf("span self time\n");
  test_self_time();
  std::printf("%s (%d failures)\n", failures == 0 ? "PASS" : "FAIL", failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace perfbench
