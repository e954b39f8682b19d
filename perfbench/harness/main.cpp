// perfbench_harness — the benchmark's driver for the ftbfs binary and
// library. perfbench/run.py builds it and calls it; see perfbench/README.md.
//
//   perfbench_harness run --workload <name> --seed <n> --seconds <s>
//                         --trace <0|1> --ftbfs <path> --work <dir>
//                         [--inject-wrong]
//   perfbench_harness selftest
#include <sys/prctl.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "bench.h"

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc >= 2 && std::string(argv[1]) == "selftest") return run_selftest();
  if (argc < 2 || std::string(argv[1]) != "run") {
    std::fprintf(stderr, "usage: perfbench_harness run|selftest [flags]\n");
    return 2;
  }
  Ctx ctx;
  bool trace = false;
  std::string workload;
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    if (flag == "--inject-wrong") {
      ctx.inject_wrong = true;
    } else if (flag == "--workload" && has_value) {
      workload = argv[++i];
    } else if (flag == "--seed" && has_value) {
      ctx.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (flag == "--seconds" && has_value) {
      ctx.seconds = std::strtod(argv[++i], nullptr);
    } else if (flag == "--trace" && has_value) {
      trace = std::string(argv[++i]) == "1";
    } else if (flag == "--ftbfs" && has_value) {
      ctx.ftbfs = argv[++i];
    } else if (flag == "--work" && has_value) {
      ctx.work = argv[++i];
    } else {
      std::fprintf(stderr, "perfbench_harness: bad flag %s\n", flag.c_str());
      return 2;
    }
  }
  ctx.spec = find_workload(workload);
  if (ctx.spec == nullptr || ctx.ftbfs.empty() || ctx.work.empty() ||
      !(ctx.seconds > 0)) {
    std::fprintf(stderr, "perfbench_harness: unknown workload '%s' or missing flags\n",
                 workload.c_str());
    return 2;
  }
  // The open-loop generator sleeps until each request is due; the default
  // 50 us timer slack would make every send up to 50 us late.
  ::prctl(PR_SET_TIMERSLACK, 1UL);
  try {
    std::filesystem::create_directories(ctx.work);
    return trace ? run_trace(ctx) : run_e2e(ctx);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_harness: %s\n", e.what());
    return 1;
  }
}
