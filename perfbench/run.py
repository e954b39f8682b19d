#!/usr/bin/env python3
"""Benchmark entry point for ftbfs. Run it from the repository root.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Builds the ftbfs CLI and library from this checkout, together with the
harness in perfbench/harness, into .bench_build/, then runs one workload.
The last line of standard output is the result object; perfbench/README.md
describes the workloads and metrics.
"""
import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("build-cons2", "serve-cached", "serve-repair")
BUILD_DIR = os.path.join(".bench_build", "perfbench")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    """Configures once, then builds incrementally; logs go to stderr."""
    for need in ("CMakeLists.txt", "src", "tools/ftbfs_cli.cpp",
                 "perfbench/CMakeLists.txt"):
        if not os.path.exists(need):
            fail("run from the repository root (missing %s)" % need)
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        step = ["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("configure failed")
    step = ["cmake", "--build", BUILD_DIR, "-j", "4"]
    if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build failed")
    return (os.path.join(BUILD_DIR, "perfbench_harness"),
            os.path.join(BUILD_DIR, "ftbfs", "ftbfs"))


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inject-wrong", action="store_true",
                    help="corrupt one expected answer; the run must fail")
    ap.add_argument("--selftest", action="store_true",
                    help="run the harness self-tests instead of a workload")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        fail("--workload is required")

    harness, ftbfs = build()
    if args.selftest:
        return subprocess.run([harness, "selftest"]).returncode

    work = os.path.join(".bench_build", "work",
                        "%s-%d-%s" % (args.workload, args.seed,
                                      "trace" if args.trace else "e2e"))
    shutil.rmtree(work, ignore_errors=True)
    cmd = [harness, "run", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--ftbfs", ftbfs, "--work", work]
    if args.inject_wrong:
        cmd.append("--inject-wrong")
    code = subprocess.run(cmd).returncode
    if not args.trace:
        shutil.rmtree(work, ignore_errors=True)  # traced runs keep their spans
    return code


if __name__ == "__main__":
    sys.exit(main())
