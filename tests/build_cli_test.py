#!/usr/bin/env python3
"""End-to-end checks of the built CLI's graph loading and build stats.

  * `build --stats json --out x.ftb` reports the snapshot's figures and,
    under "builds", each structure's own build stats (phase seconds,
    fault pairs, kernel counters), agreeing with `build --stats json`
    without --out for the same source;
  * a `build --out` snapshot names its entry as a lazy build would, so
    `serve --load` answers from it and builds nothing;
  * a CRLF copy of the golden graph serves the golden stream byte for byte;
  * a vertex count past the limit, a duplicate edge and a self-loop each
    exit 1 with a `line N:` message;
  * `gen --p` outside [0, 1] or not finite is a usage error (exit 2).

Usage: build_cli_test.py --binary build/ftbfs
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden")
GRAPH = os.path.join(GOLDEN, "serve_graph.txt")
REQUESTS = os.path.join(GOLDEN, "serve_requests.jsonl")
RESPONSES = os.path.join(GOLDEN, "serve_responses.jsonl")


def run(binary, *args, stdin=None):
    return subprocess.run([binary, *args], input=stdin, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, timeout=120)


def build_json(binary, *args):
    proc = run(binary, "build", "--graph", GRAPH, "--budget", "2", "--jobs",
               "1", "--stats", "json", *args)
    if proc.returncode != 0:
        raise SystemExit(f"build {' '.join(args)} exited {proc.returncode}:\n"
                         f"{proc.stderr.decode(errors='replace')}")
    return json.loads(proc.stdout)


def check_snapshot_stats(binary, tmp):
    report = build_json(binary, "--sources", "0,1",
                        "--out", os.path.join(tmp, "built.ftb"))
    for key in ("snapshot", "entries", "bytes", "resident_bytes", "seconds"):
        if key not in report:
            raise SystemExit(f"snapshot stats lack '{key}': {report}")
    builds = report.get("builds")
    if [b.get("source") for b in builds or []] != [0, 1]:
        raise SystemExit(f"snapshot stats lack per-source builds: {report}")
    for build in builds:
        for key in ("step1_s", "steps23_s", "fault_pairs_considered",
                    "probe_backward", "sweep_repair", "kept_edges"):
            if key not in build:
                raise SystemExit(f"build stats lack '{key}': {build}")
        alone = build_json(binary, "--source", str(build["source"]))
        for key in ("kept_edges", "tree_edges", "fault_pairs_considered"):
            if build[key] != alone[key]:
                raise SystemExit(f"source {build['source']}: {key} is "
                                 f"{build[key]} with --out, {alone[key]} "
                                 "without")
    print("ok  build --stats json --out reports each build's stats")


def check_snapshot_entry_name(binary, tmp):
    snap = os.path.join(tmp, "named.ftb")
    proc = run(binary, "build", "--graph", GRAPH, "--source", "0", "--budget",
               "2", "--out", snap)
    if proc.returncode != 0:
        raise SystemExit(f"build --out exited {proc.returncode}:\n"
                         f"{proc.stderr.decode(errors='replace')}")
    proc = run(binary, "serve", "--graph", GRAPH, "--load", snap,
               stdin=b'{"id":1,"source":0,"targets":[3]}\n')
    out = proc.stdout.decode(errors="replace")
    err = proc.stderr.decode(errors="replace")
    if proc.returncode != 0 or '"served_by":"cons2ftbfs@s0f2"' not in out:
        raise SystemExit(f"serve --load exited {proc.returncode}; expected "
                         f"the answer from cons2ftbfs@s0f2:\n{out}{err}")
    if "0 lazy builds" not in err:
        raise SystemExit(f"serve --load built a structure:\n{err}")
    print("ok  build --out names entries the way a lazy build does")


def check_crlf_graph(binary, tmp):
    crlf = os.path.join(tmp, "crlf.txt")
    with open(GRAPH, "rb") as src, open(crlf, "wb") as dst:
        dst.write(src.read().replace(b"\n", b"\r\n"))
    proc = run(binary, "serve", "--graph", crlf,
               stdin=open(REQUESTS, "rb").read())
    if proc.returncode != 0 or proc.stdout != open(RESPONSES, "rb").read():
        raise SystemExit(f"CRLF graph: serve exited {proc.returncode} or "
                         "its responses differ from the golden stream")
    print("ok  a CRLF graph serves the golden stream")


def check_load_errors(binary, tmp):
    cases = [
        ("n 4294967299\ne 0 1\n", "line 1: vertex count must be below"),
        ("# g\nn 4\ne 0 1\ne 2 3\ne 1 0\n", "line 5: duplicate edge"),
        ("n 4\ne 0 1\n\ne 2 2\n", "line 4: self-loop"),
    ]
    path = os.path.join(tmp, "bad.txt")
    for text, message in cases:
        with open(path, "w") as f:
            f.write(text)
        proc = run(binary, "query", "--graph", path, "--source", "0",
                   "--target", "1")
        err = proc.stderr.decode(errors="replace")
        if proc.returncode != 1 or message not in err:
            raise SystemExit(f"{text!r}: exited {proc.returncode}, expected 1 "
                             f"with '{message}':\n{err}")
    print("ok  malformed graphs exit 1 with their line")


def check_gen_probability(binary, tmp):
    out = os.path.join(tmp, "gen.txt")
    for value, message in (("2", "--p must be in [0, 1]"),
                           ("-0.5", "--p must be in [0, 1]"),
                           ("nan", "--p must be a finite number"),
                           ("inf", "--p must be a finite number")):
        proc = run(binary, "gen", "--family", "er", "--n", "20", "--p", value,
                   "--out", out)
        err = proc.stderr.decode(errors="replace")
        if proc.returncode != 2 or message not in err:
            raise SystemExit(f"gen --p {value}: exited {proc.returncode}, "
                             f"expected 2 with '{message}':\n{err}")
    print("ok  gen rejects --p outside [0, 1] as a usage error")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--binary", required=True)
    binary = ap.parse_args().binary
    with tempfile.TemporaryDirectory() as tmp:
        check_snapshot_stats(binary, tmp)
        check_snapshot_entry_name(binary, tmp)
        check_crlf_graph(binary, tmp)
        check_load_errors(binary, tmp)
        check_gen_probability(binary, tmp)


if __name__ == "__main__":
    sys.exit(main())
