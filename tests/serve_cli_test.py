#!/usr/bin/env python3
"""End-to-end checks of the built `ftbfs serve` against the golden stream.

Runs the CLI as a user would, over stdin and over a loopback socket, and
requires every ordered front end to reproduce tests/golden/serve_responses.jsonl
byte for byte:

  * stdin, sequential (the inline loop);
  * stdin, --threads 4, three runs (NetServer with stdin as its connection);
  * stdin, --threads 4 behind `serve --load` of a snapshot saved by a cold run;
  * stdin, --threads 1 and 4 behind `serve --load` of the committed
    tests/golden/serve_snapshot_with_baselines.ftb, a --save of the golden
    stream in the older layout that still stores baseline BFS trees (section
    tag 3, which the loader now skips);
  * socket (--listen), exact, at 1 and 4 workers;
  * stdin, --mode relaxed --threads 4: a permutation of the golden stream.

It also checks one framing rule for both stdin paths: a whitespace-only line
is skipped, a line over the 1 MiB cap is answered with a parse error, an
unterminated last line is still answered, and the stream continues after
each of them — with identical output at --threads 1 and --threads 4.

Finally, stdin at --threads 4 sheds nothing by default (a slow lazy build
leaves the output identical to --threads 1), and a stall eviction the user
opted into ends the run with exit code 1.

Flushing at --threads 1: the inline loop writes its answers once per read,
so a client that writes one line and waits for its answer must still get
every answer (ordered and relaxed), and a burst whose answers pass the
64 KiB flush cap must come out byte-identical to its ping-pong replay.

Rate limits: a `--rate-limit-rps` that is not finite or whose default burst
ceil(rate) does not fit 64 bits is a usage error (exit 2), and such a
manifest "rate_limit_rps" fails to load (exit 1); a large rate that fits,
1e9, admits every request, from the flag and from a manifest.

Usage: serve_cli_test.py --binary build/ftbfs
"""

import argparse
import json
import os
import select
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden")
sys.path.insert(0, GOLDEN)
import socket_client  # noqa: E402  (check_relaxed, the golden comparators)

GRAPH = os.path.join(GOLDEN, "serve_graph.txt")
REQUESTS = os.path.join(GOLDEN, "serve_requests.jsonl")
RESPONSES = os.path.join(GOLDEN, "serve_responses.jsonl")
OLD_SNAPSHOT = os.path.join(GOLDEN, "serve_snapshot_with_baselines.ftb")
MAX_LINE = 1 << 20


def run_serve(binary, stdin_bytes, *flags):
    return subprocess.run([binary, "serve", *flags], input=stdin_bytes,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          timeout=120)


def serve(binary, stdin_bytes, *flags):
    proc = run_serve(binary, stdin_bytes, *flags)
    if proc.returncode != 0:
        raise SystemExit(f"serve {' '.join(flags)} exited {proc.returncode}:\n"
                         f"{proc.stderr.decode(errors='replace')}")
    return proc.stdout


def expect_golden(label, got, golden):
    if got != golden:
        socket_client.check_exact(got.decode().splitlines(),
                                  golden.decode().splitlines())
        raise SystemExit(f"{label}: output differs from the golden stream")
    print(f"ok  {label}")


def check_framing(binary):
    requests = open(REQUESTS, "rb").read().splitlines()
    stream = b"\n".join(requests[:3] + [b" \t \r", b"x" * (MAX_LINE + 1)] +
                        requests[3:6] + [b""] + requests[6:8])
    # No trailing newline: the last request is unterminated.
    outputs = [serve(binary, stream, "--graph", GRAPH, "--threads", t)
               for t in ("1", "4")]
    if outputs[0] != outputs[1]:
        raise SystemExit("framing: --threads 1 and --threads 4 differ:\n"
                         f"{outputs[0].decode()}\n---\n{outputs[1].decode()}")
    lines = outputs[0].decode().splitlines()
    if len(lines) != 9:  # 8 requests + the oversized line; blanks skipped
        raise SystemExit(f"framing: expected 9 responses, got {len(lines)}:\n"
                         + "\n".join(lines))
    oversized = json.loads(lines[3])
    if oversized.get("status") != "parse_error" or \
            "exceeds" not in oversized.get("error", ""):
        raise SystemExit(f"framing: oversized line answered {lines[3]}")
    golden = open(RESPONSES).read().splitlines()
    if lines[:3] + lines[4:] != golden[:8]:
        raise SystemExit("framing: the stream around the blank and oversized "
                         "lines diverged from the golden responses")
    print("ok  framing: blank skipped, oversized answered, unterminated last "
          "line answered, identical at --threads 1 and 4")


def ping_pong(binary, lines, *flags):
    """Writes one request line, waits for its answer, then writes the next.

    An answer held back until more input arrives (or until EOF) times out
    here instead of deadlocking the test.
    """
    proc = subprocess.Popen([binary, "serve", *flags], stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL)
    out_fd = proc.stdout.fileno()
    answers, pending = [], b""
    try:
        for line in lines:
            proc.stdin.write(line + b"\n")
            proc.stdin.flush()
            while b"\n" not in pending:
                ready, _, _ = select.select([out_fd], [], [], 30)
                chunk = os.read(out_fd, 1 << 16) if ready else b""
                if not chunk:
                    raise SystemExit(f"ping-pong {' '.join(flags)}: no answer "
                                     f"to {line!r}")
                pending += chunk
            answer, _, pending = pending.partition(b"\n")
            if pending:
                raise SystemExit(f"ping-pong {' '.join(flags)}: more than one "
                                 f"answer to {line!r}")
            answers.append(answer + b"\n")
    finally:
        proc.stdin.close()
        rest = proc.stdout.read()
        proc.wait(timeout=60)
    if rest or proc.returncode != 0:
        raise SystemExit(f"ping-pong {' '.join(flags)}: exit "
                         f"{proc.returncode}, trailing output {rest!r}")
    return b"".join(answers)


def check_flushing(binary):
    requests = open(REQUESTS, "rb").read()
    golden = open(RESPONSES, "rb").read()
    lines = requests.splitlines()
    expect_golden("stdin ping-pong --threads 1",
                  ping_pong(binary, lines, "--graph", GRAPH), golden)
    relaxed = ping_pong(binary, lines, "--graph", GRAPH, "--mode", "relaxed")
    socket_client.check_relaxed(relaxed.decode().splitlines(),
                                golden.decode().splitlines())
    print("ok  stdin ping-pong --threads 1 --mode relaxed")

    burst = requests * 60
    one_write = serve(binary, burst, "--graph", GRAPH)
    if len(one_write) <= 2 * (64 << 10):
        raise SystemExit(f"burst: {len(one_write)} answer bytes do not pass "
                         "the 64 KiB flush cap twice")
    replay = ping_pong(binary, burst.splitlines(), "--graph", GRAPH)
    if one_write != replay:
        raise SystemExit("burst: answers written in 64 KiB batches differ "
                         "from the ping-pong replay")
    print(f"ok  burst of {len(one_write)} answer bytes matches its ping-pong "
          "replay")


def check_stdin_degradation(binary):
    # The first request starts a lazy build that sleeps 2.5 s while the rest
    # of the stream queues behind it: past the 2 s socket shed budget, which
    # stdin must not apply unless asked to.
    stream = open(REQUESTS, "rb").read() * 10
    sequential = serve(binary, stream, "--graph", GRAPH)
    slow = serve(binary, stream, "--graph", GRAPH, "--threads", "4",
                 "--failpoints", "service.build_alloc=sleep(ms=2500,count=1)")
    if slow != sequential:
        raise SystemExit("stdin --threads 4 with a slow lazy build differs "
                         "from --threads 1 (shed on stdin by default?)")
    print("ok  stdin --threads 4 sheds nothing by default (slow lazy build)")

    # Every write fails with EAGAIN, so stdout never drains: the opted-in
    # stall eviction drops the connection and the run must not exit 0.
    proc = run_serve(binary, stream, "--graph", GRAPH, "--threads", "2",
                     "--write-stall-ms", "100",
                     "--failpoints", "net.write=err(EAGAIN)")
    err = proc.stderr.decode(errors="replace")
    if proc.returncode != 1 or "responses were dropped" not in err:
        raise SystemExit(f"stall eviction on stdin exited {proc.returncode}, "
                         f"expected 1 with an error:\n{err}")
    print("ok  stdin stall eviction exits 1")


def check_rate_limits(binary):
    requests = open(REQUESTS, "rb").read()
    golden = open(RESPONSES, "rb").read()
    for value, message in (("inf", "--rate-limit-rps must be a finite number"),
                           ("nan", "--rate-limit-rps must be a finite number"),
                           ("1e300", "--rate-limit-rps must be >= 0 and below"),
                           ("-1", "--rate-limit-rps must be >= 0 and below")):
        proc = run_serve(binary, requests, "--graph", GRAPH,
                         "--rate-limit-rps", value)
        err = proc.stderr.decode(errors="replace")
        if proc.returncode != 2 or message not in err:
            raise SystemExit(f"--rate-limit-rps {value}: exited "
                             f"{proc.returncode}, expected 2 with "
                             f"'{message}':\n{err}")
    expect_golden("stdin --rate-limit-rps 1e9",
                  serve(binary, requests, "--graph", GRAPH,
                        "--rate-limit-rps", "1e9"), golden)

    with tempfile.TemporaryDirectory() as tmp:
        manifest = os.path.join(tmp, "tenants.json")

        def serve_manifest(rate):
            with open(manifest, "w") as f:
                json.dump({"schema": 2, "tenants": [
                    {"name": "t", "graph": GRAPH, "rate_limit_rps": rate}]}, f)
            return run_serve(binary, requests, "--tenants", manifest)

        proc = serve_manifest(1e300)
        err = proc.stderr.decode(errors="replace")
        message = '"rate_limit_rps" must be a number >= 0 and below 2^64'
        if proc.returncode != 1 or message not in err:
            raise SystemExit(f"manifest rate_limit_rps 1e300: exited "
                             f"{proc.returncode}, expected 1 with "
                             f"'{message}':\n{err}")
        proc = serve_manifest(1e9)
        if proc.returncode != 0 or b"rate_limited" in proc.stdout:
            raise SystemExit(f"manifest rate_limit_rps 1e9: exited "
                             f"{proc.returncode} or refused requests:\n"
                             f"{proc.stderr.decode(errors='replace')}")
    print("ok  rate limits: unrepresentable rates rejected, 1e9 admits")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--binary", required=True)
    binary = ap.parse_args().binary

    requests = open(REQUESTS, "rb").read()
    golden = open(RESPONSES, "rb").read()

    expect_golden("stdin sequential",
                  serve(binary, requests, "--graph", GRAPH), golden)
    for run in range(1, 4):
        expect_golden(f"stdin --threads 4 (run {run})",
                      serve(binary, requests, "--graph", GRAPH,
                            "--threads", "4"), golden)
    with tempfile.TemporaryDirectory() as tmp:
        snapshot = os.path.join(tmp, "golden.ftb")
        expect_golden("stdin --save (cold run)",
                      serve(binary, requests, "--graph", GRAPH,
                            "--save", snapshot), golden)
        expect_golden("stdin --load --threads 4",
                      serve(binary, requests, "--load", snapshot,
                            "--threads", "4"), golden)
    for threads in ("1", "4"):
        expect_golden(f"stdin --load (stored baselines) --threads {threads}",
                      serve(binary, requests, "--load", OLD_SNAPSHOT,
                            "--threads", threads), golden)

    relaxed = serve(binary, requests, "--graph", GRAPH, "--threads", "4",
                    "--mode", "relaxed")
    socket_client.check_relaxed(relaxed.decode().splitlines(),
                                golden.decode().splitlines())
    print("ok  stdin --mode relaxed --threads 4 (permutation)")

    for threads in ("1", "4"):
        subprocess.run([sys.executable, os.path.join(GOLDEN, "socket_client.py"),
                        "--binary", binary, "--graph", GRAPH,
                        "--requests", REQUESTS, "--golden", RESPONSES,
                        "--compare", "exact", "--threads", threads],
                       check=True, timeout=120)

    check_framing(binary)
    check_flushing(binary)
    check_stdin_degradation(binary)
    check_rate_limits(binary)


if __name__ == "__main__":
    main()
