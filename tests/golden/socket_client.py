#!/usr/bin/env python3
"""Golden replay over a loopback socket.

Launches `ftbfs serve --listen 127.0.0.1:0`, parses the bound port from the
"listening on host:port" stderr line, pipelines the golden request stream over
one TCP connection, half-closes, and reads responses to EOF. Then SIGTERMs
the server and requires a clean drain (exit code 0, "drained:" summary).

Comparison modes:
  exact       byte-identical to the golden response stream at any worker
              count: ordered mode admits a connection's requests in its
              request order, so socket serving is indistinguishable from
              stdin serving, cache_hit included.
  relaxed     order-free: id-bearing lines must match the golden per id
              (cache_hit-normalized); id-less lines must carry a "seq"
              correlation field and, seq stripped, equal the golden id-less
              lines as a multiset.
  tolerant    chaos mode (use with --failpoints): every response must be a
              well-formed single-line JSON object with a documented typed
              status, and the answered id set must equal the golden id set —
              payload bytes are NOT compared, since injected faults may
              legitimately change cache_hit patterns or degrade statuses.

Reload scenario (--reload-body, instead of a golden compare): launches the
server from a tenant manifest (--manifest), pipelines a burst of requests,
rewrites the manifest and SIGHUPs while they are in flight, and requires
(a) every in-flight response intact and in order, and (b) a tenant that only
exists in the new manifest answering on the SAME connection, no reconnect.

Usage:
  socket_client.py --binary ./build/ftbfs --graph G.txt \
      --requests reqs.jsonl --golden resp.jsonl \
      --compare exact|relaxed|tolerant \
      [--threads N] [--mode relaxed] [--failpoints SCHEDULE]
  socket_client.py --binary ./build/ftbfs --manifest M.json \
      --reload-body NEW.json --reload-tenant NAME [--threads N]
"""

import argparse
import json
import re
import shutil
import signal
import socket
import subprocess
import sys

WINDOW = 64  # max pipelined-unread requests; unbounded flooding can deadlock
             # against the server's write backpressure, by design


def parse_listen_line(proc):
    for raw in proc.stderr:
        line = raw.decode(errors="replace").strip()
        if line.startswith("listening on "):
            host, _, port = line[len("listening on "):].rpartition(":")
            return host, int(port)
    raise SystemExit("server exited before printing its listen address")


def pipeline(host, port, requests):
    responses = []
    with socket.create_connection((host, port)) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        buf = b""
        sent = 0
        received = [0]

        def drain_ready(block):
            nonlocal buf
            sock.setblocking(block)
            try:
                while True:
                    chunk = sock.recv(65536)
                    if not chunk:
                        return False
                    buf += chunk
                    while b"\n" in buf:
                        line, buf = buf.split(b"\n", 1)
                        responses.append(line.decode())
                        received[0] += 1
                    if not block or received[0] >= sent:
                        return True
            except BlockingIOError:
                return True
            finally:
                sock.setblocking(True)

        for line in requests:
            sock.sendall(line.encode() + b"\n")
            sent += 1
            if sent - received[0] >= WINDOW and not drain_ready(block=True):
                raise SystemExit("server closed mid-stream")
            drain_ready(block=False)
        sock.shutdown(socket.SHUT_WR)
        while drain_ready(block=True):
            pass
    return responses


def normalize(line):
    return line.replace('"cache_hit":true', '"cache_hit":false')


def check_exact(got, golden):
    if got == golden:
        return
    for i, (g, w) in enumerate(zip(golden, got)):
        if g != w:
            raise SystemExit(f"line {i + 1} differs:\n  golden: {g}\n  socket: {w}")
    raise SystemExit(f"line count differs: golden {len(golden)}, socket {len(got)}")


def by_id(lines):
    out = {}
    for line in lines:
        m = re.match(r'\{"id":(\d+),', line)
        if m:
            out[int(m.group(1))] = normalize(line)
    return out


def check_relaxed(got, golden):
    if len(got) != len(golden):
        raise SystemExit(f"line count differs: golden {len(golden)}, socket {len(got)}")
    gold_ids, got_ids = by_id(golden), by_id(got)
    if gold_ids.keys() != got_ids.keys():
        raise SystemExit(f"id sets differ: {sorted(gold_ids) } vs {sorted(got_ids)}")
    for i, line in gold_ids.items():
        if got_ids[i] != line:
            raise SystemExit(f"id {i}: {got_ids[i]} != {line}")
    gold_rest = sorted(l for l in golden if not re.match(r'\{"id":', l))
    got_rest = []
    for line in got:
        if re.match(r'\{"id":', line):
            continue
        if '"seq":' not in line:
            raise SystemExit(f"id-less line without seq: {line}")
        got_rest.append(re.sub(r'"seq":\d+,', "", line, count=1))
    if sorted(got_rest) != gold_rest:
        raise SystemExit("id-less lines diverged:\n" + "\n".join(got_rest))


TYPED_STATUSES = {
    "ok", "budget_exceeded", "unknown_source", "disconnected",
    "unknown_tenant", "quota_exceeded", "deadline_exceeded", "overloaded",
    "rate_limited", "unsupported_fault_model", "parse_error",
}


def check_tolerant(got, golden):
    for line in got:
        try:
            obj = json.loads(line)
        except ValueError:
            raise SystemExit(f"unparseable response under chaos: {line}")
        if obj.get("status") not in TYPED_STATUSES:
            raise SystemExit(f"untyped status under chaos: {line}")
    if by_id(got).keys() != by_id(golden).keys():
        raise SystemExit(
            f"answered id set diverged under chaos: "
            f"{sorted(by_id(golden))} vs {sorted(by_id(got))}")


def recv_lines(sock, count):
    lines, buf = [], b""
    while len(lines) < count:
        chunk = sock.recv(65536)
        if not chunk:
            raise SystemExit(
                f"connection closed after {len(lines)}/{count} responses")
        buf += chunk
        while b"\n" in buf and len(lines) < count:
            line, buf = buf.split(b"\n", 1)
            lines.append(line.decode())
    if buf:
        raise SystemExit(f"trailing bytes beyond expected responses: {buf!r}")
    return lines


def reload_scenario(proc, host, port, args):
    """SIGHUP mid-stream: in-flight responses intact, new tenant routable."""
    inflight = [
        '{"id":%d,"source":0,"targets":[%d]}' % (i, 1 + i % 5)
        for i in range(40)
    ]
    with socket.create_connection((host, port)) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.sendall(("\n".join(inflight) + "\n").encode())
        # Swap the manifest under the server and reload while the burst above
        # is still being served.
        shutil.copyfile(args.reload_body, args.manifest)
        proc.send_signal(signal.SIGHUP)
        got = recv_lines(sock, len(inflight))
        for i, line in enumerate(got):
            obj = json.loads(line)
            if obj.get("id") != i or obj.get("status") != "ok":
                raise SystemExit(
                    f"in-flight response {i} damaged by reload: {line}")
        # The tenant that exists only in the new manifest must answer on this
        # same connection — routing picks up the reload without reconnect.
        probe_id = 9001
        sock.sendall(('{"id":%d,"tenant":"%s","source":0,"targets":[1]}\n'
                      % (probe_id, args.reload_tenant)).encode())
        line = recv_lines(sock, 1)[0]
        obj = json.loads(line)
        if obj.get("id") != probe_id or obj.get("status") != "ok":
            raise SystemExit(f"new tenant not routable after reload: {line}")
        sock.shutdown(socket.SHUT_WR)
        if sock.recv(1):
            raise SystemExit("unexpected bytes after half-close")
    return len(inflight) + 1


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--binary", required=True)
    ap.add_argument("--graph")
    ap.add_argument("--requests")
    ap.add_argument("--golden")
    ap.add_argument("--compare",
                    choices=["exact", "relaxed", "tolerant"])
    ap.add_argument("--threads", type=int, default=1)
    ap.add_argument("--mode", default="ordered")
    ap.add_argument("--failpoints",
                    help="failpoint schedule passed to the server; pair with "
                         "--compare tolerant")
    ap.add_argument("--manifest",
                    help="tenant manifest; server starts with --tenants")
    ap.add_argument("--reload-body",
                    help="file whose contents replace --manifest mid-stream "
                         "before SIGHUP (enables the reload scenario)")
    ap.add_argument("--reload-tenant", default="gamma",
                    help="tenant that must answer only after the reload")
    args = ap.parse_args()

    reload_mode = args.reload_body is not None
    if reload_mode and not args.manifest:
        ap.error("--reload-body requires --manifest")
    if not reload_mode and not (args.graph and args.requests and args.golden
                                and args.compare):
        ap.error("golden mode requires --graph/--requests/--golden/--compare")

    cmd = [args.binary, "serve", "--threads", str(args.threads),
           "--mode", args.mode, "--listen", "127.0.0.1:0"]
    cmd += ["--tenants", args.manifest] if args.manifest else \
           ["--graph", args.graph]
    if args.failpoints:
        cmd += ["--failpoints", args.failpoints]
    proc = subprocess.Popen(cmd, stderr=subprocess.PIPE)
    try:
        host, port = parse_listen_line(proc)
        if reload_mode:
            count = reload_scenario(proc, host, port, args)
        else:
            requests = open(args.requests).read().splitlines()
            golden = open(args.golden).read().splitlines()
            got = pipeline(host, port, requests)
            count = len(got)
            if args.compare == "exact":
                check_exact(got, golden)
            elif args.compare == "relaxed":
                check_relaxed(got, golden)
            else:
                check_tolerant(got, golden)
        proc.send_signal(signal.SIGTERM)
        code = proc.wait(timeout=30)
        tail = proc.stderr.read().decode(errors="replace")
        if code != 0:
            raise SystemExit(f"server exited {code} after SIGTERM:\n{tail}")
        if "drained:" not in tail:
            raise SystemExit(f"no drain summary on stderr:\n{tail}")
        if reload_mode and "reloaded" not in tail:
            raise SystemExit(f"no reload summary on stderr:\n{tail}")
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if reload_mode:
        print(f"socket reload OK (--threads {args.threads}): "
              f"{count} responses across SIGHUP")
    else:
        print(f"socket golden OK ({args.compare}, --threads {args.threads}, "
              f"--mode {args.mode}): {count} responses")


if __name__ == "__main__":
    main()
