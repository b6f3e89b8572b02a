"""The ``hot-wire`` workload: HTTP over loopback against ``python -m repro.net``.

The server runs as its own process, bound to an ephemeral port, with
its access log (stderr) sent to a file this module parses.  The load
generator is one thread with two raw-socket keep-alive connections that
send ``POST /query`` on a fixed open-loop schedule - a Zipf draw from a
pool of 32 distinct order-2 preferences - with a ``GET /healthz`` probe
in every 20th slot.  A request's latency runs from its *scheduled* send
time to its last response byte, so a stall also charges the requests
queued behind it.

A traced run launches the server through ``traced_server.py``; the
first half of its timed phase runs untraced, the second half after
``SIGUSR1`` installed the tracer.  Per-request network stages come from
the client clock, the access log's ``ms`` and the response ``seconds``.
"""

from __future__ import annotations

import collections
import gc
import json
import os
import re
import selectors
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from common import (
    DATA_SEED,
    ORACLE_SAMPLES,
    Reservoir,
    Result,
    SETUP_REPEATS,
    environment,
    latency_metrics,
    log,
    make_data,
    oracle_ids,
)
from layers import counter_metrics, counter_delta, span_metrics
from tracer import load_spans

from repro.serve.driver import percentile
from repro.serve.workloads import hot_workload

POINTS = 20_000
#: Offered load (requests/s).  About half the lowest closed-loop
#: capacity measured with one keep-alive connection on a 2-CPU host.
RATE = 200.0
DISTINCT = 32
HEALTHZ_EVERY = 20
WARMUP_SECONDS = 0.5
#: A request unanswered this long after the last send counts as failed.
DRAIN_TIMEOUT = 10.0
START_TIMEOUT = 120.0

_CONTENT_LENGTH = re.compile(rb"(?i)\r\ncontent-length:\s*(\d+)")
_SECONDS = re.compile(rb'"seconds":\s*([0-9.eE+-]+)')


@dataclass
class Request:
    kind: str  # "query" or "healthz"
    pref: int  # index into the preference stream (-1 for healthz)
    scheduled: float
    sent: float = 0.0
    done: float = 0.0
    status: int = 0
    body: bytes = b""


class Connection:
    """One keep-alive connection; responses arrive in request order."""

    def __init__(self, host: str, port: int) -> None:
        self.sock = socket.create_connection((host, port), timeout=DRAIN_TIMEOUT)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.port = self.sock.getsockname()[1]
        self.buffer = bytearray()
        self.pending: collections.deque = collections.deque()
        self.finished: List[Request] = []

    def feed(self, data: bytes, now: float) -> None:
        self.buffer += data
        while True:
            head_end = self.buffer.find(b"\r\n\r\n")
            if head_end < 0:
                return
            head = bytes(self.buffer[:head_end])
            match = _CONTENT_LENGTH.search(head)
            total = head_end + 4 + (int(match.group(1)) if match else 0)
            if len(self.buffer) < total:
                return
            request = self.pending.popleft()
            request.status = int(head[9:12])
            request.body = bytes(self.buffer[head_end + 4:total])
            request.done = now
            del self.buffer[:total]
            self.finished.append(request)

    def close(self) -> None:
        self.sock.close()


def http_get(host: str, port: int, path: str) -> bytes:
    """One ``GET`` on a fresh connection; the response body."""
    with socket.create_connection((host, port), timeout=DRAIN_TIMEOUT) as sock:
        sock.sendall(
            f"GET {path} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n".encode()
        )
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    raw = b"".join(chunks)
    return raw[raw.find(b"\r\n\r\n") + 4:]


def query_payload(pref) -> bytes:
    body = json.dumps({"preference": {
        name: list(chain.choices) for name, chain in pref.items()
    }}).encode()
    return (
        b"POST /query HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n"
        b"Content-Length: " + str(len(body)).encode() + b"\r\n\r\n" + body
    )


HEALTHZ = b"GET /healthz HTTP/1.1\r\nHost: bench\r\n\r\n"


def open_loop(
    conns: List[Connection],
    payloads: List[bytes],
    first: int,
    seconds: float,
) -> List[Request]:
    """Send on schedule for ``seconds``; every request, answered or not.

    Slot ``k`` is due at ``start + k / RATE``; it goes to the connection
    with the fewest outstanding requests (pipelined when all are busy).
    The generator's own garbage collector is off meanwhile: its pauses
    would be charged to the server as late sends.
    """
    gc.collect()
    gc.disable()
    selector = selectors.DefaultSelector()
    for conn in conns:
        selector.register(conn.sock, selectors.EVENT_READ, conn)
    count = int(seconds * RATE)
    sent: List[Request] = []
    start = time.perf_counter()
    slot = 0
    try:
        while True:
            now = time.perf_counter()
            if slot < count:
                due = start + slot / RATE
                if now >= due:
                    index = first + slot
                    if slot % HEALTHZ_EVERY == HEALTHZ_EVERY - 1:
                        request = Request("healthz", -1, due)
                        payload = HEALTHZ
                    else:
                        request = Request("query", index, due)
                        payload = payloads[index % len(payloads)]
                    conn = min(conns, key=lambda c: len(c.pending))
                    request.sent = time.perf_counter()
                    conn.pending.append(request)
                    conn.sock.sendall(payload)
                    sent.append(request)
                    slot += 1
                    continue
                timeout = due - now
            elif any(c.pending for c in conns):
                timeout = start + count / RATE + DRAIN_TIMEOUT - now
                if timeout <= 0:
                    break
            else:
                break
            for key, _events in selector.select(timeout):
                conn = key.data
                data = conn.sock.recv(262144)
                if not data:
                    raise ConnectionError(f"server closed connection {conn.port}")
                conn.feed(data, time.perf_counter())
    finally:
        selector.close()
        gc.enable()
    return sent


def parse_access_log(path: str) -> Dict[int, List[dict]]:
    """Access-log lines per client port, in the order they were served."""
    lines: Dict[int, List[dict]] = collections.defaultdict(list)
    with open(path) as handle:
        for line in handle:
            if not line.startswith("{"):
                continue
            record = json.loads(line)
            if record.get("event") == "request":
                lines[int(record["remote"].rsplit(":", 1)[1])].append(record)
    return lines


def parse_metrics(text: str) -> Tuple[Dict[str, float], Dict[str, float]]:
    """(route counts, cache counters) from a ``/metrics`` scrape."""
    routes: Dict[str, float] = {}
    cache: Dict[str, float] = {}
    for line in text.splitlines():
        if line.startswith("repro_net_query_routes_total{"):
            label, value = line.split("} ")
            routes[label.split('"')[1]] = float(value)
        for field in ("hits", "misses", "evictions", "patches", "invalidations"):
            name = f"repro_service_cache_{field}_total "
            if line.startswith(name):
                cache[field] = float(line[len(name):])
    return routes, cache


def vm_hwm_mb(pid: int) -> float:
    """Peak RSS (``VmHWM``) of a live process, in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


class Server:
    """A ``repro.net`` server process with its log in a file."""

    def __init__(self, root: str, workdir: str, points: int,
                 trace_out: Optional[str] = None) -> None:
        self.log_path = os.path.join(workdir, f"server-{time.monotonic_ns()}.log")
        net_args = [
            "--listen", "127.0.0.1:0", "--points", str(points),
            "--numeric", "2", "--nominal", "3", "--cardinality", "10",
            "--seed", str(DATA_SEED), "--template-order", "1", "--ipo-k", "2",
            "--cache-size", "256",
        ]
        if trace_out is None:
            argv = [sys.executable, "-m", "repro.net"] + net_args
        else:
            argv = [sys.executable,
                    os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                 "traced_server.py"),
                    "--trace-out", trace_out] + net_args
        env = dict(os.environ)
        src = os.path.join(root, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self._log = open(self.log_path, "wb")
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, cwd=root, env=env, stdin=subprocess.DEVNULL,
            stdout=self._log, stderr=subprocess.STDOUT,
        )
        try:
            self.host, self.port = self._wait_listening()
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - started

    def _wait_listening(self) -> Tuple[str, int]:
        deadline = time.monotonic() + START_TIMEOUT
        with open(self.log_path, "rb") as handle:
            seen = b""
            while time.monotonic() < deadline:
                seen += handle.read()
                match = re.search(rb"listening on ([0-9.]+):(\d+)", seen)
                if match:
                    return match.group(1).decode(), int(match.group(2))
                if self.proc.poll() is not None:
                    raise RuntimeError(
                        f"server exited with {self.proc.returncode}: "
                        f"{seen.decode(errors='replace')[-2000:]}"
                    )
                time.sleep(0.002)
        raise TimeoutError("server did not report its listening address")

    def stop(self) -> None:
        """Drain (SIGTERM), wait, and kill only if the drain hangs."""
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGTERM)
                try:
                    self.proc.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait()
        finally:
            self._log.close()


def net_stages(result: Result, requests: List[Request], conns: List[Connection],
               access: Dict[int, List[dict]]) -> None:
    """Client/server split of the untraced requests (medians, ms)."""
    dispatch: Dict[int, float] = {}
    for conn in conns:
        for request, line in zip(conn.finished, access.get(conn.port, ())):
            dispatch[id(request)] = line["ms"] / 1e3
    stages = collections.defaultdict(list)
    for r in requests:
        if r.status != 200 or id(r) not in dispatch:
            continue
        rtt = r.done - r.sent
        if r.kind == "healthz":
            stages["net.healthz_rtt_ms"].append(rtt)
            continue
        served = dispatch[id(r)]
        service = float(_SECONDS.search(r.body).group(1))
        stages["net.rtt_ms"].append(rtt)
        stages["net.dispatch_ms"].append(served)
        stages["net.service_ms"].append(service)
        stages["net.transport_ms"].append(rtt - served)
        stages["net.hop_codec_ms"].append(served - service)
    for name, values in stages.items():
        result.put(name, statistics.median(values) * 1e3)


def hot_wire(seed: int, seconds: float, trace: bool, root: str,
             workdir: str, scale: float = 1.0) -> Tuple[Result, None]:
    result = Result()
    points = max(200, int(POINTS * scale))
    dataset, template = make_data(points)
    count = int((WARMUP_SECONDS + seconds) * RATE) + 1
    stream = hot_workload(dataset, template, queries=count, order=2,
                          distinct=DISTINCT, seed=seed + 1)
    encoded = {id(p): query_payload(p) for p in stream}
    payloads = [encoded[id(p)] for p in stream]
    scratch = tempfile.mkdtemp(prefix="wire-", dir=workdir)
    trace_out = os.path.join(workdir, "spans-hot-wire.jsonl") if trace else None

    setups = []
    server: Optional[Server] = None
    conns: List[Connection] = []
    try:
        for _ in range(1 if trace else SETUP_REPEATS):
            if server is not None:
                server.stop()
            server = Server(root, scratch, points, trace_out)
            setups.append(server.setup_s)
        conns = [Connection(server.host, server.port) for _ in range(2)]
        warm = open_loop(conns, payloads, 0, WARMUP_SECONDS)
        first = len(warm)
        phases = []
        plain = open_loop(conns, payloads, first, seconds / 2 if trace else seconds)
        phases.append(plain)
        if trace:
            before = parse_metrics(http_get(server.host, server.port, "/metrics").decode())
            server.proc.send_signal(signal.SIGUSR1)
            http_get(server.host, server.port, "/healthz")
            time.sleep(0.05)
            traced = open_loop(conns, payloads, first + len(plain), seconds / 2)
            phases.append(traced)
            after = parse_metrics(http_get(server.host, server.port, "/metrics").decode())
            counter_metrics(result.put, counter_delta(before[0], after[0]),
                            counter_delta(before[1], after[1]))
        rss = vm_hwm_mb(server.proc.pid)
        for conn in conns:
            conn.close()
        server.stop()
        if server.proc.returncode != 0:
            result.mismatches.append(f"server exited with {server.proc.returncode}")
        access = parse_access_log(server.log_path)
    finally:
        for conn in conns:
            conn.close()
        if server is not None:
            server.stop()
        shutil.rmtree(scratch, ignore_errors=True)

    everything = [r for phase in phases for r in phase]
    failed = [r for r in everything if r.status != 200]
    result.attempted = len(everything)
    result.failed = len(failed)
    if failed:
        log(f"{len(failed)} failed requests; first status {failed[0].status}")

    def answered(phase):
        return [r for r in phase if r.kind == "query" and r.status == 200]

    samples = Reservoir(ORACLE_SAMPLES, seed + 2)
    for r in answered(everything):
        samples.offer(r)
    done = answered(plain)
    latency_metrics(result, "query", [r.done - r.scheduled for r in done])
    result.put("query_qps", len(done) / (max(r.done for r in done) - plain[0].scheduled))
    result.put("setup_s", statistics.median(setups))
    result.put("peak_rss_mb", rss)
    result.put("loadgen.late_p99_ms",
               percentile([r.sent - r.scheduled for r in plain], 99) * 1e3)
    if trace:
        net_stages(result, plain, conns, access)
        traced_p50 = percentile([r.done - r.scheduled for r in answered(phases[1])], 50)
        result.put("trace.overhead_ms", traced_p50 * 1e3 - result.metrics["query_p50_ms"][0])
        span_metrics(result.put, load_spans(trace_out))
    result.env["samples"] = {"queries": len(done)}

    rows = {i: dataset.row(i) for i in dataset.ids}
    for index, r in enumerate(samples.items):
        ids = tuple(sorted(json.loads(r.body)["ids"]))
        expected = oracle_ids(dataset.schema, rows, stream[r.pref], template)
        result.check(f"sampled wire answer {index}", ids, expected)
    result.env.update(environment(seed, workload="hot-wire", points=points,
                                  offered_rate=RATE, connections=len(conns)))
    return result, None
