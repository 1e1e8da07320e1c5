"""``serve_batch`` and ``serve_singles``: closed-loop load on ``repro serve``.

One client process (this one) drives a ``repro serve`` child over 2
persistent connections, each sending its next request only after the
previous reply arrived.  Request bodies are generated per request from the
workload seed, outside the latency clock.  Replies are kept as raw bytes
and checked after the timed phase.
"""

from __future__ import annotations

import http.client
import itertools
import json
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, NamedTuple

from perfbench import inputs
from perfbench.benchstats import geometric_mean, percentile
from perfbench.spans import Span, SpanRecorder, load_spans, self_times

#: Connections of the closed loop (the box has 2 vCPUs).
CONNECTIONS = 2

#: Fresh servers per run.  Each is timed from spawn to the end of its
#: warm-up (``setup_s`` is the median) and then serves an equal share of
#: the timed phase, which averages out how a process happens to land on
#: the host.
SERVERS = 5

#: Instances of the fixed check sample (sent after the timed phase).
CHECK_COUNT = 256

#: Warm-up after each server start: a fixed amount of work.
WARMUP_BATCHES = 2
WARMUP_SINGLES = 32

#: GIL switch interval of the client threads during the timed phase.
CLIENT_SWITCH_INTERVAL = 0.0005

ROUTES = {"serve_batch": "/v1/solve_batch", "serve_singles": "/v1/solve"}
_JSON = {"Content-Type": "application/json"}


class Reply(NamedTuple):
    index: int  # request number within the run (names its instances)
    status: int  # HTTP status, 0 when the connection failed
    body: bytes
    seconds: float


# --------------------------------------------------------------------- #
# the server process
# --------------------------------------------------------------------- #
def _free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class ServerProcess:
    """A ``repro serve`` child on a free port, with default flags otherwise.

    With ``spans_path`` the server starts through
    ``perfbench/serve_traced.py``, which installs the span recorders first
    and writes the spans there when the server exits.
    """

    def __init__(self, root: Path, workdir: Path, env: dict[str, str], *,
                 spans_path: Path | None = None) -> None:
        self.port = _free_port()
        jobs = workdir / f"jobs-{self.port}"
        serve_args = ["serve", "--port", str(self.port),
                      "--jobs-dir", str(jobs)]
        if spans_path is None:
            argv = [sys.executable, "-m", "repro", *serve_args]
        else:
            argv = [sys.executable,
                    str(root / "perfbench" / "serve_traced.py"),
                    str(spans_path), *serve_args]
        self._log = open(workdir / f"serve-{self.port}.log", "wb")
        self.process = subprocess.Popen(argv, cwd=root, env=env,
                                        stdout=subprocess.DEVNULL,
                                        stderr=self._log)

    def wait_ready(self, timeout: float = 120.0) -> None:
        deadline = time.perf_counter() + timeout
        while time.perf_counter() < deadline:
            if self.process.poll() is not None:
                log = Path(self._log.name).read_bytes()[-2000:]
                raise RuntimeError(
                    f"repro serve exited with {self.process.returncode}: "
                    f"{log.decode(errors='replace')}")
            try:
                status, _body = request_once(self.port, "GET", "/v1/healthz")
                if status == 200:
                    return
            except OSError:
                pass
            time.sleep(0.01)
        raise RuntimeError(f"repro serve did not answer within {timeout}s")

    def peak_rss_mb(self) -> float:
        """Peak resident set (VmHWM) of the server process."""
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        """SIGTERM (graceful drain) and wait; kill if it hangs."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._log.close()


def request_once(port: int, method: str, path: str,
                 body: bytes | None = None) -> tuple[int, bytes]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        conn.request(method, path, body=body, headers=_JSON)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def _connect(port: int) -> http.client.HTTPConnection:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    conn.connect()
    conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return conn


# --------------------------------------------------------------------- #
# load
# --------------------------------------------------------------------- #
def body_maker(workload: str, seed: int, stream: int = inputs.TIMED
               ) -> Callable[[int], bytes]:
    """Request number -> body; the instances are a function of the seed."""
    if workload == "serve_batch":
        return lambda k: inputs.batch_body(
            inputs.tree_block(seed, stream, k, inputs.BATCH_SIZE))
    return lambda k: inputs.instance_payloads(
        inputs.tree_block(seed, stream, k, 1))[0].encode()


def closed_loop(port: int, path: str, make_body: Callable[[int], bytes],
                seconds: float, first: int = 0) -> tuple[list[Reply], float]:
    """Send from :data:`CONNECTIONS` connections until ``seconds`` passed.

    Each connection builds its next body while its request is in flight,
    and the client's GIL switch interval is cut so that a reply is read as
    soon as it lands instead of waiting out the other thread's generation.
    Returns every reply and the wall time from the first send to the last
    reply.
    """
    numbers = itertools.count(first)
    replies: list[Reply] = []

    def fresh() -> tuple[int, bytes]:
        index = next(numbers)
        return index, make_body(index)

    def client() -> None:
        conn = _connect(port)
        index, body = fresh()
        try:
            while time.perf_counter() < stop_at:
                upcoming = None
                t0 = time.perf_counter()
                try:
                    conn.request("POST", path, body=body, headers=_JSON)
                    upcoming = fresh()
                    response = conn.getresponse()
                    replies.append(Reply(index, response.status,
                                         response.read(),
                                         time.perf_counter() - t0))
                except (OSError, http.client.HTTPException) as exc:
                    replies.append(Reply(index, 0, str(exc).encode(), 0.0))
                    conn.close()
                    conn = _connect(port)
                index, body = upcoming or fresh()
        finally:
            conn.close()

    threads = [threading.Thread(target=client) for _ in range(CONNECTIONS)]
    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(CLIENT_SWITCH_INTERVAL)
    try:
        start = time.perf_counter()
        stop_at = start + seconds
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return replies, time.perf_counter() - start
    finally:
        sys.setswitchinterval(switch_interval)


def start_server(workload: str, root: Path, workdir: Path,
                 env: dict[str, str], *, spans_path: Path | None = None
                 ) -> tuple[ServerProcess, float]:
    """Start a server, wait until it answers and warm it up.

    Returns the server and the seconds from spawn to the end of the
    warm-up.  The warm-up instances come from their own stream and are
    built before the clock starts.
    """
    count = WARMUP_BATCHES if workload == "serve_batch" else WARMUP_SINGLES
    make = body_maker(workload, inputs.CHECK_SEED, inputs.WARMUP)
    bodies = [make(k) for k in range(count)]
    t0 = time.perf_counter()
    server = ServerProcess(root, workdir, env, spans_path=spans_path)
    try:
        server.wait_ready()
        for warm_body in bodies:
            status, body = request_once(server.port, "POST", ROUTES[workload],
                                        warm_body)
            if status != 200:
                raise RuntimeError(f"warm-up request failed: HTTP {status} "
                                   f"{body[:200]!r}")
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - t0


# --------------------------------------------------------------------- #
# answer checks
# --------------------------------------------------------------------- #
def _reply_rows(workload: str, reply_status: int, body: bytes) -> list:
    """The rows of one reply, or ``[]`` for a failed or undecodable one."""
    from repro.api.protocol import SolveResponse
    from repro.api.rowcodec import decode_rows
    from repro.utils.errors import TransportError

    if reply_status != 200:
        return []
    try:
        payload = json.loads(body)
        if workload == "serve_batch":
            return decode_rows(payload)
        return [SolveResponse.from_wire(payload)]
    except (ValueError, TransportError):
        return []


def _row_correct(row, name: str, lower_bound: float) -> bool:
    return (row.ok and row.name == name and row.energy is not None
            and row.energy >= lower_bound * (1.0 - inputs.RTOL))


def check_replies(workload: str, seed: int, replies: list[Reply]
                  ) -> tuple[int, int]:
    """``(correct, attempted)`` instances over the timed replies.

    A row is correct when its reply is a 200, it is ``ok``, it comes back
    in request order and its energy is not below its instance's
    critical-path lower bound.
    """
    per_request = inputs.BATCH_SIZE if workload == "serve_batch" else 1
    correct = 0
    for reply in replies:
        rows = _reply_rows(workload, reply.status, reply.body)
        if len(rows) != per_request:
            continue
        block = inputs.tree_block(seed, inputs.TIMED, reply.index,
                                  per_request)
        correct += sum(_row_correct(row, name, bound) for row, name, bound
                       in zip(rows, block.names,
                              inputs.tree_lower_bounds(block).tolist()))
    return correct, per_request * len(replies)


def check_sample(workload: str, port: int) -> tuple[int, float]:
    """Solve the fixed check sample through the workload's route.

    Returns the number of correct instances and ``energy_ratio``, the
    geometric mean of energy over the library's critical-path lower bound.
    An instance is correct when its energy matches the scalar
    ``repro.solve.solve`` path within :data:`inputs.RTOL`.
    """
    block = inputs.tree_block(inputs.CHECK_SEED, inputs.CHECK, 0, CHECK_COUNT)
    payloads = inputs.instance_payloads(block)
    if workload == "serve_batch":
        rows = _reply_rows(workload, *request_once(
            port, "POST", ROUTES[workload], inputs.batch_body(block)))
    else:
        rows = [(_reply_rows(workload, *request_once(
            port, "POST", ROUTES[workload], payload.encode())) or [None])[0]
            for payload in payloads]
    ratios = [ratio for row, name, payload, fast_bound
              in zip(rows, block.names, payloads,
                     inputs.tree_lower_bounds(block))
              if (ratio := sample_ratio(row, name, payload, fast_bound))
              is not None]
    if not ratios:
        raise RuntimeError("no check-sample instance was answered correctly")
    return len(ratios), geometric_mean(ratios)


def sample_ratio(row, name: str, payload: str,
                 fast_bound: float) -> float | None:
    """Energy over the critical-path bound of a correct check-sample row;
    ``None`` when the row is missing, wrong or strays from the scalar path."""
    from repro.api.protocol import SolveRequest
    from repro.continuous.bounds import critical_path_lower_bound

    if row is None:
        return None
    problem = SolveRequest.from_wire(json.loads(payload)).build_problem()
    bound = critical_path_lower_bound(problem)
    if abs(bound - fast_bound) > inputs.RTOL * bound:
        raise RuntimeError(
            f"the benchmark's vectorised lower bound {fast_bound!r} "
            f"disagrees with critical_path_lower_bound {bound!r}")
    reference = sys.modules["repro.solve"].solve(problem).energy
    if _row_correct(row, name, bound) \
            and abs(row.energy - reference) <= inputs.RTOL * reference:
        return row.energy / bound
    return None


# --------------------------------------------------------------------- #
# the measured run
# --------------------------------------------------------------------- #
def run(workload: str, seed: int, seconds: float, trace: bool, root: Path,
        workdir: Path, env: dict[str, str]) -> dict:
    """One run of a serve workload; returns the result fields."""
    if trace:
        return _run_traced(workload, seed, seconds, root, workdir, env)
    make_body = body_maker(workload, seed)
    per_request = inputs.BATCH_SIZE if workload == "serve_batch" else 1
    setups, rss, replies, rates = [], [], [], []
    for turn in range(SERVERS):
        server, setup = start_server(workload, root, workdir, env)
        setups.append(setup)
        try:
            part, elapsed = closed_loop(
                server.port, ROUTES[workload], make_body, seconds / SERVERS,
                first=1 + max((r.index for r in replies), default=-1))
            rss.append(server.peak_rss_mb())
            if turn == SERVERS - 1:
                sample_correct, energy_ratio = check_sample(workload,
                                                            server.port)
        finally:
            server.stop()
        replies += part
        rates.append(per_request * sum(r.status == 200 for r in part)
                     / elapsed)
    correct, attempted = check_replies(workload, seed, replies)
    # the rate is the median over servers, so one segment that lands on a
    # busy host does not move the run; latencies pool every request
    rate = statistics.median(rates)
    latencies = [r.seconds for r in replies if r.status == 200]
    return {
        "correct": correct + sample_correct,
        "attempted": attempted + CHECK_COUNT,
        "metrics": {
            "setup_s": statistics.median(setups),
            "solves_per_s": rate,
            "latency_p50_ms": percentile(latencies, 50) * 1e3,
            "latency_p90_ms": percentile(latencies, 90) * 1e3,
            # nothing on the solve routes remembers answers, so every pass
            # is as warm as the process gets
            "warm_solves_per_s": rate,
            "peak_rss_mb": max(rss),
            "energy_ratio": energy_ratio,
        },
        "samples": {"requests": len(replies), "server_rates": rates},
    }


def _run_traced(workload: str, seed: int, seconds: float, root: Path,
                workdir: Path, env: dict[str, str]) -> dict:
    """Half the time untraced, half on a server started with recorders."""
    half = seconds / 2.0
    server, _setup = start_server(workload, root, workdir, env)
    try:
        plain, plain_elapsed = closed_loop(
            server.port, ROUTES[workload], body_maker(workload, seed), half)
        sample_correct, _ratio = check_sample(workload, server.port)
    finally:
        server.stop()
    spans_path = workdir / "server-spans.json"
    server, _setup = start_server(workload, root, workdir, env,
                                  spans_path=spans_path)
    try:
        phase_start = time.perf_counter()
        traced, traced_elapsed = closed_loop(
            server.port, ROUTES[workload], body_maker(workload, seed), half,
            first=1 + max((r.index for r in plain), default=-1))
        phase_end = time.perf_counter()
    finally:
        server.stop()
    replies = plain + traced
    correct, attempted = check_replies(workload, seed, replies)
    layers = server_layers(load_spans(str(spans_path)), phase_start,
                           phase_end)
    ok = [sum(r.status == 200 for r in part) for part in (plain, traced)]
    layers["trace.overhead"] = ((ok[1] / traced_elapsed)
                                / (ok[0] / plain_elapsed) - 1.0)
    return {"correct": correct + sample_correct,
            "attempted": attempted + CHECK_COUNT, "metrics": layers,
            "samples": {"requests": len(traced)}}


# --------------------------------------------------------------------- #
# server-side tracing (installed by perfbench/serve_traced.py)
# --------------------------------------------------------------------- #
def _fallbacks(_args: tuple, results: list) -> tuple[int, int]:
    """(instances, instances the vector core handed to the scalar path)."""
    return len(results), sum(1 for r in results
                             if not r.metadata.get("vectorized"))


def install_server_probes(recorder: SpanRecorder) -> None:
    """Record the HTTP fast path's layers, patched where callers look."""
    import repro.api.protocol as protocol
    import repro.server.http as server_http
    import repro.service.batcher as batcher
    import repro.service.service as service

    recorder.patch(server_http._Handler, "do_POST", "server.http",
                   lambda args, _r: int(args[0].headers.get("Content-Length")
                                        or 0))
    recorder.patch(protocol.SolveRequest, "from_wire",
                   "api.protocol.from_wire")
    recorder.patch(protocol.SolveRequest, "to_instance",
                   "api.protocol.to_instance")
    recorder.patch(protocol.SolveResponse, "from_result",
                   "api.protocol.from_result")
    recorder.patch(server_http, "encode_rows", "api.rowcodec.encode")
    recorder.patch(service, "solve_batch", "batch.vectorized.direct",
                   _fallbacks)

    # queue wait: from MicroBatcher.submit until its tick's solve_batch
    submitted: dict[int, float] = {}
    submit = batcher.MicroBatcher.submit

    def timed_submit(self, item, **kwargs):
        submitted[id(item)] = time.perf_counter()
        return submit(self, item, **kwargs)

    tick = recorder.wrap("batch.vectorized.tick", batcher.solve_batch,
                         _fallbacks)

    def traced_tick(items, **kwargs):
        now = time.perf_counter()
        for item in items:
            queued = submitted.pop(id(item), None)
            if queued is not None:
                recorder.sample("service.batcher.queue_wait", now - queued)
        return tick(items, **kwargs)

    batcher.MicroBatcher.submit = timed_submit
    batcher.solve_batch = traced_tick


def server_layers(spans: list[Span], start: float, end: float
                  ) -> dict[str, float]:
    """Per-request layer metrics of the spans that began in ``[start, end]``.

    Layer times are busy (thread CPU self) time; only ``wait_ms``,
    ``queue_wait_ms`` and ``tick_ms`` are wall time.
    """
    spans = [s for s in spans if start <= s.t0 <= end]
    own = self_times(spans)
    named: dict[str, list[Span]] = defaultdict(list)
    for span in spans:
        named[span.name].append(span)
    requests = max(1, len(named["server.http"]))

    def busy_ms(*names: str) -> float:
        return 1e3 * sum(own[s.id][1] for n in names for s in named[n]) \
            / requests

    solves = named["batch.vectorized.direct"] + named["batch.vectorized.tick"]
    instances = sum(s.value[0] for s in solves if s.value)
    handed_over = sum(s.value[1] for s in solves if s.value)
    ticks = named["batch.vectorized.tick"]
    waits = [s.value for s in named["service.batcher.queue_wait"]]
    http_spans = named["server.http"]
    return {
        "server.http.busy_ms": busy_ms("server.http"),
        "server.http.wait_ms": 1e3 * sum(own[s.id][0] - own[s.id][1]
                                         for s in http_spans) / requests,
        "server.http.request_bytes": sum(s.value or 0 for s in http_spans)
        / requests,
        "api.protocol.from_wire_ms": busy_ms("api.protocol.from_wire"),
        "api.protocol.to_instance_ms": busy_ms("api.protocol.to_instance"),
        "batch.vectorized.solve_ms": busy_ms("batch.vectorized.direct",
                                             "batch.vectorized.tick"),
        "batch.vectorized.fallback_ratio": handed_over / max(1, instances),
        "api.protocol.from_result_ms": busy_ms("api.protocol.from_result"),
        "api.rowcodec.encode_ms": busy_ms("api.rowcodec.encode"),
        "service.batcher.queue_wait_ms": 1e3 * sum(waits) / max(1, len(waits)),
        "service.batcher.tick_ms": 1e3 * sum(s.t1 - s.t0 for s in ticks)
        / max(1, len(ticks)),
        "service.batcher.occupancy": sum(s.value[0] for s in ticks if s.value)
        / max(1, len(ticks)),
    }
