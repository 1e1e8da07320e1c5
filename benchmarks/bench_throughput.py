"""Throughput — the synchronous solve fast path over HTTP.

Drives the ``/v1/solve`` + ``/v1/solve_batch`` routes with concurrent
persistent-connection clients against a :class:`SolverHTTPServer` and
measures end-to-end solves/sec and request latency:

* **solve_batch**: each client POSTs pre-encoded batches of small random
  trees; one request = one codec round-trip = one vectorized batch tick.
  This is the headline number — the acceptance floor is 10k small-graph
  solves/sec through HTTP on a development machine.
* **solve singles**: each client POSTs one instance per request, all
  clients concurrently.  The server's micro-batcher coalesces the
  concurrent singles into shared vector ticks; the recorded mean/max
  occupancy (from ``/v1/batch_stats``) is the direct proof that N
  requests cost far fewer than N solve pipelines.

Off the clock, the first 64 pool instances are then posted once singly to
``/v1/solve`` and once as one ``/v1/solve_batch``: the run fails unless
every single answers with its batch row's solver and an energy within a
relative 1e-12 of it.

Standalone mode targets an external server (the CI ``throughput-smoke``
job starts ``repro serve`` and points ``--url`` at it)::

    python benchmarks/bench_throughput.py --clients 4 --batch 512 \
        --requests 8 --singles 500 --floor 1000 [--url http://...]
"""

from __future__ import annotations

import argparse
import http.client
import json
import math
import pathlib
import sys
import threading
import time

_SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    try:
        import repro  # noqa: F401
    except ImportError:  # pragma: no cover - only hit without installation
        sys.path.insert(0, str(_SRC))

from repro.api.protocol import SCHEMA_VERSION, SolveResponse
from repro.api.rowcodec import decode_rows
from repro.graphs.analysis import longest_path_length
from repro.graphs.generators import random_tree
from repro.graphs.io import graph_to_dict
from repro.utils.tables import Table

S_MAX = 2.0

#: Pool instances posted both singly and as one batch by the answer check.
AGREEMENT_ROWS = 64


def _request_wire(n_tasks: int, seed: int, slack: float = 1.8) -> dict:
    graph = random_tree(n_tasks, seed=seed)
    deadline = slack * longest_path_length(
        graph, weight=lambda n: graph.work(n) / S_MAX)
    return {"schema_version": SCHEMA_VERSION, "graph": graph_to_dict(graph),
            "deadline": deadline, "model": "continuous", "s_max": S_MAX,
            "alpha": 3.0, "name": f"bench-{seed}"}


def _post_worker(host: str, port: int, path: str, bodies: list[bytes],
                 latencies: list[float], failures: list[str]) -> None:
    """One client: a persistent connection POSTing pre-encoded bodies."""
    conn = http.client.HTTPConnection(host, port, timeout=60)
    try:
        for body in bodies:
            start = time.perf_counter()
            conn.request("POST", path, body=body,
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            payload = response.read()
            latencies.append(time.perf_counter() - start)
            if response.status != 200:
                failures.append(f"HTTP {response.status}: {payload[:200]!r}")
                continue
            frame = json.loads(payload)
            if frame.get("errors") or frame.get("ok") is False:
                failures.append(f"error rows in {payload[:200]!r}")
    except OSError as exc:
        failures.append(f"{type(exc).__name__}: {exc}")
    finally:
        conn.close()


def _fan_out(host: str, port: int, path: str,
             per_client_bodies: list[list[bytes]]
             ) -> tuple[float, list[float], list[str]]:
    latencies: list[float] = []
    failures: list[str] = []
    threads = [threading.Thread(target=_post_worker,
                                args=(host, port, path, bodies,
                                      latencies, failures))
               for bodies in per_client_bodies]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return time.perf_counter() - start, latencies, failures


def _batch_stats(host: str, port: int) -> dict:
    conn = http.client.HTTPConnection(host, port, timeout=30)
    try:
        conn.request("GET", "/v1/batch_stats")
        return json.loads(conn.getresponse().read())
    finally:
        conn.close()


def _post_json(conn: http.client.HTTPConnection, path: str,
               payload: dict) -> dict:
    conn.request("POST", path, body=json.dumps(payload).encode("utf-8"),
                 headers={"Content-Type": "application/json"})
    response = conn.getresponse()
    body = response.read()
    if response.status != 200:
        raise AssertionError(f"{path}: HTTP {response.status}: {body[:200]!r}")
    return json.loads(body)


def _check_agreement(host: str, port: int, wires: list[dict]) -> None:
    """Fail unless ``/v1/solve`` and ``/v1/solve_batch`` answer ``wires``
    alike: the same solver, and energies within a relative 1e-12."""
    conn = http.client.HTTPConnection(host, port, timeout=60)
    try:
        singles = [SolveResponse.from_wire(_post_json(conn, "/v1/solve", w))
                   for w in wires]
        rows = decode_rows(_post_json(conn, "/v1/solve_batch", {
            "schema_version": SCHEMA_VERSION, "requests": wires}))
    finally:
        conn.close()
    if len(rows) != len(wires):
        raise AssertionError(
            f"solve_batch answered {len(rows)} rows for {len(wires)} requests")
    for i, (single, row) in enumerate(zip(singles, rows)):
        if single.solver != row.solver or single.ok != row.ok or (
                row.ok and not math.isclose(single.energy, row.energy,
                                            rel_tol=1e-12)):
            raise AssertionError(
                f"instance {i}: /v1/solve answered {single.solver} "
                f"{single.energy!r}, /v1/solve_batch {row.solver} "
                f"{row.energy!r}")


def _percentile(latencies: list[float], q: float) -> float:
    if not latencies:
        return 0.0
    ranked = sorted(latencies)
    return ranked[min(len(ranked) - 1, int(q * (len(ranked) - 1) + 0.5))]


def throughput_benchmark(*, clients: int = 4, batch: int = 512,
                         requests: int = 8, singles: int = 500,
                         n_tasks: int = 8, url: str = "",
                         seed: int = 11) -> Table:
    """Run both scenarios; return one table row per scenario."""
    table = Table(
        columns=["case", "clients", "batch", "requests", "solves", "seconds",
                 "solves_per_sec", "p50_ms", "p99_ms", "mean_occupancy",
                 "max_occupancy", "occupancy_histogram"],
        title="Throughput - vectorized solve fast path over HTTP "
              f"({n_tasks}-task random trees)")

    server = None
    if url:
        host, _, port_text = url.split("://", 1)[1].partition(":")
        port = int(port_text.rstrip("/") or 80)
    else:
        import tempfile

        from repro.api.client import DiskTransport
        from repro.server.http import SolverHTTPServer

        server = SolverHTTPServer(
            DiskTransport(tempfile.mkdtemp(prefix="repro-bench-jobs-")),
            port=0).start()
        host, port = server.host, server.port
    try:
        # a shared pool of distinct instances, recycled across requests
        pool = [_request_wire(n_tasks, seed + i) for i in range(max(batch, 64))]

        # -- scenario 1: pre-batched requests through /v1/solve_batch ---- #
        body = json.dumps({"schema_version": SCHEMA_VERSION,
                           "requests": pool[:batch],
                           "keep_speeds": False}).encode("utf-8")
        elapsed, latencies, failures = _fan_out(
            host, port, "/v1/solve_batch",
            [[body] * requests for _ in range(clients)])
        if failures:
            raise AssertionError(f"solve_batch failures: {failures[:3]}")
        solves = clients * requests * batch
        table.add_row("solve_batch", clients, batch, clients * requests,
                      solves, elapsed, solves / elapsed,
                      _percentile(latencies, 0.50) * 1e3,
                      _percentile(latencies, 0.99) * 1e3,
                      float(batch), batch, json.dumps({str(batch): clients * requests}))

        # -- scenario 2: concurrent singles coalesced by the batcher ----- #
        bodies = [json.dumps(pool[i % len(pool)]).encode("utf-8")
                  for i in range(singles)]
        per_client = [[bodies[i] for i in range(c, singles, clients)]
                      for c in range(clients)]
        before = _batch_stats(host, port)
        elapsed, latencies, failures = _fan_out(
            host, port, "/v1/solve", per_client)
        if failures:
            raise AssertionError(f"solve failures: {failures[:3]}")
        after = _batch_stats(host, port)
        ticks = after["ticks"] - before["ticks"]
        submitted = after["submitted"] - before["submitted"]
        histogram = {
            size: after["occupancy"].get(size, 0) - before["occupancy"].get(size, 0)
            for size in after["occupancy"]
            if after["occupancy"].get(size, 0) > before["occupancy"].get(size, 0)}
        table.add_row("solve_singles", clients, 1, singles, singles, elapsed,
                      singles / elapsed,
                      _percentile(latencies, 0.50) * 1e3,
                      _percentile(latencies, 0.99) * 1e3,
                      (submitted / ticks) if ticks else 0.0,
                      max((int(k) for k in histogram), default=0),
                      json.dumps(histogram, sort_keys=True))

        # -- off the clock: both routes give the same answers ------------ #
        _check_agreement(host, port, pool[:AGREEMENT_ROWS])
    finally:
        if server is not None:
            server.shutdown()
    return table


def test_throughput_smoke(benchmark):
    from conftest import run_once

    table = run_once(benchmark, throughput_benchmark, case="throughput_smoke",
                     clients=4, batch=64, requests=4, singles=200, seed=11)
    rates = dict(zip(table.column("case"), table.column("solves_per_sec")))
    assert rates["solve_batch"] >= 1_000, rates
    occupancy = dict(zip(table.column("case"), table.column("mean_occupancy")))
    assert occupancy["solve_singles"] > 1.0, occupancy


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--clients", type=int, default=4)
    parser.add_argument("--batch", type=int, default=512,
                        help="instances per solve_batch request")
    parser.add_argument("--requests", type=int, default=8,
                        help="solve_batch requests per client")
    parser.add_argument("--singles", type=int, default=500,
                        help="total single /v1/solve requests")
    parser.add_argument("--n-tasks", type=int, default=8)
    parser.add_argument("--url", default="",
                        help="target an already-running repro serve "
                             "(default: start an in-process server)")
    parser.add_argument("--floor", type=float, default=0.0,
                        help="fail unless solve_batch reaches this many "
                             "solves/sec")
    parser.add_argument("--min-occupancy", type=float, default=0.0,
                        help="fail unless the singles scenario coalesces to "
                             "this mean batch occupancy")
    parser.add_argument("--out", default="",
                        help="write BENCH_throughput.json here (default: "
                             "benchmarks/results/)")
    args = parser.parse_args(argv)

    table = throughput_benchmark(clients=args.clients, batch=args.batch,
                                 requests=args.requests, singles=args.singles,
                                 n_tasks=args.n_tasks, url=args.url)
    print(table.to_ascii())

    out_dir = pathlib.Path(args.out) if args.out else (
        pathlib.Path(__file__).resolve().parent / "results")
    out_dir.mkdir(parents=True, exist_ok=True)
    payload = {
        "case": "throughput",
        "title": table.title,
        "params": {k: repr(v) for k, v in sorted(vars(args).items())},
        "columns": list(table.columns),
        "rows": [list(row) for row in table.rows],
    }
    (out_dir / "BENCH_throughput.json").write_text(
        json.dumps(payload, indent=2, default=str) + "\n", encoding="utf-8")

    rates = dict(zip(table.column("case"), table.column("solves_per_sec")))
    occupancy = dict(zip(table.column("case"), table.column("mean_occupancy")))
    print(f"solve_batch: {rates['solve_batch']:.0f} solves/sec; "
          f"singles: {rates['solve_singles']:.0f} solves/sec at mean "
          f"occupancy {occupancy['solve_singles']:.1f}")
    if args.floor and rates["solve_batch"] < args.floor:
        print(f"FAIL: solve_batch throughput {rates['solve_batch']:.0f} "
              f"< floor {args.floor:.0f}", file=sys.stderr)
        return 1
    if args.min_occupancy and occupancy["solve_singles"] < args.min_occupancy:
        print(f"FAIL: singles mean occupancy {occupancy['solve_singles']:.2f} "
              f"< {args.min_occupancy}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
