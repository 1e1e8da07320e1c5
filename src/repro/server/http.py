"""The ``repro serve`` HTTP solver service (stdlib ``http.server`` only).

A thin JSON front over any :class:`repro.api.client.Transport` — by
default a :class:`~repro.api.client.DiskTransport`, so every job the
server runs is durably recorded and clients can detach, die and re-attach
at will.  Routes (all under :data:`repro.api.protocol.PROTOCOL_PREFIX`):

=======  ==========================  ===========================================
Method   Path                        Body / response
=======  ==========================  ===========================================
POST     ``/v1/solve``               :class:`SolveRequest` wire -> solve response
POST     ``/v1/solve_batch``         request batch -> one packed row frame
GET      ``/v1/batch_stats``         micro-batcher coalescing statistics
POST     ``/v1/jobs``                :class:`SweepRequest` wire -> job record
GET      ``/v1/jobs``                ``{"jobs": [record, ...]}``
GET      ``/v1/jobs/<id>``           job record
GET      ``/v1/jobs/<id>/results``   result-table wire (409 until terminal)
POST     ``/v1/jobs/<id>/cancel``    job record after the cancel
GET      ``/v1/jobs/<id>/events``    chunked ndjson stream of progress events
GET      ``/v1/healthz``             liveness probe (never requires auth)
GET      ``/v1/queue``               queue depth / lease health counters
=======  ==========================  ===========================================

``/v1/solve`` is the synchronous fast path: no job record, no polling —
the request is solved inline (coalesced with concurrent requests by the
server's :class:`repro.service.MicroBatcher`) and answered in the same
round-trip with a :class:`~repro.api.protocol.SolveResponse` body, 200
even for a captured solve failure (``ok=false`` + typed ``error_type``).
``/v1/solve_batch`` takes ``{"requests": [...], "keep_speeds": bool}``
and answers with one compact binary row frame
(:mod:`repro.api.rowcodec`): all numeric columns of all rows in a single
base64 float64 matrix, decoded client-side back into response rows.

Failures are **typed error bodies** (:func:`repro.api.protocol.error_to_wire`),
mapped onto status codes: unknown job -> 404, malformed payload or
schema-version mismatch -> 400, premature results -> 409, missing or wrong
bearer token -> 401, anything else -> 500 — so the HTTP transport
re-raises the exact library exception the server hit.

Auth is optional bearer-token: start the server with ``--token`` (or
``REPRO_TOKEN``) and every route except ``/v1/healthz`` demands
``Authorization: Bearer <token>``, rejecting everything else with a typed
401 :class:`~repro.utils.errors.AuthError` body.  ``/v1/healthz`` stays
open so load balancers and autoscalers can probe without credentials;
``/v1/queue`` (their sizing signal) is authenticated like the job routes
because it leaks worker identities.

The event stream is genuinely incremental: HTTP/1.1 chunked transfer
encoding, one JSON object per line, flushed as the job progresses, closed
after the terminal event.
"""

from __future__ import annotations

import contextlib
import hmac
import json
import os
import re
import signal
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Iterator

import numpy as np

from repro.api.client import (
    DiskTransport,
    Transport,
    backoff_intervals,
    execute_solve,
    execute_solve_batch,
)
from repro.api.protocol import (
    PROTOCOL_PREFIX,
    SCHEMA_VERSION,
    ProgressEvent,
    SolveRequest,
    SweepRequest,
    check_schema_version,
    error_to_wire,
    table_to_wire,
)
from repro.api.rowcodec import encode_rows
from repro.reliability.policy import DEADLINE_HEADER, Deadline
from repro.utils.errors import (
    AuthError,
    DeadlineExceededError,
    InvalidParameterError,
    JobStateError,
    OverloadedError,
    ReproError,
    SchemaVersionError,
    ServerShutdownError,
    TransientTransportError,
    TransportError,
    UnknownJobError,
)

_JOB_ROUTE = re.compile(
    rf"^{re.escape(PROTOCOL_PREFIX)}/jobs/([^/]+)(?:/(results|cancel|events))?$")

#: HTTP status for each typed failure (anything else is a 500).  Order
#: matters: subclasses before their bases (the overload/drain/transient
#: errors all derive from TransportError, which maps to a plain 400).
_STATUS_OF = (
    (AuthError, 401),
    (UnknownJobError, 404),
    (SchemaVersionError, 400),
    (JobStateError, 409),
    (OverloadedError, 503),
    (ServerShutdownError, 503),
    (TransientTransportError, 503),
    (DeadlineExceededError, 504),
    (TransportError, 400),
    (ReproError, 400),
)


def _status_for(exc: BaseException) -> int:
    for cls, code in _STATUS_OF:
        if isinstance(exc, cls):
            return code
    return 500


#: Defaults of the admission controller (overridable per server and via
#: ``repro serve --max-inflight/--max-queue``).
DEFAULT_MAX_INFLIGHT = 8
DEFAULT_MAX_QUEUE = 32
DEFAULT_QUEUE_TIMEOUT = 2.0

#: ``Retry-After`` seconds suggested to shed clients.
DEFAULT_RETRY_AFTER = 0.25


class AdmissionController:
    """Bounded admission for the work routes: load shedding, not thrashing.

    At most ``max_inflight`` requests execute concurrently; up to
    ``max_queue`` more may wait ``queue_timeout`` seconds for a slot.
    Everything beyond that — and every queued request whose wait times
    out — is shed with a typed
    :class:`~repro.utils.errors.OverloadedError` (a 503 with a
    ``Retry-After`` header the client's retry policy honours as a
    backoff floor), so an overloaded server answers in microseconds
    instead of accepting unbounded work until it thrashes.
    """

    def __init__(self, *, max_inflight: int = DEFAULT_MAX_INFLIGHT,
                 max_queue: int = DEFAULT_MAX_QUEUE,
                 queue_timeout: float = DEFAULT_QUEUE_TIMEOUT,
                 retry_after: float = DEFAULT_RETRY_AFTER) -> None:
        if max_inflight < 1:
            raise InvalidParameterError(
                f"max_inflight must be >= 1, got {max_inflight}")
        if max_queue < 0:
            raise InvalidParameterError(f"max_queue must be >= 0, got {max_queue}")
        self.max_inflight = max_inflight
        self.max_queue = max_queue
        self.queue_timeout = queue_timeout
        self.retry_after = retry_after
        self._slots = threading.Semaphore(max_inflight)
        self._lock = threading.Lock()
        self._waiting = 0
        self._inflight = 0
        self._admitted = 0
        self._shed = 0

    def _shed_error(self, what: str, why: str) -> OverloadedError:
        with self._lock:
            self._shed += 1
            inflight, waiting = self._inflight, self._waiting
        return OverloadedError(
            f"server overloaded: {what} shed ({why}; "
            f"{inflight} in flight, {waiting} queued)",
            retry_after=self.retry_after)

    @contextlib.contextmanager
    def admit(self, what: str) -> Iterator[None]:
        """Hold one execution slot for the duration of the block."""
        # a free slot admits immediately and never counts as queued, so
        # max_queue=0 means "no waiting" rather than "no admission"
        acquired = self._slots.acquire(blocking=False)
        if not acquired:
            with self._lock:
                queue_full = self._waiting >= self.max_queue
                if not queue_full:
                    self._waiting += 1
            if queue_full:
                raise self._shed_error(what, "admission queue full")
            acquired = self._slots.acquire(timeout=self.queue_timeout)
            with self._lock:
                self._waiting -= 1
        if not acquired:
            raise self._shed_error(what, f"no slot within "
                                         f"{self.queue_timeout}s")
        with self._lock:
            self._inflight += 1
            self._admitted += 1
        try:
            yield
        finally:
            with self._lock:
                self._inflight -= 1
            self._slots.release()

    def stats(self) -> dict[str, Any]:
        with self._lock:
            return {
                "max_inflight": self.max_inflight,
                "max_queue": self.max_queue,
                "inflight": self._inflight,
                "queued": self._waiting,
                "admitted": self._admitted,
                "shed": self._shed,
            }


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "repro-solver/1"
    # buffer the response so status line + headers + body leave as one TCP
    # segment, and disable Nagle: an unbuffered wfile writes each header as
    # its own packet, which interacts with delayed ACKs into ~40ms stalls
    # on the latency-sensitive /v1/solve round-trip (handle_one_request
    # flushes after every response, and the chunked event stream flushes
    # explicitly, so buffering never delays a reply)
    wbufsize = 64 * 1024
    disable_nagle_algorithm = True

    # the owning SolverHTTPServer sets these on the server object
    @property
    def transport(self) -> Transport:
        return self.server.transport  # type: ignore[attr-defined]

    @property
    def solver(self):
        """The shared solve-path service (micro-batcher + vector core)."""
        return self.server.solver  # type: ignore[attr-defined]

    # ------------------------------------------------------------------ #
    # plumbing
    # ------------------------------------------------------------------ #
    def log_message(self, format: str, *args: Any) -> None:
        if getattr(self.server, "verbose", False):  # pragma: no cover
            sys.stderr.write("repro-serve: " + format % args + "\n")

    def _send_json(self, payload: dict, *, status: int = 200,
                   extra_headers: "dict[str, str] | None" = None) -> None:
        body = json.dumps(payload, default=repr).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (extra_headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_error_body(self, exc: BaseException) -> None:
        headers = None
        retry_after = getattr(exc, "retry_after", None)
        if retry_after is not None:
            headers = {"Retry-After": f"{float(retry_after):g}"}
        self._send_json(error_to_wire(exc), status=_status_for(exc),
                        extra_headers=headers)

    def _deadline(self) -> "Deadline | None":
        """The request's propagated deadline budget, if the client sent
        one (a malformed header is ignored, never a 400)."""
        raw = self.headers.get(DEADLINE_HEADER)
        if raw is None:
            return None
        return Deadline.from_header(raw)

    def _read_body(self) -> Any:
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise TransportError("malformed request: empty body")
        try:
            return json.loads(raw.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise TransportError(
                f"malformed request: body is not JSON ({exc})") from exc

    # ------------------------------------------------------------------ #
    # routing
    # ------------------------------------------------------------------ #
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._route("GET")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._route("POST")

    def _check_auth(self) -> None:
        """Demand the configured bearer token (no-op on an open server)."""
        token = getattr(self.server, "token", None)
        if not token:
            return
        header = str(self.headers.get("Authorization") or "")
        offered = header[len("Bearer "):] if header.startswith("Bearer ") \
            else ""
        if not offered or not hmac.compare_digest(offered, token):
            raise AuthError(
                "this server requires a bearer token; send "
                "'Authorization: Bearer <token>' (repro --token / "
                "REPRO_TOKEN)"
            )

    @property
    def _admission(self) -> AdmissionController:
        return self.server.admission  # type: ignore[attr-defined]

    @property
    def _draining(self) -> threading.Event:
        return self.server.draining  # type: ignore[attr-defined]

    def _refuse_if_draining(self, what: str) -> None:
        if self._draining.is_set():
            raise ServerShutdownError(
                f"server is draining: {what} refused; retry against the "
                "restarted server", retry_after=1.0)

    def _route(self, method: str) -> None:
        try:
            path = self.path.split("?", 1)[0].rstrip("/") or "/"
            if path == f"{PROTOCOL_PREFIX}/healthz" and method == "GET":
                return self._healthz()  # liveness probes skip auth
            self._check_auth()
            # the work routes (everything that executes solves or creates
            # records) sit behind bounded admission and refuse new work
            # during a drain; the cheap read routes always answer
            if path == f"{PROTOCOL_PREFIX}/solve" and method == "POST":
                self._refuse_if_draining("solve")
                with self._admission.admit("POST /solve"):
                    return self._solve()
            if path == f"{PROTOCOL_PREFIX}/solve_batch" and method == "POST":
                self._refuse_if_draining("batch solve")
                with self._admission.admit("POST /solve_batch"):
                    return self._solve_batch()
            if path == f"{PROTOCOL_PREFIX}/batch_stats" and method == "GET":
                return self._batch_stats()
            if path == f"{PROTOCOL_PREFIX}/queue" and method == "GET":
                return self._queue()
            if path == f"{PROTOCOL_PREFIX}/jobs":
                if method == "POST":
                    self._refuse_if_draining("job submission")
                    with self._admission.admit("POST /jobs"):
                        return self._submit()
                return self._list_jobs()
            match = _JOB_ROUTE.match(path)
            if match:
                job_id, verb = match.group(1), match.group(2)
                if verb is None and method == "GET":
                    return self._status(job_id)
                if verb == "results" and method == "GET":
                    return self._results(job_id)
                if verb == "cancel" and method == "POST":
                    return self._cancel(job_id)
                if verb == "events" and method == "GET":
                    return self._events(job_id)
            raise UnknownJobError(
                f"no route {method} {path}; see {PROTOCOL_PREFIX}/jobs")
        except BrokenPipeError:  # pragma: no cover - client went away
            pass
        except Exception as exc:
            try:
                self._send_error_body(exc)
            except BrokenPipeError:  # pragma: no cover - client went away
                pass

    # ------------------------------------------------------------------ #
    # verbs
    # ------------------------------------------------------------------ #
    def _healthz(self) -> None:
        draining = self._draining.is_set()
        self._send_json({
            "schema_version": SCHEMA_VERSION,
            "status": "draining" if draining else "ok",
            "protocol": PROTOCOL_PREFIX,
            "auth": bool(getattr(self.server, "token", None)),
            "draining": draining,
            "admission": self._admission.stats(),
        })

    def _queue(self) -> None:
        store = getattr(self.transport, "store", None)
        if store is None:
            raise TransportError(
                "queue statistics need a disk-backed server (this one runs "
                "an in-process transport with no job store)"
            )
        from repro.fleet.ops import queue_stats

        stale_after = getattr(self.transport, "stale_after", None)
        stats = (queue_stats(store) if stale_after is None
                 else queue_stats(store, stale_after=stale_after))
        self._send_json({"schema_version": SCHEMA_VERSION, **stats})

    def _solve(self) -> None:
        """The synchronous fast path: solve inline, answer in-band.

        Coalesces with concurrent requests through the solver service's
        micro-batcher; a captured failure is a 200 with ``ok=false`` (the
        client re-raises it typed), only a malformed payload is a 4xx.
        """
        deadline = self._deadline()
        request = SolveRequest.from_wire(self._read_body())
        if deadline is not None:
            deadline.require("solve")  # arrived with a spent budget: 504
        self._send_json(
            execute_solve(self.solver, request, deadline=deadline).to_wire())

    def _solve_batch(self) -> None:
        """One request, one batch tick, one packed binary row frame.

        The ``requests`` array is decoded straight into the vector core's
        packed arrays (:func:`execute_solve_batch`); a bad instance is a
        failure row, not a 4xx.
        """
        deadline = self._deadline()
        if deadline is not None:
            deadline.require("batch solve")
        body = self._read_body()
        if not isinstance(body, dict) or \
                not isinstance(body.get("requests"), list):
            raise TransportError(
                "malformed batch solve: expected an object with a "
                "requests array")
        check_schema_version(body, what="batch solve request")
        requests = body["requests"]
        rows = execute_solve_batch(
            self.solver, requests,
            keep_speeds=bool(body.get("keep_speeds", False)))
        speeds_vectors = None
        if any(row.speeds for row in rows):
            # re-emit each speed map as a vector in the request's own task
            # order, which the client reattaches without names travelling
            # (a row with speeds passed the checks, so its graph is sound)
            speeds_vectors = []
            for row, payload in zip(rows, requests):
                order = list(payload["graph"]["tasks"]) if row.speeds else ()
                if order and all(t in row.speeds for t in order):
                    speeds_vectors.append(np.array(
                        [row.speeds[t] for t in order], dtype="<f8"))
                else:
                    speeds_vectors.append(None)
        self._send_json(encode_rows(rows, speeds_vectors=speeds_vectors))

    def _batch_stats(self) -> None:
        self._send_json({"schema_version": SCHEMA_VERSION,
                         **self.solver.batch_stats()})

    def _submit(self) -> None:
        request = SweepRequest.from_wire(self._read_body())
        record = self.transport.submit(request)
        self._send_json(record.to_wire())

    def _list_jobs(self) -> None:
        records, skipped = self.transport.scan_jobs()
        self._send_json({"schema_version": SCHEMA_VERSION,
                         "jobs": [r.to_wire() for r in records],
                         "skipped": [list(pair) for pair in skipped]})

    def _status(self, job_id: str) -> None:
        self._send_json(self.transport.status(job_id).to_wire())

    def _results(self, job_id: str) -> None:
        record = self.transport.status(job_id)
        if not record.terminal:
            raise JobStateError(
                f"job {job_id} is still {record.status} "
                f"({record.done}/{record.total} done); poll "
                f"{PROTOCOL_PREFIX}/jobs/{job_id} until it is terminal"
            )
        table = self.transport.fetch_results(job_id)
        self._send_json(table_to_wire(table))

    def _cancel(self, job_id: str) -> None:
        self._send_json(self.transport.cancel(job_id).to_wire())

    def _events(self, job_id: str) -> None:
        self.transport.status(job_id)  # 404 before committing to a stream
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Transfer-Encoding", "chunked")
        self.end_headers()
        # from here on the headers are gone: a failure mid-stream must be
        # delivered as an in-band error *line* (the client transport
        # re-raises it), never as a second HTTP response into the body
        try:
            try:
                for event in self._event_ticks(job_id):
                    self._write_chunk(
                        json.dumps(event.to_wire()).encode("utf-8") + b"\n")
            except BrokenPipeError:
                raise
            except Exception as exc:
                self._write_chunk(
                    json.dumps(error_to_wire(exc)).encode("utf-8") + b"\n")
            self._write_chunk(b"")  # terminating zero-length chunk
        except BrokenPipeError:  # pragma: no cover - client went away
            self.close_connection = True

    def _event_ticks(self, job_id: str) -> "Iterator[ProgressEvent]":
        """The stream's event source: status polling that a drain can
        interrupt *immediately*.

        The generic ``Transport.events`` backoff sleeps up to two seconds
        between polls; a draining server cannot afford to sit in that
        sleep with the socket open.  This loop waits on the drain event
        instead of sleeping, so SIGTERM turns into an in-band
        :class:`~repro.utils.errors.ServerShutdownError` line within one
        tick, which the client re-raises typed — never a dead socket.
        """
        draining = self._draining
        seq = 0
        last: tuple | None = None
        for interval in backoff_intervals(0.05, maximum=0.5):
            if draining.is_set():
                raise ServerShutdownError(
                    f"server is draining: event stream for job {job_id} "
                    "terminated; re-attach to the restarted server",
                    retry_after=1.0)
            record = self.transport.status(job_id)
            key = (record.status, record.done, record.failed)
            if key != last:
                last = key
                event = ProgressEvent.from_record(record, seq)
                seq += 1
                yield event
                if event.terminal:
                    return
            elif record.terminal:  # pragma: no cover - raced to terminal
                return
            if draining.wait(timeout=interval):
                continue  # woke early: deliver the drain line now

    def _write_chunk(self, data: bytes) -> None:
        self.wfile.write(f"{len(data):x}\r\n".encode("ascii"))
        if data:
            self.wfile.write(data)
        self.wfile.write(b"\r\n")
        self.wfile.flush()


class SolverHTTPServer:
    """A running solver service bound to ``host:port``.

    Wraps a :class:`ThreadingHTTPServer` (one thread per request, so a
    streaming ``/events`` consumer never blocks a ``/jobs`` poll) around
    any transport.  Usable programmatically (tests bind port 0) or via
    ``repro serve``.
    """

    def __init__(self, transport: Transport, *, host: str = "127.0.0.1",
                 port: int = 0, verbose: bool = False,
                 token: str | None = None,
                 max_inflight: int = DEFAULT_MAX_INFLIGHT,
                 max_queue: int = DEFAULT_MAX_QUEUE,
                 queue_timeout: float = DEFAULT_QUEUE_TIMEOUT) -> None:
        from repro.service import SolverService

        self.transport = transport
        # the synchronous solve fast path: its own single-thread service
        # (the vector core never hops to a pool), shared by all handler
        # threads so concurrent /v1/solve requests coalesce into ticks
        self.solver = SolverService(workers=1, use_threads=True)
        self.admission = AdmissionController(max_inflight=max_inflight,
                                             max_queue=max_queue,
                                             queue_timeout=queue_timeout)
        self.draining = threading.Event()
        self.httpd = ThreadingHTTPServer((host, port), _Handler)
        self.httpd.transport = transport  # type: ignore[attr-defined]
        self.httpd.solver = self.solver  # type: ignore[attr-defined]
        self.httpd.verbose = verbose  # type: ignore[attr-defined]
        self.httpd.token = token or None  # type: ignore[attr-defined]
        self.httpd.admission = self.admission  # type: ignore[attr-defined]
        self.httpd.draining = self.draining  # type: ignore[attr-defined]
        self.httpd.daemon_threads = True
        self._thread: threading.Thread | None = None

    @property
    def host(self) -> str:
        return self.httpd.server_address[0]

    @property
    def port(self) -> int:
        return self.httpd.server_address[1]

    @property
    def url(self) -> str:
        host = self.host
        if ":" in host:  # pragma: no cover - IPv6 literal
            host = f"[{host}]"
        return f"http://{host}:{self.port}"

    def start(self) -> "SolverHTTPServer":
        """Serve on a background thread (for tests and embedding)."""
        self._thread = threading.Thread(target=self.httpd.serve_forever,
                                        name="repro-serve", daemon=True)
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread (the ``repro serve`` foreground)."""
        self.httpd.serve_forever()

    def drain(self, *, grace: float = 0.2) -> None:
        """Enter graceful-drain mode: refuse new work, finish what's in.

        New POSTs get a typed 503 :class:`ServerShutdownError`; live
        ``/events`` streams deliver an in-band error line (their clients
        raise typed, instead of seeing a dead socket); ``grace`` gives
        the streaming handlers a beat to flush those lines.
        """
        self.draining.set()
        if grace > 0:
            time.sleep(grace)

    def shutdown(self) -> None:
        # drain first so live event streams terminate with a typed
        # in-band line instead of being abandoned mid-chunk
        if not self.draining.is_set():
            self.drain()
        self.httpd.shutdown()
        self.httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
        self.solver.shutdown()
        self.transport.close()

    def __enter__(self) -> "SolverHTTPServer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()


def serve(*, host: str = "127.0.0.1", port: int = 8731,
          jobs_dir: str = ".repro-jobs", cache_dir: str | None = None,
          workers: int = 2, use_threads: bool = False,
          verbose: bool = False, token: str | None = None,
          max_inflight: int = DEFAULT_MAX_INFLIGHT,
          max_queue: int = DEFAULT_MAX_QUEUE,
          drain_timeout: float = 30.0) -> int:
    """Run the solver service in the foreground (the ``repro serve`` body).

    Jobs are executed by a :class:`DiskTransport`, so every submission is
    durably recorded under ``jobs_dir`` and survives a server restart as a
    re-attachable record; synchronous ``/v1/solve`` requests coalesce into
    vectorized batch ticks, each tick taking whatever queued while the
    previous one ran.  ``token`` (default: the ``REPRO_TOKEN`` environment
    variable) turns on bearer-token auth for every route but
    ``/v1/healthz``.

    The work routes sit behind bounded admission (``max_inflight`` /
    ``max_queue``; excess load is shed with typed 503s + ``Retry-After``),
    and SIGTERM triggers a **graceful drain**: stop accepting work, send
    live event streams their in-band shutdown line, finish in-flight jobs
    (up to ``drain_timeout`` seconds), then exit.  Returns the process
    exit code.
    """
    if token is None:
        token = os.environ.get("REPRO_TOKEN") or None
    transport = DiskTransport(jobs_dir, cache_dir=cache_dir, workers=workers,
                              use_threads=use_threads)
    try:
        server = SolverHTTPServer(transport, host=host, port=port,
                                  verbose=verbose, token=token,
                                  max_inflight=max_inflight,
                                  max_queue=max_queue)
    except OSError as exc:
        print(f"error: cannot bind {host}:{port}: {exc}", file=sys.stderr)
        return 2

    def _sigterm(_signum, _frame) -> None:
        # refuse new work immediately; stop the accept loop off-thread
        # (BaseServer.shutdown blocks until serve_forever exits, so it
        # must never run on the serving thread itself)
        print("SIGTERM: draining", file=sys.stderr)
        server.draining.set()
        threading.Thread(target=server.httpd.shutdown,
                         name="repro-serve-drain", daemon=True).start()

    previous = None
    try:  # pragma: no branch - signal module is always importable here
        previous = signal.signal(signal.SIGTERM, _sigterm)
    except ValueError:  # pragma: no cover - non-main-thread embedding
        pass
    print(f"repro solver service on {server.url} "
          f"(jobs: {transport.store.directory}, workers: {workers}, "
          f"admission: {max_inflight} in flight / {max_queue} queued, "
          f"auth: {'bearer token' if token else 'open'}); "
          "Ctrl+C to stop", file=sys.stderr)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        server.draining.set()
        print("shutting down", file=sys.stderr)
    finally:
        if server.draining.is_set():
            # graceful path: let in-flight jobs reach a terminal record
            remaining = transport.drain(timeout=drain_timeout)
            if remaining:
                print(f"drain timeout: {remaining} job(s) still running "
                      "(their records stay resumable)", file=sys.stderr)
            else:
                print("drained: all in-flight jobs finished",
                      file=sys.stderr)
        server.httpd.server_close()
        server.solver.shutdown()
        transport.close()
        if previous is not None:  # pragma: no cover - process exits anyway
            signal.signal(signal.SIGTERM, previous)
    return 0
