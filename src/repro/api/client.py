"""The transport-agnostic solver client.

:class:`SolverClient` is the one programmatic surface for submitting
sweeps and following jobs; everything it does is expressed in the typed
envelopes of :mod:`repro.api.protocol` and executed by an interchangeable
:class:`Transport`:

:class:`LocalTransport`
    Wraps an in-process :class:`repro.service.SolverService` pool — the
    fastest path, nothing persisted.
:class:`DiskTransport`
    A durable job queue over :class:`repro.api.jobstore.JobStore`: records
    survive the submitting process, any later process can re-attach by job
    id, and an orphaned (pending or crashed-mid-run) job is *resumed* by
    re-running its stored request through the shared result cache — cells
    that already finished are served warm, only the remainder is solved.
:class:`HTTPTransport`
    Talks the ``/v1`` JSON protocol to a ``repro serve`` backend
    (:mod:`repro.server`), including the chunked progress-event stream.

All polling paths (``results``, ``wait``, ``events``, ``repro attach``)
share one exponential-backoff schedule (:func:`backoff_intervals`) so a
just-submitted job is noticed in milliseconds while a long sweep is polled
a couple of times a minute instead of in a tight loop.

Quickstart
----------
>>> from repro.api import DiskTransport, SolverClient, SweepRequest
>>> client = SolverClient(DiskTransport(".repro-jobs"))      # doctest: +SKIP
>>> record = client.submit(SweepRequest(sizes=(64,)))        # doctest: +SKIP
>>> table = client.results(record.job_id, timeout=300)       # doctest: +SKIP
"""

from __future__ import annotations

import dataclasses
import http.client as httpclient
import json
import os
import random
import socket
import threading
import time
from typing import TYPE_CHECKING, Any, Callable, Iterator, Mapping, Sequence
from urllib import error as urlerror
from urllib import request as urlrequest

from repro.api.jobstore import (
    JobStore,
    new_job_id,
    record_orphaned,
)
from repro.api.protocol import (
    PROTOCOL_PREFIX,
    SCHEMA_VERSION,
    JobRecord,
    ProgressEvent,
    SolveRequest,
    SolveResponse,
    SweepRequest,
    raise_wire_error,
    table_from_wire,
)
from repro.api.rowcodec import decode_rows
from repro.reliability import failpoints
from repro.reliability.policy import (
    DEADLINE_HEADER,
    CircuitBreaker,
    Deadline,
    RetryPolicy,
    current_deadline,
    deadline_scope,
)
from repro.utils.errors import (
    InvalidParameterError,
    JobStateError,
    PollTimeoutError,
    ReproError,
    ServerShutdownError,
    TransientTransportError,
    TransportError,
    UnknownJobError,
)
from repro.utils.tables import Table

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.batch.engine import BatchResult
    from repro.cache import ResultCache
    from repro.core.problem import MinEnergyProblem
    from repro.service import SolverService


#: Jitter fraction of the shared *remote*-polling paths (``wait``,
#: ``events``, the fleet worker's claim loop).  1.0 is AWS-style full
#: jitter: each sleep is uniform over ``(0, interval]``, so a fleet of
#: pollers that started in lockstep decorrelates within one cycle instead
#: of stampeding ``repro serve`` together.
POLL_JITTER = 1.0


def backoff_intervals(initial: float = 0.05, *, factor: float = 1.6,
                      maximum: float = 2.0, jitter: float = 0.0,
                      rng: "random.Random | None" = None) -> Iterator[float]:
    """Yield an unbounded exponential backoff schedule of sleep intervals.

    Starts at ``initial`` seconds and multiplies by ``factor`` until
    ``maximum`` is reached, then stays there — the shared schedule of every
    polling path (``repro submit``/``attach``/``status --watch`` and the
    transports' ``results``), replacing the old fixed-interval tight loop.

    ``jitter`` in ``[0, 1]`` randomises each yielded interval downwards:
    the value is drawn uniformly from ``[cap * (1 - jitter), cap]`` where
    ``cap`` is the deterministic schedule's value, so ``jitter=1.0`` is
    full jitter (uniform over ``(0, cap]``) and ``jitter=0.0`` (the
    default) keeps the exact deterministic schedule.  A fleet of clients
    polling one server should jitter — N workers that wake in the same
    millisecond otherwise stay synchronized forever, hitting the server
    as one thundering herd every cycle.  Pass ``rng`` to make a jittered
    schedule reproducible in tests.
    """
    if initial <= 0:
        raise InvalidParameterError(f"initial poll interval must be > 0, got {initial}")
    if factor < 1.0:
        raise InvalidParameterError(f"backoff factor must be >= 1, got {factor}")
    if not 0.0 <= jitter <= 1.0:
        raise InvalidParameterError(f"jitter must be within [0, 1], got {jitter}")
    if jitter and rng is None:
        rng = random.Random()
    interval = initial
    while True:
        cap = min(interval, maximum)
        yield cap - cap * jitter * rng.random() if jitter else cap
        interval = min(interval * factor, maximum)


# --------------------------------------------------------------------- #
# the synchronous solve fast path (shared by transports and the server)
# --------------------------------------------------------------------- #
def execute_solve(service: "SolverService", request: SolveRequest, *,
                  deadline: "Deadline | None" = None) -> SolveResponse:
    """Run one solve request on a service's coalescing fast path.

    Request-level failures (bad graph, bad model) come back as ``ok=False``
    rows exactly like solve failures, so every transport sees one shape.
    ``deadline`` bounds the solve (the batcher honours it);
    :class:`~repro.utils.errors.DeadlineExceededError` propagates to the
    caller — a spent budget is a request-level refusal, not a row.
    """
    try:
        item = request.to_instance()
    except ReproError as exc:
        return SolveResponse.from_failure(
            exc, name=request.name, n_tasks=request.n_tasks)
    result = service.solve(item, method=request.method, exact=request.exact,
                           options=request.options or None,
                           keep_speeds=request.keep_speeds,
                           validate=request.validate, deadline=deadline)
    return SolveResponse.from_result(result)


def execute_solve_batch(service: "SolverService",
                        requests: "Sequence[SolveRequest | Mapping[str, Any]]",
                        *, keep_speeds: bool = False) -> "list[BatchResult]":
    """Run a request batch: per-instance error capture, one row per
    request, in request order.

    ``requests`` holds :class:`SolveRequest` objects or their wire
    payloads (the decoded ``/v1/solve_batch`` array), walked once.  A
    payload is checked by :meth:`SolveRequest.from_wire`, which packs
    every request the vector core takes as sent straight into one
    :class:`~repro.batch.vectorized.PackedBatch`: those solve in one
    vectorized call.  The other requests make one call per distinct
    parameter set.  A request that fails its checks is a failure row.

    ``keep_speeds`` asks for speed maps on every row; a request's own
    ``keep_speeds`` flag turns them on for just that row.
    """
    from repro.batch.engine import BatchResult
    from repro.batch.vectorized import BatchPacker, batch_key

    rows: list[BatchResult | None] = [None] * len(requests)
    packer = BatchPacker()
    packed: list[int] = []
    groups: dict[tuple, list[tuple[int, Any, SolveRequest]]] = {}
    for i, entry in enumerate(requests):
        try:
            request = entry if isinstance(entry, SolveRequest) \
                else SolveRequest.from_wire(entry, pack=packer)
        except ReproError as exc:  # a bad instance is a row, not a 4xx
            name = str(entry.get("name", "")) if isinstance(entry, dict) \
                else ""
            rows[i] = BatchResult.failure(i, name, 0, type(exc).__name__,
                                          str(exc))
            continue
        if request is None:
            packed.append(i)
            continue
        try:
            item = request.to_instance()
        except ReproError as exc:
            rows[i] = BatchResult.failure(
                i, request.name, request.n_tasks,
                type(exc).__name__, str(exc))
            continue
        key = batch_key(request.method, request.exact, request.options,
                        keep_speeds or request.keep_speeds, request.validate)
        groups.setdefault(key, []).append((i, item, request))
    if packed:
        results = service.solve_many_now(packer.build(),
                                         keep_speeds=keep_speeds)
        for i, result in zip(packed, results):
            result.index = i
            rows[i] = result
    for members in groups.values():
        first = members[0][2]
        results = service.solve_many_now(
            [item for _i, item, _r in members], method=first.method,
            exact=first.exact, options=first.options or None,
            keep_speeds=keep_speeds or first.keep_speeds,
            validate=first.validate)
        for (i, _item, _r), result in zip(members, results):
            result.index = i
            rows[i] = result
    return rows  # type: ignore[return-value]


class Transport:
    """Base transport: the verb surface plus shared polling helpers.

    Subclasses implement ``submit`` / ``status`` / ``fetch_results`` /
    ``cancel`` / ``jobs`` (and may override ``attach``/``events``); the
    base class provides backoff-polled ``wait``, ``results`` and a
    poll-derived ``events`` stream so every transport behaves identically
    from the client's point of view.
    """

    def submit(self, request: SweepRequest) -> JobRecord:
        raise NotImplementedError

    def solve(self, request: SolveRequest) -> SolveResponse:
        """One synchronous solve (no job record); failures are ``ok=False``
        rows, never raised — :meth:`SolverClient.solve` adds the raising."""
        raise NotImplementedError

    def solve_batch(self, requests: Sequence[SolveRequest], *,
                    keep_speeds: bool = False) -> list[SolveResponse]:
        """Solve a request batch in one round-trip / one batch tick."""
        raise NotImplementedError

    def status(self, job_id: str) -> JobRecord:
        raise NotImplementedError

    def fetch_results(self, job_id: str) -> Table:
        """Results of a job already known to be terminal."""
        raise NotImplementedError

    def cancel(self, job_id: str) -> JobRecord:
        raise NotImplementedError

    def jobs(self) -> list[JobRecord]:
        raise NotImplementedError

    def scan_jobs(self) -> tuple[list[JobRecord], list[tuple[str, str]]]:
        """Job listing plus ``(name, reason)`` pairs for unreadable records.

        Backends without a notion of corrupt records (the local pool)
        report an empty skip list; the disk store and the HTTP server
        surface theirs so ``repro jobs --strict`` audits every transport.
        """
        return self.jobs(), []

    def attach(self, job_id: str) -> JobRecord:
        """Re-attach to an existing job (a no-op status check by default;
        the disk transport additionally resumes orphaned work)."""
        return self.status(job_id)

    def close(self) -> None:
        """Release transport resources (pools, sockets)."""

    # ------------------------------------------------------------------ #
    # shared polling
    # ------------------------------------------------------------------ #
    #: Consecutive transient status failures a polling loop rides out
    #: before giving up.  A long-running ``wait`` must survive a server
    #: restart or a dropped connection — one reset killing an hour-long
    #: poll is exactly the bug this bounds — while a server that stays
    #: down still fails with the last typed error instead of hanging.
    POLL_TRANSIENT_TOLERANCE = 5

    def _poll_status(self, job_id: str, failures: list[int]) -> "JobRecord | None":
        """One tolerant status poll: a transient failure increments the
        shared counter and returns ``None`` (skip this tick); success
        resets it; the failure past the tolerance (or any terminal
        transport error) propagates."""
        try:
            record = self.status(job_id)
        except TransientTransportError:
            failures[0] += 1
            if failures[0] > self.POLL_TRANSIENT_TOLERANCE:
                raise
            return None
        failures[0] = 0
        return record

    def wait(self, job_id: str, *, timeout: float | None = None,
             poll_interval: float = 0.05) -> JobRecord:
        """Poll with full-jitter exponential backoff until terminal.

        Transient transport failures (connection resets, an overloaded or
        restarting server) are ridden out up to
        :data:`POLL_TRANSIENT_TOLERANCE` consecutive polls instead of
        killing the wait.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        failures = [0]
        for interval in backoff_intervals(poll_interval, jitter=POLL_JITTER):
            record = self._poll_status(job_id, failures)
            if record is not None and record.terminal:
                return record
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    detail = ("transport errors while polling"
                              if record is None else
                              f"still {record.status} "
                              f"({record.done}/{record.total} done)")
                    raise PollTimeoutError(
                        f"job {job_id}: {detail} after {timeout}s")
                interval = min(interval, remaining)
            time.sleep(interval)
        raise AssertionError("unreachable")  # pragma: no cover

    def results(self, job_id: str, *, timeout: float | None = None,
                poll_interval: float = 0.05) -> Table:
        """Block (with backoff) for completion, then fetch the table."""
        record = self.wait(job_id, timeout=timeout,
                           poll_interval=poll_interval)
        if record.status == "failed":
            raise TransportError(
                f"job {job_id} failed before producing results: "
                f"{record.error or 'unknown error'}"
            )
        return self.fetch_results(job_id)

    def events(self, job_id: str, *, poll_interval: float = 0.05,
               timeout: float | None = None) -> Iterator[ProgressEvent]:
        """Progress events derived from status polling (backoff-paced).

        Emits an event whenever the (status, done, failed) triple changes,
        and always emits the terminal event last.  Transient status
        failures are ridden out like :meth:`wait` does.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        seq = 0
        last: tuple | None = None
        failures = [0]
        for interval in backoff_intervals(poll_interval, jitter=POLL_JITTER):
            record = self._poll_status(job_id, failures)
            if record is not None:
                key = (record.status, record.done, record.failed)
                if key != last:
                    last = key
                    event = ProgressEvent.from_record(record, seq)
                    seq += 1
                    yield event
                    if event.terminal:
                        return
                elif record.terminal:  # pragma: no cover - first poll terminal
                    return
            if deadline is not None and time.monotonic() >= deadline:
                raise PollTimeoutError(
                    f"job {job_id}: event stream timed out after {timeout}s")
            time.sleep(interval)


class SolverClient:
    """Typed facade over one transport — the one client every entry point
    (CLI verbs, tests, user code) goes through.

    Context-manageable: ``with SolverClient(DiskTransport(...)) as c: ...``
    closes the transport (and any pool it owns) on exit.

    Reliability knobs apply uniformly over every transport:
    ``retry_policy`` re-issues verbs that died with a
    :class:`~repro.utils.errors.TransientTransportError` (``submit`` is
    retried only when the failure provably happened before the backend
    acted, so jobs are never duplicated), and ``deadline`` (seconds)
    bounds each verb — propagated to an HTTP backend in the
    ``X-Repro-Deadline`` header, raising
    :class:`~repro.utils.errors.DeadlineExceededError` when spent.
    """

    def __init__(self, transport: Transport, *,
                 retry_policy: "RetryPolicy | None" = None,
                 deadline: float | None = None) -> None:
        self.transport = transport
        self.retry_policy = retry_policy
        if deadline is not None and deadline <= 0:
            raise InvalidParameterError(f"deadline must be > 0 seconds, got {deadline}")
        self.deadline = deadline

    def _invoke(self, fn: Callable[[], Any], *,
                idempotent: bool = True) -> Any:
        """Run one transport verb under the client's policies."""
        deadline = (Deadline.after(self.deadline)
                    if self.deadline is not None else None)
        with deadline_scope(deadline if deadline is not None
                            else current_deadline()):
            if self.retry_policy is None:
                if deadline is not None:
                    deadline.require("request")
                return fn()
            return self.retry_policy.call(fn, idempotent=idempotent,
                                          deadline=deadline)

    def submit(self, request: "SweepRequest | None" = None,
               **grid: Any) -> JobRecord:
        """Submit a sweep request (or build one from keyword arguments)."""
        if request is None:
            request = SweepRequest(**grid)
        elif grid:
            raise InvalidParameterError(
                "pass either a SweepRequest or grid keyword arguments, not both")
        final = request
        return self._invoke(lambda: self.transport.submit(final),
                            idempotent=False)

    @staticmethod
    def _as_request(problem: "MinEnergyProblem | SolveRequest", *,
                    method: str | None, exact: bool | None,
                    options: "dict[str, Any] | None", keep_speeds: bool,
                    validate: bool) -> SolveRequest:
        if isinstance(problem, SolveRequest):
            return problem
        return SolveRequest.from_problem(problem, method=method, exact=exact,
                                         options=options,
                                         keep_speeds=keep_speeds,
                                         validate=validate)

    def solve(self, problem: "MinEnergyProblem | SolveRequest", *,
              method: str | None = None, exact: bool | None = None,
              options: "dict[str, Any] | None" = None,
              keep_speeds: bool = True,
              validate: bool = False) -> SolveResponse:
        """Solve one instance synchronously on whatever backend the
        transport talks to; identical behaviour on every transport.

        Accepts a :class:`~repro.core.problem.MinEnergyProblem` (encoded
        via :meth:`SolveRequest.from_problem`; the keyword knobs apply) or
        a ready-made :class:`SolveRequest` (used as-is).  A captured
        failure re-raises as its typed library exception — use
        :meth:`solve_batch` for the non-raising, row-per-instance flavour.
        """
        request = self._as_request(problem, method=method, exact=exact,
                                   options=options, keep_speeds=keep_speeds,
                                   validate=validate)
        response = self._invoke(lambda: self.transport.solve(request))
        return response.raise_for_error()

    def solve_batch(self, problems: "Sequence[MinEnergyProblem | SolveRequest]",
                    *, method: str | None = None, exact: bool | None = None,
                    options: "dict[str, Any] | None" = None,
                    keep_speeds: bool = False,
                    validate: bool = False) -> list[SolveResponse]:
        """Solve many instances in one round-trip and one batch tick.

        Returns one :class:`SolveResponse` per input, in order; failed
        instances are ``ok=False`` rows (typed ``error_type``), never
        raised, so one bad instance cannot sink the batch.
        """
        requests = [self._as_request(p, method=method, exact=exact,
                                     options=options, keep_speeds=False,
                                     validate=validate) for p in problems]
        return self._invoke(lambda: self.transport.solve_batch(
            requests, keep_speeds=keep_speeds))

    def status(self, job_id: str) -> JobRecord:
        return self._invoke(lambda: self.transport.status(job_id))

    def results(self, job_id: str, *, timeout: float | None = None,
                poll_interval: float = 0.05) -> Table:
        # wait() has its own transient tolerance; the policy layer only
        # scopes the deadline and retries the final table fetch
        deadline = (Deadline.after(self.deadline)
                    if self.deadline is not None else None)
        with deadline_scope(deadline if deadline is not None
                            else current_deadline()):
            if deadline is not None:
                timeout = (deadline.remaining() if timeout is None
                           else min(timeout, deadline.remaining()))
            return self.transport.results(job_id, timeout=timeout,
                                          poll_interval=poll_interval)

    def cancel(self, job_id: str) -> JobRecord:
        return self._invoke(lambda: self.transport.cancel(job_id))

    def jobs(self) -> list[JobRecord]:
        return self._invoke(lambda: self.transport.jobs())

    def scan_jobs(self) -> tuple[list[JobRecord], list[tuple[str, str]]]:
        return self._invoke(lambda: self.transport.scan_jobs())

    def attach(self, job_id: str) -> JobRecord:
        return self._invoke(lambda: self.transport.attach(job_id))

    def wait(self, job_id: str, *, timeout: float | None = None,
             poll_interval: float = 0.05) -> JobRecord:
        return self.transport.wait(job_id, timeout=timeout,
                                   poll_interval=poll_interval)

    def events(self, job_id: str, *, poll_interval: float = 0.05,
               timeout: float | None = None) -> Iterator[ProgressEvent]:
        return self.transport.events(job_id, poll_interval=poll_interval,
                                     timeout=timeout)

    def close(self) -> None:
        self.transport.close()

    def __enter__(self) -> "SolverClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


# --------------------------------------------------------------------- #
# local (in-process) transport
# --------------------------------------------------------------------- #
class LocalTransport(Transport):
    """In-process transport over a :class:`repro.service.SolverService`.

    The service pool may be shared (pass one in) or owned (created lazily
    and shut down by :meth:`close`).  Nothing is persisted: job ids are
    only resolvable inside this process — exactly the old
    ``SolverService`` contract, behind the client protocol.
    """

    def __init__(self, service: "SolverService | None" = None, *,
                 workers: int = 2, use_threads: bool = False,
                 cache: "ResultCache | None" = None) -> None:
        self._service = service
        self._owns_service = service is None
        self._workers = workers
        self._use_threads = use_threads
        self._cache = cache

    def service(self) -> "SolverService":
        if self._service is None:
            from repro.service import SolverService

            self._service = SolverService(workers=self._workers,
                                          use_threads=self._use_threads,
                                          cache=self._cache)
        return self._service

    def submit(self, request: SweepRequest) -> JobRecord:
        handle = self.service().submit_sweep(
            **request.grid_kwargs(), method=request.method,
            exact=request.exact, options=request.options or None,
            name=request.name, shard=request.shard_spec(),
            priors=request.fit_priors())
        return JobRecord.from_handle(handle)

    def solve(self, request: SolveRequest) -> SolveResponse:
        return execute_solve(self.service(), request,
                             deadline=current_deadline())

    def solve_batch(self, requests: Sequence[SolveRequest], *,
                    keep_speeds: bool = False) -> list[SolveResponse]:
        return [SolveResponse.from_result(row) for row in execute_solve_batch(
            self.service(), requests, keep_speeds=keep_speeds)]

    def _handle(self, job_id: str):
        try:
            return self.service().job(job_id)
        except KeyError:
            raise UnknownJobError(
                f"no job {job_id!r} in this process (local jobs do not "
                "survive a restart; use a disk or HTTP transport for that)"
            ) from None

    def status(self, job_id: str) -> JobRecord:
        return JobRecord.from_handle(self._handle(job_id))

    def fetch_results(self, job_id: str) -> Table:
        return self.service().job_table(job_id)

    def cancel(self, job_id: str) -> JobRecord:
        handle = self._handle(job_id)
        handle.cancel()
        return JobRecord.from_handle(handle)

    def jobs(self) -> list[JobRecord]:
        return [JobRecord.from_handle(h) for h in self.service().jobs()]

    def close(self) -> None:
        if self._owns_service and self._service is not None:
            self._service.shutdown()
            self._service = None


# --------------------------------------------------------------------- #
# durable disk transport
# --------------------------------------------------------------------- #
#: Default staleness threshold: a ``running`` record without a lease whose
#: runner heartbeat is older than this is considered orphaned (its process
#: died) and may be resumed on attach.  Override per transport with the
#: ``stale_after=`` constructor argument or the
#: ``REPRO_STALE_RUNNER_SECONDS`` environment variable.
STALE_RUNNER_SECONDS = 10.0

#: Default heartbeat cadence: the runner refreshes its record heartbeat
#: (and renews its lease) at least this often.  Override with the
#: ``heartbeat_seconds=`` constructor argument or ``REPRO_HEARTBEAT_SECONDS``.
#:
#: **Invariant: the lease must outlive the heartbeat** —
#: ``lease_seconds > heartbeat_seconds`` (in practice by >= 2x, the
#: constructor enforces the strict inequality), otherwise a perfectly
#: healthy runner's lease expires between two renewals and another worker
#: "reclaims" a live job.
HEARTBEAT_SECONDS = 2.0


def _env_seconds(name: str, default: float) -> float:
    """A positive seconds value from the environment, else ``default``."""
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        value = float(raw)
    except ValueError:
        raise InvalidParameterError(
            f"{name} must be a number of seconds, got {raw!r}") from None
    if value <= 0:
        raise InvalidParameterError(f"{name} must be > 0 seconds, got {raw!r}")
    return value


def default_worker_id() -> str:
    """The ``host-pid`` worker identity used when none is configured."""
    try:
        host = socket.gethostname() or "localhost"
    except OSError:  # pragma: no cover - exotic resolver failures
        host = "localhost"
    return f"{host}-{os.getpid()}"


class DiskTransport(Transport):
    """Durable jobs over a :class:`~repro.api.jobstore.JobStore`.

    ``submit`` persists the record first and then executes it on a
    background runner (daemon) thread, streaming progress counters into
    the record with atomic replaces; if the process dies mid-job the
    record survives as ``pending``/``running`` and **any later process**
    can :meth:`attach`, which resumes the stored request — with a shared
    ``cache_dir`` the already-finished cells come back as warm hits and
    only the remainder is re-solved.

    Ownership is heartbeat-based: the runner stamps ``runner_pid`` and a
    ``runner_heartbeat`` timestamp into the record every couple of
    seconds, and :meth:`attach` only resumes a ``running`` record whose
    heartbeat has gone stale (:data:`STALE_RUNNER_SECONDS`) — attaching
    to a job that is alive in another process just follows it, it never
    duplicates the execution.

    ``start=False`` submits without executing (the CLI's ``--detach``
    against a plain directory): the record waits on disk until someone
    attaches.

    Ownership timings are configurable per transport: ``stale_after``
    (orphan threshold for legacy no-lease records), ``heartbeat_seconds``
    (progress/renewal cadence) and ``lease_seconds`` (claim duration,
    default ``stale_after``); each falls back to its
    ``REPRO_STALE_RUNNER_SECONDS`` / ``REPRO_HEARTBEAT_SECONDS`` /
    ``REPRO_LEASE_SECONDS`` environment variable before the module
    default.  The constructor enforces the lease-outlives-heartbeat
    invariant (see :data:`HEARTBEAT_SECONDS`).
    """

    def __init__(self, jobs_dir: "str | Any", *,
                 cache_dir: "str | None" = None,
                 cache: "ResultCache | None" = None,
                 workers: int = 2, use_threads: bool = False,
                 stale_after: float | None = None,
                 heartbeat_seconds: float | None = None,
                 lease_seconds: float | None = None,
                 worker_id: str | None = None) -> None:
        self.store = JobStore(jobs_dir)
        self._cache = cache
        # default the cache next to the records so resume-after-crash works
        # out of the box; "cache/" does not match the store's *.json scan.
        # Created lazily so read-only verbs (status, jobs) touch nothing.
        self._cache_dir = cache_dir or str(self.store.directory / "cache")
        self._workers = workers
        self._use_threads = use_threads
        self.stale_after = (stale_after if stale_after is not None else
                            _env_seconds("REPRO_STALE_RUNNER_SECONDS",
                                         STALE_RUNNER_SECONDS))
        self.heartbeat_seconds = (
            heartbeat_seconds if heartbeat_seconds is not None else
            _env_seconds("REPRO_HEARTBEAT_SECONDS", HEARTBEAT_SECONDS))
        self.lease_seconds = (lease_seconds if lease_seconds is not None else
                              _env_seconds("REPRO_LEASE_SECONDS",
                                           self.stale_after))
        for name, value in (("stale_after", self.stale_after),
                            ("heartbeat_seconds", self.heartbeat_seconds),
                            ("lease_seconds", self.lease_seconds)):
            if value <= 0:
                raise InvalidParameterError(f"{name} must be > 0, got {value}")
        if self.lease_seconds <= self.heartbeat_seconds:
            raise InvalidParameterError(
                f"lease_seconds ({self.lease_seconds}) must exceed "
                f"heartbeat_seconds ({self.heartbeat_seconds}): a lease "
                "shorter than the renewal cadence expires under a healthy "
                "runner and invites spurious reclaims"
            )
        self.worker_id = worker_id or default_worker_id()
        self._runners: dict[str, threading.Thread] = {}
        self._lock = threading.Lock()
        self._solve_service: "SolverService | None" = None
        # a small fixed policy around every job-store write: a transient
        # write failure (flaky filesystem, injected fault) must not turn
        # into a "failed" record or a lost heartbeat.  JobStateError is
        # not transient and still propagates immediately.
        self._store_retry = RetryPolicy(retries=4, initial=0.01,
                                        maximum=0.1, jitter=0.0)

    @property
    def cache(self) -> "ResultCache":
        if self._cache is None:
            from repro.cache import disk_cache

            self._cache = disk_cache(self._cache_dir)
        return self._cache

    def submit(self, request: SweepRequest, *, start: bool = True) -> JobRecord:
        job_id = new_job_id()  # fixed across write retries: no duplicates
        record = self._store_retry.call(
            lambda: self.store.create(request, job_id=job_id),
            idempotent=True)  # job_id is fixed, so re-create cannot duplicate
        if start:
            self._start_runner(record["job_id"], request)
        return JobRecord.from_wire(record)

    def status(self, job_id: str) -> JobRecord:
        return self.store.record(job_id)

    def fetch_results(self, job_id: str) -> Table:
        payload = self.store.load(job_id)
        columns = payload.get("columns")
        if not isinstance(columns, list):
            from repro.batch.sweep import SWEEP_COLUMNS

            # cancelled before anything ran: an empty sweep-shaped table
            return Table(columns=list(SWEEP_COLUMNS),
                         title=f"job {payload.get('name') or job_id}")
        table = Table(columns=[str(c) for c in columns],
                      rows=[list(r) for r in payload.get("rows") or []],
                      title=str(payload.get("title") or f"job {job_id}"))
        manifest = payload.get("manifest")
        if isinstance(manifest, dict):
            table.manifest = manifest
        return table

    def cancel(self, job_id: str) -> JobRecord:
        payload = self.store.load(job_id)
        status = payload.get("status")
        if status in ("done", "cancelled", "failed"):
            return JobRecord.from_wire(payload)  # terminal: nothing to do
        with self._lock:
            live = job_id in self._runners
        try:
            if live or not record_orphaned(payload,
                                           stale_after=self.stale_after):
                # a runner (here or elsewhere) owns the record; it observes
                # the flag at its next progress tick, cancels the pool
                # futures and transitions
                self.store.update(job_id, cancel_requested=True)
            else:
                self.store.transition(job_id, "cancelled")
        except JobStateError:
            pass  # the job reached a terminal state while we decided
        return self.store.record(job_id)

    def jobs(self) -> list[JobRecord]:
        return self.scan_jobs()[0]

    def scan_jobs(self) -> tuple[list[JobRecord], list[tuple[str, str]]]:
        records, skipped = self.store.scan()
        return [JobRecord.from_wire(r) for r in records], skipped

    def attach(self, job_id: str) -> JobRecord:
        """Re-attach by id; resume the stored request if it is orphaned.

        A ``pending`` record (detached submit, or a submitter that died
        before starting) is started; a ``running`` record is resumed only
        when no runner in this process owns it **and** its lease has
        expired (legacy records: stale heartbeat) — a live lease means
        another process is executing the job, and attaching must follow
        it, not fork a duplicate run.  The runner claims through
        :meth:`JobStore.claim`, so even two processes attaching the same
        orphan in the same instant resolve to one execution.  Resuming is
        idempotent through the result cache: finished cells are warm hits.
        """
        payload = self.store.load(job_id)
        status = payload.get("status")
        with self._lock:
            live = job_id in self._runners
        if not live and (
                status == "pending"
                or (status == "running"
                    and record_orphaned(payload,
                                        stale_after=self.stale_after))):
            self._start_runner(job_id, self.store.request(job_id))
        return self.store.record(job_id)

    def _solver(self) -> "SolverService":
        """The lazy in-process service behind ``solve``/``solve_batch``.

        Synchronous solves never touch the job store — they ride the
        vectorized fast path of a private single-thread service (the solve
        path never hops to the pool anyway).
        """
        with self._lock:
            if self._solve_service is None:
                from repro.service import SolverService

                self._solve_service = SolverService(workers=1,
                                                    use_threads=True)
            return self._solve_service

    def solve(self, request: SolveRequest) -> SolveResponse:
        return execute_solve(self._solver(), request,
                             deadline=current_deadline())

    def solve_batch(self, requests: Sequence[SolveRequest], *,
                    keep_speeds: bool = False) -> list[SolveResponse]:
        return [SolveResponse.from_result(row) for row in execute_solve_batch(
            self._solver(), requests, keep_speeds=keep_speeds)]

    def drain(self, *, timeout: float | None = None) -> int:
        """Wait for the in-flight runner threads to finish their jobs.

        The graceful-shutdown half of the transport: ``repro serve``
        calls it on SIGTERM so accepted jobs reach a terminal record
        before the process exits.  Returns the number of runners still
        alive when ``timeout`` ran out (0 = fully drained).
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            runners = list(self._runners.values())
        still_alive = 0
        for thread in runners:
            wait = (None if deadline is None
                    else max(0.0, deadline - time.monotonic()))
            thread.join(timeout=wait)
            if thread.is_alive():
                still_alive += 1
        return still_alive

    def close(self) -> None:
        with self._lock:
            runners = list(self._runners.values())
            solver, self._solve_service = self._solve_service, None
        if solver is not None:
            solver.shutdown()
        for thread in runners:
            thread.join(timeout=0.1)

    # ------------------------------------------------------------------ #
    # the runner
    # ------------------------------------------------------------------ #
    def _start_runner(self, job_id: str, request: SweepRequest) -> None:
        thread = threading.Thread(target=self._run, args=(job_id, request),
                                  name=f"repro-job-{job_id}", daemon=True)
        with self._lock:
            self._runners[job_id] = thread
        thread.start()

    def _run(self, job_id: str, request: SweepRequest) -> None:
        """Thread target: claim the record, then execute it to a terminal
        state.  Losing the claim (another worker owns a live lease, or a
        merge job's dependencies are not terminal yet) is not an error —
        the record belongs to someone else and this runner walks away.
        """
        try:
            try:
                self._store_retry.call(lambda: self.store.claim(
                    job_id, self.worker_id, self.lease_seconds),
                    idempotent=True)  # claim is keyed by worker_id: replayable
            except JobStateError:
                return
            self.run_claimed(job_id, request)
        finally:
            with self._lock:
                self._runners.pop(job_id, None)

    def run_claimed(self, job_id: str, request: SweepRequest, *,
                    should_stop: "Callable[[], bool] | None" = None) -> str:
        """Execute a record this worker has already claimed; return the
        final status (``done`` / ``cancelled`` / ``failed`` /
        ``released`` / ``lost``).

        The shared execution body of the transport's runner threads and
        the ``repro work`` fleet loop.  Progress writes renew the lease
        (heartbeat == renewal, one atomic write); ``should_stop`` is the
        worker's shutdown flag — when it flips, the in-flight instances
        are cancelled and the record is *released* back to ``pending`` so
        any other worker picks it up immediately.  A ``JobStateError``
        from a conditional write means the lease was lost to another
        claimer: execution is abandoned without touching the record
        (``lost``), so two live lease holders never both write rows.
        """
        from repro.service import SolverService

        if self.store.load(job_id).get("job_type") == "merge":
            from repro.fleet.submit import execute_merge_job

            return execute_merge_job(self.store, job_id,
                                     worker_id=self.worker_id)
        try:
            with SolverService(workers=self._workers,
                               use_threads=self._use_threads,
                               cache=self.cache) as service:
                handle = service.submit_sweep(
                    **request.grid_kwargs(), method=request.method,
                    exact=request.exact, options=request.options or None,
                    name=request.name or job_id, shard=request.shard_spec(),
                    priors=request.fit_priors())
                self._store_retry.call(lambda: self.store.update(
                    job_id, expected_worker=self.worker_id,
                    total=handle.total,
                    grid_fingerprint=handle.fingerprint,
                    params=dict(handle.params)))
                outcome = self._poll_to_completion(job_id, handle,
                                                   should_stop=should_stop)
                if outcome == "released":
                    handle.cancel()
                    self._store_retry.call(
                        lambda: self.store.release(job_id, self.worker_id))
                    return "released"
                table = service.job_table(handle.job_id, timeout=60)
            progress = handle.progress()
            status = "cancelled" if outcome == "cancelled" else "done"
            self._store_retry.call(lambda: self.store.transition(
                job_id, status, expected_worker=self.worker_id,
                done=progress.done, failed=progress.failed,
                cache_hits=progress.cache_hits,
                title=table.title, columns=list(table.columns),
                rows=[list(row) for row in table.rows],
                manifest=getattr(table, "manifest", None)))
            return status
        except JobStateError:
            # the lease was lost (reclaimed after an expiry) or the record
            # was force-transitioned externally: never write over the new
            # owner's work
            return "lost"
        except Exception as exc:  # the record must reflect the blow-up
            try:
                self._store_retry.call(lambda: self.store.transition(
                    job_id, "failed", expected_worker=self.worker_id,
                    error=f"{type(exc).__name__}: {exc}"))
            except (JobStateError, TransientTransportError):
                pass  # cancel/reclaim raced us, or the store stayed down
            return "failed"

    def _poll_to_completion(self, job_id: str, handle, *,
                            should_stop: "Callable[[], bool] | None" = None
                            ) -> str:
        """Mirror live progress into the record; honour cancel requests.

        Besides the counters, every write renews the lease and refreshes
        the runner heartbeat in one atomic :meth:`JobStore.renew_lease`
        (and one is forced at least every ``heartbeat_seconds``), so
        observers can tell this job is owned by a live process and the
        lease never lapses under a healthy runner.  A
        :class:`JobStateError` from the store means the lease was lost or
        another process force-transitioned the record (external cancel) —
        it propagates, the service context manager cancels the pending
        pool futures.  Returns ``"done"``, ``"cancelled"`` or
        ``"released"`` (``should_stop`` flipped mid-run).
        """
        cancelled = False
        last: tuple | None = None
        last_beat = 0.0
        missed_beats = 0
        # how many consecutive beats may fail before the lease itself is
        # at risk (never fewer than 1: one missed beat is always
        # survivable because the lease outlives the heartbeat cadence)
        max_missed = max(1, int(self.lease_seconds
                                / self.heartbeat_seconds) - 1)
        for interval in backoff_intervals(0.02, maximum=0.5):
            if should_stop is not None and should_stop():
                return "released"
            progress = handle.progress()
            key = (progress.done, progress.failed, progress.cache_hits)
            now = time.time()
            if key != last or now - last_beat >= self.heartbeat_seconds:
                try:
                    failpoints.fire("worker.heartbeat", job_id=job_id,
                                    worker=self.worker_id)
                    self.store.renew_lease(job_id, self.worker_id,
                                           self.lease_seconds,
                                           done=progress.done,
                                           failed=progress.failed,
                                           cache_hits=progress.cache_hits)
                except TransientTransportError:
                    # a flaky store (or an armed worker.heartbeat
                    # failpoint) skips this beat; the next tick retries
                    missed_beats += 1
                    if missed_beats > max_missed:
                        raise
                else:
                    missed_beats = 0
                    last = key
                    last_beat = now
            if handle.done():
                return "cancelled" if cancelled else "done"
            if not cancelled:
                try:
                    payload = self.store.load(job_id)
                except TransientTransportError:
                    payload = None  # check again next tick
                if payload is not None and payload.get("cancel_requested"):
                    handle.cancel()
                    cancelled = True
            time.sleep(interval)
        raise AssertionError("unreachable")  # pragma: no cover


# --------------------------------------------------------------------- #
# HTTP transport
# --------------------------------------------------------------------- #
class HTTPTransport(Transport):
    """Client of the ``repro serve`` HTTP backend (:mod:`repro.server`).

    Speaks the ``/v1`` JSON protocol with stdlib ``urllib`` only.  Typed
    error bodies re-raise as their library exception classes
    (:class:`UnknownJobError` for 404s, :class:`SchemaVersionError` for
    version mismatches, ...).  ``events`` consumes the server's chunked
    ndjson stream instead of polling.

    Connection-level failures are *classified*: resets, timeouts,
    refused connections and garbled bodies raise
    :class:`~repro.utils.errors.TransientTransportError` (refused
    connections additionally carry ``maybe_executed=False`` — the server
    provably never saw the request), everything else stays a terminal
    :class:`TransportError`.  ``retry_policy`` (default: 2 retries,
    ``REPRO_RETRIES`` overrides) re-issues idempotent calls on transient
    failures; a job submission is retried only when the failure was
    provably pre-execution.  ``breaker`` fails fast with
    :class:`~repro.utils.errors.CircuitOpenError` once the backend has
    refused enough consecutive connections.  An ambient
    :func:`~repro.reliability.deadline_scope` deadline is stamped onto
    every request as the ``X-Repro-Deadline`` header.
    """

    def __init__(self, base_url: str, *, timeout: float = 30.0,
                 token: str | None = None,
                 retry_policy: "RetryPolicy | None" = None,
                 breaker: "CircuitBreaker | None" = None) -> None:
        if not base_url.startswith(("http://", "https://")):
            raise TransportError(
                f"HTTP transport needs an http(s):// URL, got {base_url!r}")
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        # bearer token for a --token'd server; defaults from REPRO_TOKEN so
        # every CLI verb inherits auth without per-command plumbing
        self.token = token if token is not None else (
            os.environ.get("REPRO_TOKEN") or None)
        self.retry_policy = (retry_policy if retry_policy is not None
                             else RetryPolicy.from_env(default_retries=2,
                                                       maximum=1.0))
        self.breaker = breaker if breaker is not None else CircuitBreaker()

    def _url(self, path: str) -> str:
        return f"{self.base_url}{PROTOCOL_PREFIX}{path}"

    def _headers(self) -> dict[str, str]:
        headers = {"Content-Type": "application/json"}
        if self.token:
            headers["Authorization"] = f"Bearer {self.token}"
        deadline = current_deadline()
        if deadline is not None:
            headers[DEADLINE_HEADER] = deadline.to_header()
        return headers

    def _classify_urlerror(self, exc: urlerror.URLError) -> TransportError:
        """A typed, retryability-classified error for a connection failure."""
        reason = exc.reason
        if isinstance(reason, ConnectionRefusedError) or (
                isinstance(reason, OSError)
                and reason.errno in (111, 61)):  # ECONNREFUSED linux/mac
            # the server never accepted the connection: provably
            # pre-execution, so even a submission may retry
            error = TransientTransportError(
                f"cannot reach {self.base_url}: connection refused")
            error.maybe_executed = False
            return error
        if isinstance(reason, (ConnectionError, socket.timeout, TimeoutError,
                               OSError)):
            return TransientTransportError(
                f"cannot reach {self.base_url}: {reason}")
        return TransportError(f"cannot reach {self.base_url}: {reason}")

    def _call(self, method: str, path: str, *, body: dict | None = None,
              idempotent: bool = True) -> Any:
        """One request under the transport's policies: circuit breaker,
        failure classification, and transient-failure retries."""
        return self.retry_policy.call(
            lambda: self._call_once(method, path, body=body),
            idempotent=idempotent, deadline=current_deadline())

    def _call_once(self, method: str, path: str, *,
                   body: dict | None = None) -> Any:
        self.breaker.allow(what=f"{method} {path}")
        # "garbage" asks us to corrupt the response body we are about to
        # read; "raise" and "latency" act inside fire() itself
        action = failpoints.fire("http.request", method=method, path=path)
        data = None if body is None else json.dumps(body).encode("utf-8")
        req = urlrequest.Request(self._url(path), data=data, method=method,
                                 headers=self._headers())
        try:
            with urlrequest.urlopen(req, timeout=self.timeout) as resp:
                raw = resp.read()
        except urlerror.HTTPError as exc:
            # the server answered: the backend is alive
            self.breaker.record_success()
            self._raise_http_error(exc)
        except urlerror.URLError as exc:
            error = self._classify_urlerror(exc)
            if isinstance(error, TransientTransportError):
                self.breaker.record_failure()
            raise error from exc
        except (socket.timeout, TimeoutError, ConnectionError,
                httpclient.HTTPException, OSError) as exc:
            # died mid-exchange (reset, truncated chunk, socket timeout):
            # the request may have executed, but it is safe to retry reads
            self.breaker.record_failure()
            raise TransientTransportError(
                f"request to {self.base_url} broke: {exc}") from exc
        self.breaker.record_success()
        if action == "garbage":
            raw = b"\xffgarbage\xff" + raw[: len(raw) // 3]
        try:
            return json.loads(raw.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            # a truncated/garbled body reads as a transient wire glitch,
            # not a protocol violation: the next attempt usually parses
            raise TransientTransportError(
                f"{self.base_url} returned a garbled body: {exc}") from exc

    @staticmethod
    def _raise_http_error(exc: urlerror.HTTPError) -> None:
        try:
            payload = json.loads(exc.read().decode("utf-8"))
        except Exception:
            raise TransportError(
                f"HTTP {exc.code} from {exc.url} (no typed error body)"
            ) from exc
        raise_wire_error(payload, fallback=f"HTTP {exc.code} from {exc.url}")

    def submit(self, request: SweepRequest) -> JobRecord:
        return JobRecord.from_wire(
            self._call("POST", "/jobs", body=request.to_wire(),
                       idempotent=False))

    def solve(self, request: SolveRequest) -> SolveResponse:
        return SolveResponse.from_wire(
            self._call("POST", "/solve", body=request.to_wire()))

    def solve_batch(self, requests: Sequence[SolveRequest], *,
                    keep_speeds: bool = False) -> list[SolveResponse]:
        frame = self._call("POST", "/solve_batch", body={
            "schema_version": SCHEMA_VERSION,
            "requests": [r.to_wire() for r in requests],
            "keep_speeds": bool(keep_speeds),
        })
        # reattach task names from our own request graphs: the server
        # preserved each instance's task order, so names never travel
        task_names = [list((r.graph.get("tasks") or {}).keys())
                      for r in requests]
        rows = decode_rows(frame, task_names=task_names)
        if len(rows) != len(requests):
            raise TransportError(
                f"batch response carries {len(rows)} rows for "
                f"{len(requests)} requests")
        return rows

    def status(self, job_id: str) -> JobRecord:
        return JobRecord.from_wire(self._call("GET", f"/jobs/{job_id}"))

    def fetch_results(self, job_id: str) -> Table:
        return table_from_wire(self._call("GET", f"/jobs/{job_id}/results"))

    def cancel(self, job_id: str) -> JobRecord:
        return JobRecord.from_wire(
            self._call("POST", f"/jobs/{job_id}/cancel"))

    def jobs(self) -> list[JobRecord]:
        return self.scan_jobs()[0]

    def scan_jobs(self) -> tuple[list[JobRecord], list[tuple[str, str]]]:
        payload = self._call("GET", "/jobs")
        if not isinstance(payload, dict) or "jobs" not in payload:
            raise TransportError("malformed job listing from the server")
        skipped = [(str(name), str(reason))
                   for name, reason in payload.get("skipped") or []]
        return [JobRecord.from_wire(r) for r in payload["jobs"]], skipped

    def events(self, job_id: str, *, poll_interval: float = 0.05,
               timeout: float | None = None) -> Iterator[ProgressEvent]:
        """Consume the server's chunked ndjson progress stream.

        A *transient* break (connection reset mid-stream, an armed
        ``http.stream`` failpoint) reconnects — up to the retry policy's
        attempt count — deduplicating the fresh connection's leading
        snapshot event and renumbering ``seq`` continuously, so the
        consumer sees one uninterrupted stream.  Typed in-band errors
        from the server (a draining server's
        :class:`~repro.utils.errors.ServerShutdownError` line) propagate
        as their exception class, never as a silent truncation.
        """
        stream_timeout = timeout if timeout is not None else 3600.0
        seq = 0
        last_key: tuple | None = None
        breaks = 0
        max_breaks = max(1, self.retry_policy.retries)
        while True:
            try:
                resp = self._open_stream(job_id, stream_timeout)
                with resp:
                    while True:
                        failpoints.fire("http.stream", job_id=job_id)
                        try:
                            raw = resp.readline()
                        except (OSError,
                                httpclient.HTTPException) as exc:
                            # the server died or the socket timed out
                            # mid-stream: typed, and retryable
                            raise TransientTransportError(
                                f"event stream from {self.base_url} "
                                f"broke: {exc}") from exc
                        if not raw:
                            return
                        line = raw.strip()
                        if not line:
                            continue
                        try:
                            payload = json.loads(line.decode("utf-8"))
                        except (ValueError, UnicodeDecodeError) as exc:
                            raise TransientTransportError(
                                f"malformed event-stream line: "
                                f"{line[:120]!r}") from exc
                        if isinstance(payload, dict) and "error" in payload:
                            raise_wire_error(payload)
                        event = ProgressEvent.from_wire(payload)
                        key = (event.status, event.done, event.failed)
                        if key == last_key:
                            continue  # reconnect replayed the snapshot
                        last_key = key
                        event = dataclasses.replace(event, seq=seq)
                        seq += 1
                        yield event
                        if event.terminal:
                            return
            except TransientTransportError as exc:
                if isinstance(exc, ServerShutdownError):
                    # the server's typed in-band drain line is the
                    # contract (satellite of the drain behaviour): the
                    # consumer must see it, not a quiet reconnect loop
                    raise
                breaks += 1
                if breaks > max_breaks:
                    raise
                time.sleep(min(0.05 * breaks, 0.5))

    def _open_stream(self, job_id: str, stream_timeout: float):
        """Open the chunked event stream (typed connection errors)."""
        req = urlrequest.Request(self._url(f"/jobs/{job_id}/events"),
                                 headers=self._headers())
        try:
            return urlrequest.urlopen(req, timeout=stream_timeout)
        except urlerror.HTTPError as exc:
            self._raise_http_error(exc)
            raise AssertionError("unreachable")  # pragma: no cover
        except urlerror.URLError as exc:
            raise self._classify_urlerror(exc) from exc
