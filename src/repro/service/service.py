"""The asynchronous solver-service front-end.

:class:`SolverService` turns the batch layer into a job queue: clients
submit a list of problems (or a sweep grid) and get a
:class:`~repro.service.jobs.JobHandle` back immediately; instances run on a
process pool (or a thread pool for in-process testing), failures are
captured per instance, and completion can be polled, blocked on, or
awaited.  Submissions flow through the same registry dispatch and
content-addressed cache as direct :func:`repro.solve.solve` calls, so a
warm cache answers repeated grids without touching the pool at all.

Quickstart
----------
>>> from repro.service import SolverService
>>> with SolverService(workers=4) as service:            # doctest: +SKIP
...     handle = service.submit_sweep(graph_classes=("chain",), sizes=(64,),
...                                   slacks=(1.2, 2.0), repetitions=3)
...     print(handle.status(), handle.progress().fraction)
...     rows = handle.results(timeout=120)               # or: await handle
"""

from __future__ import annotations

import itertools
import threading
import uuid
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import TYPE_CHECKING, Any, Mapping, Sequence

from repro.batch.engine import BatchResult, _preresolve, fan_out, work_items
from repro.batch.shard import ShardSpec
from repro.batch.sweep import plan_sweep, sweep_table
from repro.batch.vectorized import (
    VECTORIZE_MAX_TASKS, PackedBatch, WireInstance, solve_batch)
from repro.core.problem import MinEnergyProblem
from repro.service.batcher import MicroBatcher
from repro.service.jobs import JobHandle, JobStatus
from repro.utils.tables import Table
from repro.utils.errors import InvalidParameterError, ShutdownError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cache import ResultCache
    from repro.reliability.policy import Deadline


class SolverService:
    """A concurrent solve-job front-end over the process pool.

    Parameters
    ----------
    workers:
        Worker processes of the underlying pool (default 2).
    use_threads:
        Run instances on a thread pool instead (no pickling, shared memory);
        useful for tests and for serving from an environment where
        subprocesses are unwelcome.  NumPy/SciPy release the GIL in the
        heavy kernels, so threads still overlap useful work.
    cache:
        Optional :class:`repro.cache.ResultCache` consulted at submission
        time (hits never reach the pool) and populated as instances finish.

    Every job's solutions are re-checked with
    :func:`repro.core.validation.check_solution` in the worker, and its
    rows carry no speed maps.  The synchronous solve fast path
    (:meth:`solve` / :meth:`solve_many_now`) runs on a
    :class:`~repro.service.batcher.MicroBatcher` instead of the pool.
    """

    def __init__(self, *, workers: int = 2, use_threads: bool = False,
                 cache: "ResultCache | None" = None) -> None:
        if workers < 1:
            raise InvalidParameterError(f"workers must be >= 1, got {workers}")
        self.cache = cache
        if use_threads:
            self._pool: Any = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="repro-service")
        else:
            self._pool = ProcessPoolExecutor(max_workers=workers)
        self._jobs: dict[str, JobHandle] = {}
        self._lock = threading.Lock()
        self._counter = itertools.count(1)
        self._closed = False
        self._batcher: MicroBatcher | None = None

    # ------------------------------------------------------------------ #
    # submission
    # ------------------------------------------------------------------ #
    def submit(self, work: "Sequence[MinEnergyProblem] | Mapping[str, Any]", *,
               method: str | None = None, exact: bool | None = None,
               options: dict[str, Any] | None = None,
               seeds: Sequence[int | None] | None = None,
               name: str = "") -> JobHandle:
        """Submit problems (or a sweep-grid mapping) and return immediately.

        ``work`` is either a sequence of :class:`MinEnergyProblem` or a
        mapping of :func:`repro.batch.build_sweep_problems` keyword
        arguments (``{"graph_classes": ..., "sizes": ..., ...}``), which is
        expanded exactly like :func:`repro.batch.sweep` and additionally
        attaches the grid coordinates to the handle for table rendering.
        """
        if isinstance(work, Mapping):
            if seeds is not None:
                raise InvalidParameterError(
                    "seeds cannot be combined with a sweep-grid mapping: the "
                    "grid derives one seed per cell from its base seed"
                )
            reserved = {"method", "exact", "options", "name"} & set(work)
            if reserved:
                raise InvalidParameterError(
                    f"grid mapping must not contain {sorted(reserved)}; pass "
                    "them as keyword arguments of submit() instead"
                )
            return self.submit_sweep(**dict(work), method=method, exact=exact,
                                     options=options, name=name)
        return self._submit_problems(list(work), method=method, exact=exact,
                                     options=options, seeds=seeds, name=name,
                                     coords=None, params={"kind": "problems"})

    def submit_sweep(self, *, method: str | None = None,
                     exact: bool | None = None,
                     options: dict[str, Any] | None = None,
                     name: str = "",
                     shard: "ShardSpec | str | None" = None,
                     priors: Any = None,
                     **grid: Any) -> JobHandle:
        """Expand a sweep grid and submit every cell as one job.

        ``shard`` (a :class:`~repro.batch.shard.ShardSpec` or its ``"I/N"``
        spelling) submits only that deterministic slice of the grid — the
        service-side counterpart of ``repro sweep --shard``.  The handle
        carries the grid fingerprint and shard identity, so
        :meth:`job_table` emits rows mergeable with the other shards' dumps.
        """
        plan = plan_sweep(shard=shard, method=method, exact=exact,
                          priors=priors, **grid)
        params = {"kind": "sweep", **{k: repr(v) for k, v in sorted(grid.items())}}
        if plan.shard is not None:
            params["shard"] = plan.shard.spelling
            params["shard_strategy"] = plan.shard.strategy
        params["grid_fingerprint"] = plan.fingerprint
        return self._submit_problems(
            plan.problems, method=method, exact=exact, options=options,
            seeds=[coord[-1] for coord in plan.coords], name=name,
            coords=plan.coords, params=params, shard=plan.shard,
            fingerprint=plan.fingerprint, manifest=plan.manifest())

    def _submit_problems(self, problems: list[MinEnergyProblem], *,
                         method: str | None, exact: bool | None,
                         options: dict[str, Any] | None,
                         seeds: Sequence[int | None] | None,
                         name: str, coords: Sequence[tuple] | None,
                         params: dict[str, Any],
                         shard: ShardSpec | None = None,
                         fingerprint: str = "",
                         manifest: dict[str, Any] | None = None) -> JobHandle:
        items = work_items(problems, method=method, exact=exact,
                           validate=True, keep_speeds=False, options=options,
                           seeds=seeds, want_envelope=self.cache is not None)
        preresolved, pending, keys = _preresolve(items, self.cache)
        job_id = f"job-{next(self._counter)}-{uuid.uuid4().hex[:8]}"
        with self._lock:
            # shutdown() flips _closed under this lock before it shuts the
            # pool down, so every submit below reaches a live pool
            if self._closed:
                raise ShutdownError("SolverService is shut down")
            futures = fan_out(self._pool, pending, keys, self.cache)
            handle = JobHandle(
                job_id, name=name, futures=list(futures.values()),
                future_indices=list(futures), preresolved=preresolved,
                total=len(problems), coords=coords, params=params,
                instance_meta=[(p.name, p.n_tasks) for p in problems],
                seeds=seeds, shard=shard, fingerprint=fingerprint,
                manifest=manifest)
            self._jobs[job_id] = handle
        return handle

    # ------------------------------------------------------------------ #
    # synchronous solves (micro-batched fast path)
    # ------------------------------------------------------------------ #
    def batcher(self) -> MicroBatcher:
        """The lazily started micro-batcher behind :meth:`solve`."""
        with self._lock:
            if self._closed:
                raise ShutdownError("SolverService is shut down")
            if self._batcher is None:
                self._batcher = MicroBatcher()
            return self._batcher

    def solve(self, item: "MinEnergyProblem | WireInstance", *,
              method: str | None = None, exact: bool | None = None,
              options: dict[str, Any] | None = None,
              keep_speeds: bool = False, validate: bool = False,
              timeout: float | None = None,
              deadline: "Deadline | None" = None) -> BatchResult:
        """Solve one instance synchronously, coalescing with concurrent calls.

        ``item`` is a problem or the
        :class:`~repro.batch.vectorized.WireInstance` of a request
        (:meth:`repro.api.protocol.SolveRequest.to_instance`).  Small
        instances queue on the micro-batcher and ride its next
        vectorized tick together with whatever else is queued by then
        (at once when it is idle); large ones solve immediately in the
        calling thread — no job record, no cache, no pool hop either way.
        Failures come back as ``ok=False`` rows, never as raised
        exceptions (use :meth:`repro.api.SolverClient.solve` for the
        raising flavour).  ``deadline`` (a
        :class:`repro.reliability.Deadline`) bounds the wait, and a
        request whose deadline expired before its tick raises
        :class:`~repro.utils.errors.DeadlineExceededError` instead of
        solving.
        """
        if deadline is not None:
            deadline.require("solve")
        n_tasks = item.n_tasks
        if n_tasks > VECTORIZE_MAX_TASKS:
            return solve_batch([item], method=method, exact=exact,
                               options=options, keep_speeds=keep_speeds,
                               validate=validate)[0]
        return self.batcher().solve(
            item, method=method, exact=exact, options=options,
            keep_speeds=keep_speeds, validate=validate, timeout=timeout,
            deadline=deadline)

    def solve_many_now(
            self, items: PackedBatch | Sequence[MinEnergyProblem | WireInstance],
            *, method: str | None = None, exact: bool | None = None,
            options: dict[str, Any] | None = None, keep_speeds: bool = False,
            validate: bool = False) -> list[BatchResult]:
        """Solve a pre-assembled batch in one vectorized call (one tick).

        The transport-level twin of :func:`repro.batch.solve_many` for
        callers that already hold all their instances — problems and
        wire instances, or a :class:`~repro.batch.vectorized.PackedBatch`
        decoded straight from the wire: executes immediately in the calling
        thread and records one occupancy-``len(items)`` tick in
        :meth:`batch_stats`.
        """
        results = solve_batch(items, method=method, exact=exact,
                              options=options, keep_speeds=keep_speeds,
                              validate=validate)
        self.batcher().record_direct(len(items))
        return results

    def batch_stats(self) -> dict[str, Any]:
        """Coalescing statistics of the solve fast path."""
        with self._lock:
            if self._batcher is None:
                return {"ticks": 0, "submitted": 0, "direct_batches": 0,
                        "occupancy": {}, "mean_occupancy": 0.0,
                        "max_occupancy": 0}
        return self._batcher.stats()

    # ------------------------------------------------------------------ #
    # job book-keeping
    # ------------------------------------------------------------------ #
    def job(self, job_id: str) -> JobHandle:
        """Look a job up by id (raises ``KeyError`` for unknown ids)."""
        with self._lock:
            return self._jobs[job_id]

    def jobs(self) -> list[JobHandle]:
        """All jobs of this service, in submission order."""
        with self._lock:
            return list(self._jobs.values())

    def status(self, job_id: str) -> JobStatus:
        """Status of one job."""
        return self.job(job_id).status()

    def results(self, job_id: str, timeout: float | None = None):
        """Block for one job's results (see :meth:`JobHandle.results`)."""
        return self.job(job_id).results(timeout=timeout)

    def cancel(self, job_id: str) -> int:
        """Cancel a job's not-yet-started instances."""
        return self.job(job_id).cancel()

    def job_table(self, job_id: str, *, timeout: float | None = None) -> Table:
        """Sweep-style table of a finished job.

        Jobs submitted from a grid get their coordinates back as columns
        (identical rows to :func:`repro.batch.sweep`); plain problem lists
        fall back to synthetic coordinates.
        """
        handle = self.job(job_id)
        results = handle.results(timeout=timeout)
        if handle.coords is not None:
            table = sweep_table(handle.coords, results,
                                title=f"job {handle.name}",
                                shard=handle.shard,
                                fingerprint=handle.fingerprint)
            if handle.manifest is not None:
                # sweep submissions come back as mergeable shard dumps,
                # exactly like a `repro sweep --out` table
                table.manifest = dict(handle.manifest)
            return table
        coords = [("-", r.n_tasks, None, None, None) for r in results]
        return sweep_table(coords, results, title=f"job {handle.name}")

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def shutdown(self, *, wait: bool = True, cancel_pending: bool = False) -> None:
        """Shut the pool down; optionally cancel not-yet-started instances."""
        with self._lock:
            # _submit_problems checks _closed and submits under the same
            # lock: a racing submit either lands before the pool shuts
            # down or raises ShutdownError
            self._closed = True
            batcher, self._batcher = self._batcher, None
        if batcher is not None:
            batcher.close()
        self._pool.shutdown(wait=wait, cancel_futures=cancel_pending)

    def __enter__(self) -> "SolverService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown(wait=exc_type is None, cancel_pending=exc_type is not None)
