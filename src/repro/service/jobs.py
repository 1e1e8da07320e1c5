"""Job model of the solver service: statuses, progress and handles.

A :class:`JobHandle` is what :meth:`repro.service.SolverService.submit`
returns: a live view over the per-instance futures of one submitted batch.
It can be polled (:meth:`~JobHandle.status`, :meth:`~JobHandle.progress`),
blocked on (:meth:`~JobHandle.results`), or awaited from asyncio code
(``results = await handle``) — completion is exposed both synchronously and
asynchronously over the same underlying futures.

Failure semantics are inherited from the batch layer: a failing instance
becomes a :class:`~repro.batch.engine.BatchResult` with ``ok=False`` and the
error recorded, it never fails the job.  A job therefore always reaches
``DONE`` (or ``CANCELLED``); ``progress().failed`` counts the captured
per-instance failures.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import CancelledError, Future, wait as futures_wait
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Any, Sequence

from repro.batch.engine import BatchResult, gather
from repro.utils.errors import InvalidParameterError, PollTimeoutError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.batch.shard import ShardSpec


class JobStatus(str, Enum):
    """Lifecycle of a submitted job."""

    PENDING = "pending"      #: accepted, nothing started yet
    RUNNING = "running"      #: at least one instance started, not all done
    DONE = "done"            #: every instance finished (failures captured)
    CANCELLED = "cancelled"  #: cancelled before completion


@dataclass(frozen=True)
class JobProgress:
    """Instance counters of a job at one point in time."""

    total: int
    done: int
    failed: int
    cache_hits: int

    @property
    def remaining(self) -> int:
        return self.total - self.done

    @property
    def fraction(self) -> float:
        """Completed fraction in ``[0, 1]`` (1.0 for an empty job)."""
        return self.done / self.total if self.total else 1.0


class JobHandle:
    """Live handle over one submitted batch of instances.

    Instances resolved from the result cache at submission time are carried
    as pre-computed results; the rest map 1:1 to executor futures.  All
    accessors are safe to call from any thread; :meth:`wait` (and plain
    ``await handle``) bridges the same futures into asyncio.
    """

    def __init__(self, job_id: str, *, name: str = "",
                 futures: Sequence[Future] = (),
                 future_indices: Sequence[int] = (),
                 preresolved: dict[int, BatchResult] | None = None,
                 total: int = 0,
                 coords: Sequence[tuple] | None = None,
                 params: dict[str, Any] | None = None,
                 instance_meta: Sequence[tuple[str, int]] | None = None,
                 seeds: Sequence[int | None] | None = None,
                 shard: "ShardSpec | None" = None,
                 fingerprint: str = "",
                 manifest: dict[str, Any] | None = None) -> None:
        if len(futures) != len(future_indices):
            raise InvalidParameterError("futures and future_indices must align")
        if instance_meta is not None and len(instance_meta) != total:
            raise InvalidParameterError("instance_meta must align with the instance count")
        self.job_id = job_id
        self.name = name or job_id
        self.created_at = time.time()
        self.finished_at: float | None = None
        #: grid coordinates when the job came from a sweep submission
        self.coords = list(coords) if coords is not None else None
        #: submission parameters (grid axes, workers, ...) for job records
        self.params = dict(params or {})
        #: shard identity / grid fingerprint of a sharded sweep submission
        self.shard = shard
        self.fingerprint = fingerprint
        #: shard-dump header of a sweep submission (full-grid coordinates,
        #: fingerprint, params) — attached to job tables so a service job's
        #: output is a mergeable shard dump like a ``repro sweep`` table
        self.manifest = dict(manifest) if manifest else None
        self._futures = list(futures)
        self._indices = list(future_indices)
        self._preresolved = dict(preresolved or {})
        self._total = total
        #: per-index (problem name, task count, seed) so the failure row of
        #: an instance no worker reported on keeps its identity
        meta = (instance_meta if instance_meta is not None
                else [(f"instance-{i}", 0) for i in range(total)])
        self._identities = [
            (instance, n_tasks, None if seeds is None else seeds[i])
            for i, (instance, n_tasks) in enumerate(meta)]
        self._cancelled = False

    # ------------------------------------------------------------------ #
    # polling
    # ------------------------------------------------------------------ #
    @property
    def total(self) -> int:
        """Number of instances in the job."""
        return self._total

    def done(self) -> bool:
        """Whether every instance has finished (or the job was cancelled)."""
        return self._cancelled or all(f.done() for f in self._futures)

    def status(self) -> JobStatus:
        """Current lifecycle state (derived from the futures, never stale)."""
        if self._cancelled:
            return JobStatus.CANCELLED
        if not self._futures:
            return JobStatus.DONE
        states = [f for f in self._futures if f.done()]
        if len(states) == len(self._futures):
            return JobStatus.DONE
        if states or any(f.running() for f in self._futures):
            return JobStatus.RUNNING
        return JobStatus.PENDING

    def progress(self) -> JobProgress:
        """Instance counters (pre-resolved cache hits count as done)."""
        done = len(self._preresolved)
        failed = sum(1 for r in self._preresolved.values() if not r.ok)
        cache_hits = sum(1 for r in self._preresolved.values() if r.cache_hit)
        for future in self._futures:
            if not future.done():
                continue
            done += 1
            if future.cancelled() or future.exception() is not None:
                failed += 1
                continue
            result = future.result()[0]
            failed += not result.ok
            cache_hits += result.cache_hit
        return JobProgress(total=self._total, done=done, failed=failed,
                           cache_hits=cache_hits)

    # ------------------------------------------------------------------ #
    # completion
    # ------------------------------------------------------------------ #
    def results(self, timeout: float | None = None) -> list[BatchResult]:
        """Block until the job completes and return results in input order.

        Raises :class:`TimeoutError` when ``timeout`` elapses first.
        Instances whose future was cancelled (service shutdown, explicit
        :meth:`cancel`) come back as ``ok=False`` rows with ``error_type``
        ``"CancelledError"``.
        """
        finished = futures_wait(self._futures, timeout=timeout)
        # futures_wait only counts *notified* cancellations as done; a future
        # cancelled before its executor ever dequeued it still belongs in the
        # cancelled bucket, not in "still running"
        still_running = [f for f in finished.not_done if not f.cancelled()]
        if still_running and not self._cancelled:
            raise PollTimeoutError(
                f"job {self.job_id}: {len(still_running)} of "
                f"{len(self._futures)} instances still running after "
                f"{timeout}s"
            )
        rows = gather(self._identities, self._preresolved,
                      dict(zip(self._indices, self._futures)),
                      CancelledError("cancelled before completion"))
        if self.finished_at is None:
            self.finished_at = time.time()
        return rows

    async def wait(self, poll: float = 0.0) -> list[BatchResult]:
        """Asynchronously wait for completion and return the results.

        Bridges the executor futures into the running event loop, so many
        jobs can be awaited concurrently with ``asyncio.gather``.  ``poll``
        is accepted for API compatibility and ignored (no polling happens).
        """
        pending = [asyncio.wrap_future(f) for f in self._futures
                   if not f.done()]
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)
        return self.results(timeout=0 if self._futures else None)

    def __await__(self):
        return self.wait().__await__()

    def cancel(self) -> int:
        """Cancel the not-yet-started instances; returns how many were."""
        cancelled = sum(1 for f in self._futures if f.cancel())
        if cancelled and all(f.done() or f.cancelled() for f in self._futures):
            self._cancelled = True
        return cancelled

    def describe(self) -> dict[str, Any]:
        """JSON-able snapshot used by job records and ``repro jobs``."""
        progress = self.progress()
        return {
            "job_id": self.job_id,
            "name": self.name,
            "status": self.status().value,
            "created_at": self.created_at,
            "finished_at": self.finished_at,
            "total": progress.total,
            "done": progress.done,
            "failed": progress.failed,
            "cache_hits": progress.cache_hits,
            "shard": self.shard.spelling if self.shard is not None else None,
            "grid_fingerprint": self.fingerprint,
            "params": self.params,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        progress = self.progress()
        return (f"JobHandle({self.job_id!r}, status={self.status().value}, "
                f"{progress.done}/{progress.total} done)")
