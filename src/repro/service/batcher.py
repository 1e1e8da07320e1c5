"""Request coalescing for the synchronous solve fast path.

A :class:`MicroBatcher` sits between concurrent single-solve submitters
(HTTP handler threads, :meth:`SolverService.solve` callers) and the
struct-of-arrays batch solver.  Submissions land in a queue; a single tick
thread sleeps only while the queue is empty.  Once woken it drains the
whole queue at once and executes *one* vectorized
:func:`repro.batch.vectorized.solve_batch` call for the whole tick, which
packs each submission (a problem, or the
:class:`~repro.batch.vectorized.WireInstance` of a ``/v1/solve``) with the
:class:`~repro.batch.vectorized.BatchPacker` that ``/v1/solve_batch``
decodes into; whatever arrives while a tick executes rides the next one.
The batcher is work-conserving: a lone request never waits for company,
and under load N concurrent submitters still cost a handful of batch
ticks instead of N scalar solve pipelines — the occupancy histogram in
:meth:`stats` is the direct measurement.

Submissions with different solver parameters may share a tick; the drain
groups them by :func:`~repro.batch.vectorized.batch_key` (the key
``/v1/solve_batch`` groups by too) so each group still makes a single
batch call.
"""

from __future__ import annotations

import threading
from collections import Counter
from concurrent.futures import Future
from typing import Any, Sequence

from repro.batch.engine import BatchResult
from repro.batch.vectorized import WireInstance, batch_key, solve_batch
from repro.core.problem import MinEnergyProblem
from repro.reliability import failpoints
from repro.reliability.policy import Deadline
from repro.utils.errors import (
    DeadlineExceededError,
    ShutdownError,
    TransientTransportError,
)


class MicroBatcher:
    """Coalesce concurrent solve submissions into vectorized batch ticks.

    A tick takes every queued submission.  The queue needs no cap: behind
    the HTTP server a ``/v1/solve`` holds its admission slot while it
    waits for its tick, so admission bounds the queue.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._queue: list[tuple[Any, dict[str, Any], Future]] = []
        self._closed = False
        self._thread: threading.Thread | None = None
        # stats (guarded by _cond's lock)
        self._ticks = 0
        self._submitted = 0
        self._direct = 0
        self._occupancy: Counter[int] = Counter()

    # ------------------------------------------------------------------ #
    # submission
    # ------------------------------------------------------------------ #
    def submit(self, item: "MinEnergyProblem | WireInstance", *,
               method: str | None = None, exact: bool | None = None,
               options: dict[str, Any] | None = None,
               keep_speeds: bool = False,
               validate: bool = False,
               deadline: "Deadline | None" = None) -> "Future[BatchResult]":
        """Queue one problem or
        :class:`~repro.batch.vectorized.WireInstance`; the future resolves
        to its ``BatchResult``.

        The submission rides the next tick: at once if the tick thread is
        idle, else as soon as the tick in progress finishes.  The future
        never carries a solve failure as an exception — failed instances
        resolve to ``ok=False`` rows exactly like
        :func:`repro.batch.solve_many`.  It only errors if the batcher is
        shut down underneath the submission, or if ``deadline`` expires
        before the submission's tick executes
        (:class:`~repro.utils.errors.DeadlineExceededError`): an expired
        submission is resolved, not solved.
        """
        key = batch_key(method, exact, options, keep_speeds, validate)
        future: "Future[BatchResult]" = Future()
        with self._cond:
            if self._closed:
                raise ShutdownError("MicroBatcher is shut down")
            if self._thread is None:
                self._thread = threading.Thread(
                    target=self._loop, name="repro-batcher", daemon=True)
                self._thread.start()
            self._queue.append((item, {"key": key, "method": method,
                                       "exact": exact,
                                       "options": dict(options or {}),
                                       "keep_speeds": keep_speeds,
                                       "validate": validate,
                                       "deadline": deadline}, future))
            self._submitted += 1
            self._cond.notify()
        return future

    def solve(self, item: "MinEnergyProblem | WireInstance", *,
              method: str | None = None, exact: bool | None = None,
              options: dict[str, Any] | None = None,
              keep_speeds: bool = False, validate: bool = False,
              timeout: float | None = None,
              deadline: "Deadline | None" = None) -> BatchResult:
        """Blocking convenience wrapper around :meth:`submit`."""
        if deadline is not None:
            timeout = (deadline.remaining() if timeout is None
                       else min(timeout, deadline.remaining()))
        return self.submit(item, method=method, exact=exact, options=options,
                           keep_speeds=keep_speeds, validate=validate,
                           deadline=deadline).result(timeout=timeout)

    def record_direct(self, batch_size: int) -> None:
        """Fold an out-of-band batch call into the occupancy statistics.

        ``solve_batch`` requests execute directly (they arrive pre-batched)
        but still count as one tick of the given occupancy, so the
        histogram reflects everything the vector core swallowed.
        """
        with self._cond:
            self._ticks += 1
            self._direct += 1
            self._submitted += batch_size
            self._occupancy[batch_size] += 1

    # ------------------------------------------------------------------ #
    # the tick loop
    # ------------------------------------------------------------------ #
    def _loop(self) -> None:
        while True:
            with self._cond:
                # work-conserving: never wait for company once work is queued
                while not self._queue and not self._closed:
                    self._cond.wait()
                if not self._queue:  # closed and drained
                    return
                batch, self._queue = self._queue, []
                self._ticks += 1
                self._occupancy[len(batch)] += 1
            try:
                failpoints.fire("batcher.tick", size=len(batch))
            except TransientTransportError:
                # an injected transient tick failure re-queues the batch
                # untouched; the next tick retries it, so no future is
                # ever stranded and results are unchanged
                with self._cond:
                    self._queue[:0] = batch
                    self._ticks -= 1
                    self._occupancy[len(batch)] -= 1
                    self._cond.notify()
                continue
            self._execute(batch)

    def _execute(self, batch: list[tuple[Any, dict[str, Any], Future]]) -> None:
        # claim every member before solving: a future its submitter already
        # cancelled drops out here, and a claimed one can no longer be
        # cancelled, so set_result below cannot raise InvalidStateError
        batch = [entry for entry in batch
                 if entry[2].set_running_or_notify_cancel()]
        # group by solver parameters; typical ticks are uniform -> one call
        groups: dict[tuple, list[tuple[int, Any, dict[str, Any]]]] = {}
        for pos, (item, spec, future) in enumerate(batch):
            deadline = spec.get("deadline")
            if deadline is not None and deadline.expired:
                # resolved, not solved: the submitter's budget is gone
                if not future.done():
                    future.set_exception(DeadlineExceededError(
                        f"solve deadline expired after "
                        f"{deadline.budget:.3f}s while waiting for a "
                        "batch tick"))
                continue
            groups.setdefault(spec["key"], []).append((pos, item, spec))
        for members in groups.values():
            futures = [batch[pos][2] for pos, _item, _spec in members]
            params = members[0][2]
            try:
                results = solve_batch(
                    [item for _pos, item, _spec in members],
                    method=params["method"], exact=params["exact"],
                    options=params["options"] or None,
                    keep_speeds=params["keep_speeds"],
                    validate=params["validate"])
            except BaseException as exc:  # defensive: never strand futures
                for future in futures:
                    if not future.done():
                        future.set_exception(exc)
                continue
            for future, result in zip(futures, results):
                future.set_result(result)

    # ------------------------------------------------------------------ #
    # introspection / lifecycle
    # ------------------------------------------------------------------ #
    def stats(self) -> dict[str, Any]:
        """Coalescing statistics: ticks, occupancy histogram, averages."""
        with self._cond:
            occupancy = dict(sorted(self._occupancy.items()))
            ticks = self._ticks
            submitted = self._submitted
            return {
                "ticks": ticks,
                "submitted": submitted,
                "direct_batches": self._direct,
                "occupancy": occupancy,
                "mean_occupancy": (submitted / ticks) if ticks else 0.0,
                "max_occupancy": max(occupancy) if occupancy else 0,
            }

    def close(self) -> None:
        """Drain the queue and stop the tick thread (idempotent)."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()
        thread = self._thread
        if thread is not None and thread.is_alive() \
                and thread is not threading.current_thread():
            thread.join(timeout=5.0)

    def __enter__(self) -> "MicroBatcher":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
