"""One fan-out over many ``MinEnergy(G, D)`` instances.

:func:`solve_many` maps the registry-dispatched solver over a list of
problems, either serially or across a pool of worker processes.  Every
instance is wrapped in per-instance error capture: a failing solve (an
infeasible deadline, a solver blow-up, a bad model) produces a
:class:`BatchResult` with ``ok=False`` and the error recorded instead of
killing the whole batch — exactly what a long parameter sweep needs.
:meth:`BatchResult.failure` is the one constructor of such rows.

Pooled work has one path, shared with
:class:`repro.service.SolverService`: :func:`work_items` builds the
items, :func:`_preresolve` answers cache hits in this process,
:func:`fan_out` submits one future per remaining item and caches each
finished envelope from the future's done-callback, and :func:`gather`
turns hits and futures back into rows in input order.  A future that
raised reads as a row of its exception's type (a dead worker is
``"BrokenProcessPool"``); one that never finished reads as the type its
caller names (``"KeyboardInterrupt"`` here, ``"CancelledError"`` for a
job), so an interrupt still returns one row per instance.

Passing a :class:`repro.cache.ResultCache` short-circuits instances whose
:meth:`~repro.core.problem.MinEnergyProblem.cache_key` is already stored:
hits are answered in the parent process (no pickling, no worker dispatch)
and misses populate the cache as they finish.  Every result's ``metadata``
carries its ``cache_hit`` flag and, when the caller provides them, the
per-instance RNG ``seed`` — so each sweep row is individually reproducible.

Results come back in submission order and carry compact summaries (energy,
makespan, solver, wall-clock seconds) rather than full :class:`Solution`
objects, so a 10,000-instance sweep does not ship 10,000 schedules back
through the pipe.  Set ``keep_speeds=True`` to include the per-task speeds
when the assignments themselves are needed.
"""

from __future__ import annotations

import functools
import time
from concurrent.futures import Executor, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable, Mapping, Sequence

from repro.core.problem import MinEnergyProblem
from repro.utils.errors import InvalidParameterError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cache import ResultCache


@dataclass
class BatchResult:
    """Outcome of one instance of a batch solve.

    ``ok`` distinguishes solved instances from captured failures; failed
    instances keep ``energy``/``makespan``/``solver`` as ``None`` and record
    the exception type and message instead.  ``metadata`` always carries the
    ``cache_hit`` flag and, when the caller provided one, the instance's RNG
    ``seed``.
    """

    index: int
    name: str
    ok: bool
    n_tasks: int = 0
    energy: float | None = None
    makespan: float | None = None
    solver: str | None = None
    optimal: bool | None = None
    lower_bound: float | None = None
    seconds: float = 0.0
    error: str | None = None
    error_type: str | None = None
    speeds: dict[str, float] | None = None
    metadata: dict[str, Any] = field(default_factory=dict)

    @property
    def cache_hit(self) -> bool:
        """Whether this result was served from the result cache."""
        return bool(self.metadata.get("cache_hit"))

    @property
    def build_seconds(self) -> float | None:
        """Model-materialisation time the solver reported (modeling layer)."""
        return self.metadata.get("build_seconds")

    @property
    def solve_seconds(self) -> float | None:
        """Backend solve time the solver reported (modeling layer)."""
        return self.metadata.get("solve_seconds")

    @classmethod
    def failure(cls, index: int, name: str, n_tasks: int, error_type: str,
                error: str, *, seed: int | None = None,
                seconds: float = 0.0) -> "BatchResult":
        """The row of an instance that did not solve.

        An empty ``error`` reads as ``error_type``, so every failure row
        carries a message.
        """
        metadata: dict[str, Any] = {"cache_hit": False}
        if seed is not None:
            metadata["seed"] = seed
        return cls(index=index, name=name, ok=False, n_tasks=n_tasks,
                   seconds=seconds, error=error or error_type,
                   error_type=error_type, metadata=metadata)


@dataclass(frozen=True)
class _WorkItem:
    """One instance plus everything the worker needs to solve it."""

    index: int
    problem: MinEnergyProblem
    method: str | None
    exact: bool | None
    validate: bool
    keep_speeds: bool
    options: dict[str, Any]
    seed: int | None
    want_envelope: bool


def _solve_one(item: _WorkItem) -> tuple[BatchResult, dict | None]:
    """Worker body: solve one instance, capturing any failure.

    Returns the summary row plus, when ``want_envelope`` is set (cache
    wiring), the solution's serialisable envelope so the parent process can
    populate the cache.
    """
    from repro.core.validation import check_solution
    from repro.solve import solve

    problem = item.problem
    start = time.perf_counter()
    try:
        solution = solve(problem, method=item.method, exact=item.exact,
                         options=item.options)
        if item.validate:
            check_solution(solution)
        envelope = None
        if item.want_envelope:
            from repro.cache import solution_envelope

            envelope = solution_envelope(solution)
        metadata = dict(solution.metadata)
        metadata["cache_hit"] = False
        if item.seed is not None:
            metadata["seed"] = item.seed
        return BatchResult(
            index=item.index,
            name=problem.name,
            ok=True,
            n_tasks=problem.n_tasks,
            energy=float(solution.energy),
            makespan=float(solution.makespan),
            solver=solution.solver,
            optimal=bool(solution.optimal),
            lower_bound=(float(solution.lower_bound)
                         if solution.lower_bound is not None else None),
            seconds=time.perf_counter() - start,
            speeds=solution.speeds() if item.keep_speeds else None,
            metadata=metadata,
        ), envelope
    except Exception as exc:  # per-instance capture: the batch must survive
        return BatchResult.failure(
            item.index, problem.name, problem.n_tasks, type(exc).__name__,
            str(exc), seed=item.seed,
            seconds=time.perf_counter() - start), None


def work_items(problems: Sequence[MinEnergyProblem], *, method: str | None,
               exact: bool | None, validate: bool, keep_speeds: bool,
               options: dict[str, Any] | None,
               seeds: Sequence[int | None] | None,
               want_envelope: bool) -> list[_WorkItem]:
    """One work item per problem, indexed in input order.

    ``seeds`` (one per problem, or ``None``) are recorded in the rows;
    ``want_envelope`` asks the worker for the envelope a cache stores.
    """
    if seeds is not None and len(seeds) != len(problems):
        raise InvalidParameterError(
            f"seeds must align with problems: got {len(seeds)} seeds for "
            f"{len(problems)} problems"
        )
    opts = dict(options or {})
    return [
        _WorkItem(index=i, problem=p, method=method, exact=exact,
                  validate=validate, keep_speeds=keep_speeds, options=opts,
                  seed=None if seeds is None else seeds[i],
                  want_envelope=want_envelope)
        for i, p in enumerate(problems)
    ]


def _envelope_speeds(envelope: dict) -> dict[str, float] | None:
    """Per-task (average) speeds of a cached envelope, whatever its kind.

    Constant-speed envelopes store them directly; hopping envelopes store
    ``(speed, duration)`` segments, from which the work-weighted average is
    recovered — mirroring :meth:`repro.core.solution.Solution.speeds` so a
    warm ``keep_speeds=True`` row carries the same data as a cold one.
    """
    if "speeds" in envelope:
        return dict(envelope["speeds"])
    if "segments" in envelope:
        out: dict[str, float] = {}
        for name, segs in envelope["segments"].items():
            total_time = sum(t for _s, t in segs)
            total_work = sum(s * t for s, t in segs)
            out[name] = total_work / total_time if total_time > 0 else float("inf")
        return out
    return None


def _result_from_envelope(item: _WorkItem, envelope: dict,
                          seconds: float) -> BatchResult:
    """Summary row for a cache hit (no solver ran)."""
    metadata = dict(envelope.get("metadata") or {})
    metadata["cache_hit"] = True
    if item.seed is not None:
        metadata["seed"] = item.seed
    return BatchResult(
        index=item.index,
        name=item.problem.name,
        ok=True,
        n_tasks=item.problem.n_tasks,
        energy=envelope.get("energy"),
        makespan=envelope.get("makespan"),
        solver=envelope.get("solver"),
        optimal=envelope.get("optimal"),
        lower_bound=envelope.get("lower_bound"),
        seconds=seconds,
        speeds=_envelope_speeds(envelope) if item.keep_speeds else None,
        metadata=metadata,
    )


def _preresolve(items: list[_WorkItem], cache: "ResultCache | None"
                ) -> tuple[dict[int, BatchResult], list[_WorkItem], dict[int, str]]:
    """Answer cache hits in this process, before anything reaches a pool.

    Returns the hit rows by item index (each timed by its own lookup), the
    items still to solve, and the cache key of every item that has one.
    """
    if cache is None:
        return {}, list(items), {}
    from repro.solve import cache_key_for

    hits: dict[int, BatchResult] = {}
    pending: list[_WorkItem] = []
    keys: dict[int, str] = {}
    for item in items:
        lookup_start = time.perf_counter()
        try:
            key = cache_key_for(item.problem, item.method,
                                options=item.options, exact=item.exact)
        except Exception:
            # dispatch/validation errors must surface as per-instance
            # failures, not crash the pre-pass: solve it "for real"
            pending.append(item)
            continue
        keys[item.index] = key
        envelope = cache.get(key)
        if envelope is None:
            pending.append(item)
        else:
            hits[item.index] = _result_from_envelope(
                item, envelope, time.perf_counter() - lookup_start)
    return hits, pending, keys


def _store(cache: "ResultCache", key: str, future: Future) -> None:
    """Done-callback: cache the envelope of an instance that finished."""
    if not future.cancelled() and future.exception() is None:
        _result, envelope = future.result()
        if envelope is not None:
            cache.put(key, envelope)


def fan_out(pool: Executor, pending: Sequence[_WorkItem],
            keys: Mapping[int, str],
            cache: "ResultCache | None") -> dict[int, Future]:
    """Submit one future per pending item; returns them by item index.

    Each item with a cache key stores its envelope in ``cache`` from its
    future's done-callback, so finished cells are cached even if nobody
    collects their rows.  The callback runs on the pool's result thread: a
    store that raises there is logged by :mod:`concurrent.futures` and the
    row still returns.
    """
    futures: dict[int, Future] = {}
    for item in pending:
        future = pool.submit(_solve_one, item)
        if cache is not None and item.index in keys:
            future.add_done_callback(
                functools.partial(_store, cache, keys[item.index]))
        futures[item.index] = future
    return futures


def gather(identities: Sequence[tuple[str, int, int | None]],
           rows: Mapping[int, BatchResult], futures: Mapping[int, Future],
           unfinished: BaseException) -> list[BatchResult]:
    """The rows of a batch in input order, from settled rows and futures.

    ``identities`` holds each instance's ``(name, n_tasks, seed)`` and
    ``rows`` the instances already answered (cache hits, serial solves).
    A future that raised becomes a row of that exception's type, so a dead
    worker reads ``"BrokenProcessPool"``; a cancelled or unfinished future,
    or an instance with neither a row nor a future, reads as
    ``unfinished``.
    """
    out: list[BatchResult] = []
    for index, (name, n_tasks, seed) in enumerate(identities):
        row = rows.get(index)
        if row is not None:
            out.append(row)
            continue
        future = futures.get(index)
        exc: BaseException | None = unfinished
        if future is not None and future.done() and not future.cancelled():
            exc = future.exception()
            if exc is None:
                out.append(future.result()[0])
                continue
        out.append(BatchResult.failure(index, name, n_tasks,
                                       type(exc).__name__, str(exc),
                                       seed=seed))
    return out


def solve_many(problems: Sequence[MinEnergyProblem] | Iterable[MinEnergyProblem], *,
               workers: int | None = None,
               method: str | None = None,
               exact: bool | None = None, validate: bool = True,
               keep_speeds: bool = False,
               options: dict[str, Any] | None = None,
               cache: "ResultCache | None" = None,
               seeds: Sequence[int | None] | None = None) -> list[BatchResult]:
    """Solve many instances, optionally fanning out over worker processes.

    Parameters
    ----------
    problems:
        The instances; each is dispatched through :func:`repro.solve.solve`
        so mixed energy models in one batch are fine.
    workers:
        ``None``, 0 or 1 solves serially in this process; otherwise a
        :class:`~concurrent.futures.ProcessPoolExecutor` with that many
        workers is used (instances must then be picklable, which every
        library graph/model is).  The pool is joined before the rows
        return, so every envelope is in ``cache`` by then.
    method:
        Registered solver method forwarded to :func:`repro.solve.solve`
        (``None`` = each model's default).
    exact:
        Forwarded to :func:`repro.solve.solve` (exact vs heuristic for the
        NP-complete models).
    validate:
        Re-check every returned solution with
        :func:`repro.core.validation.check_solution`; a validation failure
        is captured like any other per-instance error.
    keep_speeds:
        Include each solution's per-task speeds in its result (off by
        default to keep large sweeps lightweight).
    options:
        Solver options validated against the chosen backend's schema.
    cache:
        Optional :class:`repro.cache.ResultCache`.  Instances whose cache
        key is stored are answered in the parent process; misses are solved
        and their envelopes inserted, so a re-run of the same batch is
        near-free.
    seeds:
        Optional per-instance RNG seeds (aligned with ``problems``); each is
        recorded in its result's ``metadata["seed"]`` so rows in dumped
        sweep tables are individually reproducible.

    Returns
    -------
    list[BatchResult]
        One entry per instance, in input order, ``ok=False`` for captured
        failures (including instances cancelled by an interrupt or a worker
        death — see the module docstring).
    """
    items = work_items(list(problems), method=method, exact=exact,
                       validate=validate, keep_speeds=keep_speeds,
                       options=options, seeds=seeds,
                       want_envelope=cache is not None)
    rows, pending, keys = _preresolve(items, cache)
    futures: dict[int, Future] = {}
    # what an instance left without a row reads as: only an interrupt (or
    # a pool that broke while work was being submitted) leaves one
    unfinished: BaseException = KeyboardInterrupt()
    if workers is None or workers <= 1:
        try:
            for item in pending:
                rows[item.index], envelope = _solve_one(item)
                if cache is not None and envelope is not None \
                        and item.index in keys:
                    cache.put(keys[item.index], envelope)
        except KeyboardInterrupt as exc:
            unfinished = exc
    elif pending:
        pool = ProcessPoolExecutor(max_workers=workers)
        finished = False
        try:
            futures = fan_out(pool, pending, keys, cache)
            wait(futures.values())
            finished = True
        except (KeyboardInterrupt, BrokenProcessPool) as exc:
            unfinished = exc
        finally:
            # a finished run joins the workers and the thread that ran the
            # cache callbacks; otherwise queued work is cancelled and the
            # workers exit once their current instance is done
            pool.shutdown(wait=finished, cancel_futures=True)
    identities = [(item.problem.name, item.problem.n_tasks, item.seed)
                  for item in items]
    return gather(identities, rows, futures, unfinished)


def failed(results: Iterable[BatchResult]) -> list[BatchResult]:
    """The subset of results whose solve raised (in input order)."""
    return [r for r in results if not r.ok]


def summarize(results: Sequence[BatchResult]) -> dict[str, Any]:
    """Aggregate counters for a batch: sizes, failures, cache hits, wall-clock."""
    n_failed = sum(1 for r in results if not r.ok)
    return {
        "n_instances": len(results),
        "n_solved": len(results) - n_failed,
        "n_failed": n_failed,
        "cache_hits": sum(1 for r in results if r.cache_hit),
        "total_seconds": sum(r.seconds for r in results),
        "total_tasks": sum(r.n_tasks for r in results),
    }
