"""Process-pool fan-out over many ``MinEnergy(G, D)`` instances.

:func:`solve_many` maps the registry-dispatched solver over a list of
problems, either serially or across a pool of worker processes.  Every
instance is wrapped in per-instance error capture: a failing solve (an
infeasible deadline, a solver blow-up, a bad model) produces a
:class:`BatchResult` with ``ok=False`` and the error recorded instead of
killing the whole batch — exactly what a long parameter sweep needs.

The fan-out degrades gracefully rather than leaking the executor: a
``KeyboardInterrupt`` (or a worker process dying mid-batch) cancels the
pending futures, shuts the pool down without waiting, and returns the
results gathered so far with the unfinished instances recorded as failures
(``error_type`` ``"KeyboardInterrupt"`` / ``"BrokenProcessPool"``).

Passing a :class:`repro.cache.ResultCache` short-circuits instances whose
:meth:`~repro.core.problem.MinEnergyProblem.cache_key` is already stored:
hits are answered in the parent process (no pickling, no worker dispatch)
and misses populate the cache on the way back.  Every result's ``metadata``
carries its ``cache_hit`` flag and, when the caller provides them, the
per-instance RNG ``seed`` — so each sweep row is individually reproducible.

Results come back in submission order and carry compact summaries (energy,
makespan, solver, wall-clock seconds) rather than full :class:`Solution`
objects, so a 10,000-instance sweep does not ship 10,000 schedules back
through the pipe.  Set ``keep_speeds=True`` to include the per-task speeds
when the assignments themselves are needed.
"""

from __future__ import annotations

import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable, Sequence

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
        metadata = {"cache_hit": False}
        if item.seed is not None:
            metadata["seed"] = item.seed
        return BatchResult(
            index=item.index,
            name=problem.name,
            ok=False,
            n_tasks=problem.n_tasks,
            seconds=time.perf_counter() - start,
            error=str(exc),
            error_type=type(exc).__name__,
            metadata=metadata,
        ), None


def _solve_chunk(items: list[_WorkItem]) -> list[tuple[BatchResult, dict | None]]:
    """Worker body for a chunk of instances (amortises pickling)."""
    return [_solve_one(item) for item in items]


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


def _interrupted_result(item: _WorkItem, error_type: str, message: str) -> BatchResult:
    metadata: dict[str, Any] = {"cache_hit": False}
    if item.seed is not None:
        metadata["seed"] = item.seed
    return BatchResult(
        index=item.index, name=item.problem.name, ok=False,
        n_tasks=item.problem.n_tasks, error=message, error_type=error_type,
        metadata=metadata,
    )


def solve_many(problems: Sequence[MinEnergyProblem] | Iterable[MinEnergyProblem], *,
               workers: int | None = None, chunk: int = 1,
               method: str | None = None,
               exact: bool | None = None, validate: bool = True,
               keep_speeds: bool = False,
               options: dict[str, Any] | None = None,
               solver_kwargs: dict[str, Any] | None = None,
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
        library graph/model is).
    chunk:
        Number of instances handed to a worker per dispatch (larger chunks
        amortise pickling for many small instances).
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
        ``solver_kwargs`` is the deprecated spelling of the same mapping and
        is merged into ``options``.
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
    merged = dict(solver_kwargs or {})
    merged.update(options or {})
    problem_list = list(problems)
    if seeds is not None and len(seeds) != len(problem_list):
        raise InvalidParameterError(
            f"seeds must align with problems: got {len(seeds)} seeds for "
            f"{len(problem_list)} problems"
        )
    items = [
        _WorkItem(index=i, problem=p, method=method, exact=exact,
                  validate=validate, keep_speeds=keep_speeds, options=merged,
                  seed=None if seeds is None else seeds[i],
                  want_envelope=cache is not None)
        for i, p in enumerate(problem_list)
    ]

    results: list[BatchResult | None] = [None] * len(items)
    hits, pending, keys = _preresolve(items, cache)
    for index, hit in hits.items():
        results[index] = hit

    def finish(item_result: tuple[BatchResult, dict | None]) -> None:
        result, envelope = item_result
        results[result.index] = result
        if cache is not None and envelope is not None and result.index in keys:
            cache.put(keys[result.index], envelope)

    if workers is None or workers <= 1:
        try:
            for item in pending:
                finish(_solve_one(item))
        except KeyboardInterrupt as exc:
            for item in pending:
                if results[item.index] is None:
                    results[item.index] = _interrupted_result(
                        item, "KeyboardInterrupt", str(exc) or "interrupted")
        return results  # type: ignore[return-value]  # every slot is filled

    if chunk < 1:
        raise InvalidParameterError(f"chunk must be >= 1, got {chunk}")

    chunks = [pending[i:i + chunk] for i in range(0, len(pending), chunk)]
    pool = ProcessPoolExecutor(max_workers=workers)
    future_items: dict[Future, list[_WorkItem]] = {}
    try:
        try:
            for chunk_items in chunks:
                future_items[pool.submit(_solve_chunk, chunk_items)] = chunk_items
            not_done = set(future_items)
            while not_done:
                done, not_done = wait(not_done, return_when=FIRST_COMPLETED)
                for future in done:
                    for item_result in future.result():
                        finish(item_result)
        except (KeyboardInterrupt, BrokenProcessPool) as exc:
            error_type = type(exc).__name__
            message = str(exc) or ("worker pool interrupted"
                                   if error_type == "KeyboardInterrupt"
                                   else "a worker process died")
            for future, chunk_items in future_items.items():
                future.cancel()
                if future.done() and not future.cancelled():
                    try:
                        for item_result in future.result(timeout=0):
                            finish(item_result)
                        continue
                    except Exception:
                        pass  # the broken future itself: fall through to record
                for item in chunk_items:
                    if results[item.index] is None:
                        results[item.index] = _interrupted_result(
                            item, error_type, message)
    finally:
        # always reached with every future done or cancelled; also covers
        # unexpected exceptions (a cache store failing mid-finish, ...) so
        # live worker processes never leak behind a propagating error
        pool.shutdown(wait=False, cancel_futures=True)
    return results  # type: ignore[return-value]  # every slot is filled


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
