"""``sweep_grid`` and ``large_dag``: the program driven through the library.

Both run in this process after an untimed warm-up.  Only the library calls
are timed; input generation and answer checks run between them, off the
clock.  A run ends at the operation boundary nearest to ``seconds`` of timed
work, so every run measures whole cold/warm rounds (``sweep_grid``) or
whole layered/Erdős pairs (``large_dag``).
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

from perfbench import inputs
from perfbench.benchstats import geometric_mean
from perfbench.spans import Span, SpanRecorder, self_times

#: Fresh processes timed per run; ``setup_s`` is their median.
SETUP_REPEATS = 5

#: Pool workers of ``sweep_grid`` (the box has 2 vCPUs).
WORKERS = 2

#: Warm re-runs after each cold pass of ``sweep_grid``: a few seconds of
#: warm work per round, so a round's warm rate is not one short pass.
WARM_RERUNS = 4

#: Solver family of each ``sweep`` row's ``solver`` column.
FAMILY = {"continuous-convex": "dense_convex",
          "continuous-convex-sparse": "sparse_convex"}


def _sweep_fn():
    # the package re-exports ``sweep`` under the module's own name, so
    # ``repro.batch.sweep`` is the function and the module is only in
    # sys.modules
    import repro.batch  # noqa: F401

    return sys.modules["repro.batch.sweep"].sweep


def _solve_fn():
    import repro.solve  # noqa: F401

    return sys.modules["repro.solve"].solve


def warm_up(workload: str, workdir: Path) -> float:
    """The fixed warm-up call that ends set-up.

    Returns the seconds spent generating its input, which set-up excludes:
    the ``large_dag`` problem is built by the benchmark, while a sweep
    builds its own grid.
    """
    if workload == "sweep_grid":
        from repro.cache import disk_cache

        grid = dict(inputs.SWEEP_GRID, repetitions=1, slacks=(1.5,))
        _sweep_fn()(**grid, seed=inputs.derive(inputs.CHECK_SEED,
                                               inputs.WARMUP, 0),
                    workers=WORKERS,
                    cache=disk_cache(tempfile.mkdtemp(dir=workdir)))
        return 0.0
    t0 = time.perf_counter()
    problem = inputs.large_problem(
        "layered", 200, inputs.derive(inputs.CHECK_SEED, inputs.WARMUP, 0))
    generated = time.perf_counter() - t0
    _solve_fn()(problem)
    return generated


def measure_setup(workload: str, root: Path, workdir: Path,
                  env: dict[str, str]) -> float:
    """Median seconds from spawning a fresh process to the end of its
    ``import repro`` plus :func:`warm_up`, less the warm-up's input
    generation."""
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        probe = subprocess.Popen(
            [sys.executable, str(root / "perfbench" / "setup_probe.py"),
             workload, str(workdir)], cwd=root, env=env,
            stdout=subprocess.PIPE)
        line = probe.stdout.readline()
        elapsed = time.perf_counter() - t0
        probe.stdout.close()
        words = line.split()
        if probe.wait() != 0 or len(words) != 2 or words[0] != b"ready":
            raise RuntimeError(
                f"set-up probe failed (exit {probe.returncode})")
        samples.append(elapsed - float(words[1]))
    return statistics.median(samples)


def _reap_children() -> None:
    """Wait until the last pool's workers have exited and been reaped, so
    ``RUSAGE_CHILDREN`` accounts for them."""
    deadline = time.perf_counter() + 30.0
    while multiprocessing.active_children() \
            and time.perf_counter() < deadline:
        time.sleep(0.01)


def _children_cpu_s() -> float:
    """CPU seconds of every reaped child of this process."""
    _reap_children()
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _peak_rss_mb(with_children: bool) -> float:
    """Peak RSS of this process, plus that of its largest reaped child."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        _reap_children()
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


@contextmanager
def on_cpu(turn: int):
    """Pin this process to CPU number ``turn`` (mod the CPUs it may use)
    for one single-threaded timed unit, then give it every CPU back.

    A shared host slows each vCPU down on its own, for seconds at a time,
    so a run whose units all land on one CPU measures that CPU's luck;
    rotating the units over every CPU averages it.  Pool workers, probes
    and servers started outside a unit are not pinned.
    """
    cpus = sorted(os.sched_getaffinity(0))
    try:
        os.sched_setaffinity(0, {cpus[turn % len(cpus)]})
    except OSError:  # a sandbox that forbids pinning: measure unpinned
        cpus = []
    try:
        yield
    finally:
        if cpus:
            os.sched_setaffinity(0, cpus)


def _more(done: int, spent: float, seconds: float) -> bool:
    """Whether another operation brings ``spent`` nearer to ``seconds``."""
    return done == 0 or spent + spent / done / 2.0 < seconds


# --------------------------------------------------------------------- #
# sweep_grid
# --------------------------------------------------------------------- #
def _sweep_rounds(seed: int, first: int, seconds: float, workdir: Path,
                  sweep) -> list[dict]:
    """Rounds of a cold pass into an empty disk cache followed by
    :data:`WARM_RERUNS` warm re-runs of the same grid.

    Each pass starts from a collected heap and is checked as soon as it
    returns, off the clock; a round keeps only what the metrics need,
    including the CPU time of the cold pass's pool workers.
    """
    from repro.cache import disk_cache

    rounds: list[dict] = []
    spent = 0.0
    while _more(len(rounds), spent, seconds):
        grid_seed = inputs.derive(seed, inputs.TIMED, first + len(rounds))
        cache = disk_cache(tempfile.mkdtemp(dir=workdir))
        workers_cpu = _children_cpu_s()
        gc.collect()
        t0 = time.perf_counter()
        cold = sweep(**inputs.SWEEP_GRID, seed=grid_seed, workers=WORKERS,
                     cache=cache)
        cold_s = time.perf_counter() - t0
        workers_cpu = _children_cpu_s() - workers_cpu
        correct = _check_cold(cold, grid_seed)
        warm_s = []
        for turn in range(WARM_RERUNS):
            gc.collect()
            with on_cpu(turn):
                t0 = time.perf_counter()
                warm = sweep(**inputs.SWEEP_GRID, seed=grid_seed,
                             workers=WORKERS, cache=cache)
                warm_s.append(time.perf_counter() - t0)
            correct += _check_warm(cold, warm)
        rounds.append({"instances": len(cold), "cold_s": cold_s,
                       "warm_s": warm_s, "seconds": cold.column("seconds"),
                       "solvers": cold.column("solver"),
                       "workers_cpu_s": workers_cpu,
                       "hits": cache.stats.hits,
                       "lookups": cache.stats.lookups, "correct": correct,
                       "attempted": len(cold) * (1 + WARM_RERUNS)})
        spent += cold_s + sum(warm_s)
    return rounds


def _grid_bounds(grid_seed: int, **grid) -> list[float]:
    from repro.batch.sweep import build_sweep_problems
    from repro.continuous.bounds import critical_path_lower_bound

    problems, _coords = build_sweep_problems(**grid, seed=grid_seed)
    return [critical_path_lower_bound(p) for p in problems]


def _check_cold(cold, grid_seed: int) -> int:
    """Cold rows solved, not from the cache, and above their bound; each
    wrong row is reported on stderr."""
    bounds = _grid_bounds(grid_seed, **inputs.SWEEP_GRID)
    correct = 0
    for bound, row in zip(bounds, cold.rows):
        cells = dict(zip(cold.columns, row))
        if cells["ok"] and not cells["cache_hit"] \
                and cells["energy"] >= bound * (1.0 - inputs.RTOL):
            correct += 1
        else:
            print(f"sweep_grid: wrong cold row {cells} (bound {bound!r})",
                  file=sys.stderr)
    return correct


def _check_warm(cold, warm) -> int:
    """Warm rows served from the cache with their cold energies."""
    return sum(bool(ok and hit and energy == cold_energy)
               for cold_energy, ok, energy, hit in zip(
                   cold.column("energy"), warm.column("ok"),
                   warm.column("energy"), warm.column("cache_hit")))


def _sweep_check_sample() -> tuple[int, int, float]:
    """(correct, attempted, energy_ratio) of the fixed check grid."""
    grid = dict(inputs.SWEEP_GRID, repetitions=1)
    grid_seed = inputs.derive(inputs.CHECK_SEED, inputs.CHECK, 0)
    table = _sweep_fn()(**grid, seed=grid_seed, workers=WORKERS)
    ratios = [energy / bound for bound, ok, energy in
              zip(_grid_bounds(grid_seed, **grid), table.column("ok"),
                  table.column("energy"))
              if ok and energy >= bound * (1.0 - inputs.RTOL)]
    return len(ratios), len(table), geometric_mean(ratios)


def _rates(rounds: list[dict]) -> tuple[float, float]:
    """(cold, warm) instances per second over every pass of ``rounds``."""
    instances = sum(r["instances"] for r in rounds)
    return (instances / sum(r["cold_s"] for r in rounds),
            instances * WARM_RERUNS / sum(sum(r["warm_s"]) for r in rounds))


def run_sweep_grid(seed: int, seconds: float, trace: bool, root: Path,
                   workdir: Path, env: dict[str, str]) -> dict:
    warm_up("sweep_grid", workdir)
    sweep = _sweep_fn()
    if trace:
        half = seconds / 2.0
        plain = _sweep_rounds(seed, 0, half, workdir, sweep)
        recorder = SpanRecorder()
        sweep = install_sweep_probes(recorder, sweep)
        traced = _sweep_rounds(seed, len(plain), half, workdir, sweep)
        layers = sweep_layers(list(recorder.spans), traced)
        layers["trace.overhead"] = _rates(traced)[0] / _rates(plain)[0] - 1.0
        rounds = plain + traced
    else:
        rounds = _sweep_rounds(seed, 0, seconds, workdir, sweep)
        rss = _peak_rss_mb(with_children=True)
    sample_correct, sample_attempted, energy_ratio = _sweep_check_sample()
    result = {"correct": sum(r["correct"] for r in rounds) + sample_correct,
              "attempted": sum(r["attempted"] for r in rounds)
              + sample_attempted,
              "samples": {"rounds": len(rounds)}}
    if trace:
        result["metrics"] = layers
        return result
    cold_rate, warm_rate = _rates(rounds)
    calls = [r["cold_s"] for r in rounds]
    result["samples"].update(
        cold_s=calls, warm_s=[s for r in rounds for s in r["warm_s"]])
    result["metrics"] = {
        "setup_s": measure_setup("sweep_grid", root, workdir, env),
        "solves_per_s": cold_rate,
        # the operation is a cold sweep call and a run holds 3-4 of them,
        # too few for a tail percentile: the median and the slowest call
        "latency_p50_ms": statistics.median(calls) * 1e3,
        "latency_p90_ms": max(calls) * 1e3,
        "warm_solves_per_s": warm_rate,
        "peak_rss_mb": rss,
        "energy_ratio": energy_ratio,
    }
    return result


def install_sweep_probes(recorder: SpanRecorder, sweep):
    """Record plan and cache calls; returns ``sweep`` recording its calls."""
    from repro.cache import ResultCache

    recorder.patch(sys.modules["repro.batch.sweep"], "plan_sweep",
                   "batch.sweep.plan")
    recorder.patch(ResultCache, "get", "cache.get")
    recorder.patch(ResultCache, "put", "cache.put")
    return recorder.wrap("batch.sweep.call", sweep)


def sweep_layers(spans: list[Span], rounds: list[dict]) -> dict[str, float]:
    """Per-call sweep metrics.

    Spans in pool workers never reach this process, so worker busy time is
    the workers' CPU time (from ``RUSAGE_CHILDREN``), split by solver family
    in proportion to the rows' ``seconds`` and ``solver`` columns.
    """
    own = self_times(spans)
    named: dict[str, list[Span]] = defaultdict(list)
    for span in spans:
        named[span.name].append(span)
    calls = named["batch.sweep.call"]  # in call order: cold, warm, ...
    cold_calls = calls[::1 + WARM_RERUNS]
    row_s: dict[str, float] = defaultdict(float)
    for round_ in rounds:
        for solver, seconds in zip(round_["solvers"], round_["seconds"]):
            row_s[FAMILY.get(solver, "structured")] += seconds
    workers_cpu = sum(r["workers_cpu_s"] for r in rounds)
    share = workers_cpu / max(sum(row_s.values()), 1e-12)
    # plan and the cache lookups run before the pool starts; the inserts
    # overlap the workers, so they stay in fan-out with the dispatch
    cold_ids = {c.id for c in cold_calls}
    before_pool = sum(s.t1 - s.t0 for name in ("batch.sweep.plan", "cache.get")
                      for s in named[name] if s.parent in cold_ids)
    fanout = sum(c.t1 - c.t0 for c in cold_calls) - before_pool \
        - workers_cpu / WORKERS

    def per_call_ms(name: str) -> float:
        return 1e3 * sum(own[s.id][1] for s in named[name]) \
            / max(1, len(named[name]))

    n_cold = max(1, len(cold_calls))
    return {
        "batch.sweep.plan_s": sum(own[s.id][1] for s in named[
            "batch.sweep.plan"]) / max(1, len(calls)),
        "cache.get_ms": per_call_ms("cache.get"),
        "cache.put_ms": per_call_ms("cache.put"),
        "cache.hit_ratio": sum(r["hits"] for r in rounds)
        / max(1, sum(r["lookups"] for r in rounds)),
        "batch.engine.busy_s.dense_convex":
            row_s["dense_convex"] * share / n_cold,
        "batch.engine.busy_s.sparse_convex":
            row_s["sparse_convex"] * share / n_cold,
        "batch.engine.busy_s.structured": row_s["structured"] * share / n_cold,
        "batch.engine.fanout_s": fanout / n_cold,
    }


# --------------------------------------------------------------------- #
# large_dag
# --------------------------------------------------------------------- #
def _solve_checked(problem, solve, turn: int = 0
                   ) -> tuple[float, float | None]:
    """``(seconds, energy over critical-path bound)`` of one timed solve,
    made on CPU ``turn`` (see :func:`on_cpu`).

    The ratio is ``None`` for a wrong answer: a raised solve, a solution
    ``check_solution`` rejects, or an energy below the bound.  The checks
    run off the clock.
    """
    from repro.continuous.bounds import critical_path_lower_bound
    from repro.core.validation import check_solution

    gc.collect()
    with on_cpu(turn):
        t0 = time.perf_counter()
        try:
            solution = solve(problem)
        except Exception as exc:  # a failed solve counts against ok_ratio
            print(f"large_dag: {problem.name}: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
            return time.perf_counter() - t0, None
        seconds = time.perf_counter() - t0
    try:
        check_solution(solution)
    except Exception as exc:
        print(f"large_dag: {problem.name}: check_solution: {exc}",
              file=sys.stderr)
        return seconds, None
    bound = critical_path_lower_bound(problem)
    if solution.energy < bound * (1.0 - inputs.RTOL):
        return seconds, None
    return seconds, solution.energy / bound


def _dag_pairs(seed: int, first: int, seconds: float, solve
               ) -> tuple[list[float], int]:
    """Solve layered/Erdős pairs for about ``seconds`` of solving; returns
    every solve's seconds and the number of correct answers.

    Pair ``k`` starts its CPU rotation at ``k``, so each shape is solved
    on every CPU in turn."""
    latencies: list[float] = []
    correct = 0
    shapes = len(inputs.LARGE_SHAPES)
    while _more(len(latencies) // shapes, sum(latencies), seconds):
        base = first + len(latencies)
        for shape, (graph_class, n_tasks) in enumerate(inputs.LARGE_SHAPES):
            problem = inputs.large_problem(
                graph_class, n_tasks,
                inputs.derive(seed, inputs.TIMED, base + shape))
            elapsed, ratio = _solve_checked(
                problem, solve, len(latencies) // shapes + shape)
            latencies.append(elapsed)
            correct += ratio is not None
    return latencies, correct


def _dag_check_sample(solve) -> tuple[int, float]:
    """(correct, energy_ratio) of the fixed half-size check sample."""
    ratios = []
    for index, (graph_class, n_tasks) in enumerate(inputs.LARGE_CHECK_SHAPES):
        _seconds, ratio = _solve_checked(inputs.large_problem(
            graph_class, n_tasks,
            inputs.derive(inputs.CHECK_SEED, inputs.CHECK, index)), solve)
        if ratio is not None:
            ratios.append(ratio)
    if not ratios:
        raise RuntimeError(
            "no large_dag check instance was answered correctly")
    return len(ratios), geometric_mean(ratios)


def run_large_dag(seed: int, seconds: float, trace: bool, root: Path,
                  workdir: Path, env: dict[str, str]) -> dict:
    warm_up("large_dag", workdir)
    solve = _solve_fn()
    sample_size = len(inputs.LARGE_CHECK_SHAPES)
    if trace:
        half = seconds / 2.0
        plain, plain_correct = _dag_pairs(seed, 0, half, solve)
        recorder = SpanRecorder()
        solve = install_sparse_probes(recorder, solve)
        traced, traced_correct = _dag_pairs(seed, len(plain), half, solve)
        timed_spans = len(recorder.spans)
        sample_correct, _ratio = _dag_check_sample(solve)
        layers = sparse_layers(recorder.spans[:timed_spans],
                               recorder.spans[timed_spans:])
        layers["trace.overhead"] = (len(traced) / sum(traced)) \
            / (len(plain) / sum(plain)) - 1.0
        return {"correct": plain_correct + traced_correct + sample_correct,
                "attempted": len(plain) + len(traced) + sample_size,
                "metrics": layers, "samples": {"solves": len(traced)}}
    latencies, correct = _dag_pairs(seed, 0, seconds, solve)
    rss = _peak_rss_mb(with_children=False)
    sample_correct, energy_ratio = _dag_check_sample(solve)
    shapes = len(inputs.LARGE_SHAPES)
    # the operation is a pair (one solve of each shape): percentiles over
    # single solves would fall between the two shapes' clusters
    pairs = [sum(latencies[i:i + shapes])
             for i in range(0, len(latencies), shapes)]
    rate = len(latencies) / sum(latencies)
    return {
        "correct": correct + sample_correct,
        "attempted": len(latencies) + sample_size,
        "metrics": {
            "setup_s": measure_setup("large_dag", root, workdir, env),
            "solves_per_s": rate,
            # a run holds about ten pairs, too few for a tail percentile:
            # these are the median and the slowest pair
            "latency_p50_ms": statistics.median(pairs) * 1e3,
            "latency_p90_ms": max(pairs) * 1e3,
            # no layer on this path remembers answers: every pass is warm
            "warm_solves_per_s": rate,
            "peak_rss_mb": rss,
            "energy_ratio": energy_ratio,
        },
        "samples": {"solves": len(latencies), "pair_s": pairs},
    }


def install_sparse_probes(recorder: SpanRecorder, solve):
    """Record the sparse path's layers; returns ``solve`` recording calls."""
    import repro.continuous.solve  # noqa: F401
    from repro.modeling import BACKENDS
    from repro.modeling.model import ConvexModel

    recorder.patch(sys.modules["repro.continuous.solve"],
                   "solve_general_convex_sparse", "continuous.sparse")
    recorder.patch(sys.modules["repro.continuous.sparse"],
                   "prune_redundant_edges", "continuous.sparse.prune")
    recorder.patch(ConvexModel, "materialize", "modeling.materialize")
    recorder.patch(sys.modules["repro.modeling.backends.mehrotra"], "splu",
                   "modeling.mehrotra.splu", lambda _args, lu: lu.nnz)
    # the registry holds the backend function itself: re-register it wrapped
    entry = BACKENDS.resolve("mehrotra-ipm")
    BACKENDS.register(
        entry.name, kinds=entry.kinds, options=entry.options,
        probe=entry.probe, optional=entry.optional, doc=entry.doc,
    )(recorder.wrap("modeling.mehrotra", entry.fn,
                    lambda _args, out: out[2].get("iterations")))
    return recorder.wrap("solve", solve)


def sparse_layers(timed: list[Span], sample: list[Span]) -> dict[str, float]:
    """Per-solve sparse-path metrics of the timed spans; the iteration count
    comes from the fixed check sample so that it repeats exactly."""
    own = self_times(timed)
    named: dict[str, list[Span]] = defaultdict(list)
    for span in timed:
        named[span.name].append(span)
    solves = max(1, len(named["solve"]))

    def busy_ms(name: str) -> float:
        return 1e3 * sum(own[s.id][1] for s in named[name]) / solves

    factors = named["modeling.mehrotra.splu"]
    sample_ipm = [s for s in sample if s.name == "modeling.mehrotra"]
    sample_solves = max(1, sum(1 for s in sample if s.name == "solve"))
    return {
        "continuous.sparse.prune_ms": busy_ms("continuous.sparse.prune"),
        "continuous.sparse.self_ms": busy_ms("continuous.sparse"),
        "modeling.materialize_ms": busy_ms("modeling.materialize"),
        "modeling.mehrotra.iterations": sum(s.value or 0 for s in sample_ipm)
        / sample_solves,
        "modeling.mehrotra.factor_ms": busy_ms("modeling.mehrotra.splu"),
        "modeling.mehrotra.lu_nnz": sum(s.value or 0 for s in factors)
        / max(1, len(factors)),
        "modeling.mehrotra.self_ms": busy_ms("modeling.mehrotra"),
    }
