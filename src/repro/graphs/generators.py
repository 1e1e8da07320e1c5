"""Synthetic task-graph generators.

The paper motivates the problem with pre-allocated legacy applications; no
public traces ship with it, so the evaluation harness (like the companion
research report) relies on synthetic graph families.  Each generator below
produces one of the structural classes the algorithms are sensitive to:

* ``chain``            — a single sequential dependence chain,
* ``fork`` / ``join``  — the graphs of Theorem 1 (one source fanning out /
                          one sink fanning in),
* ``fork_join``        — a source, ``n`` parallel tasks, a sink,
* ``random_tree``      — out-trees (and in-trees via ``reverse``) covered by
                          Theorem 2,
* ``random_series_parallel`` — nested series/parallel compositions covered
                          by Theorem 2,
* ``layered_dag``      — random layered DAGs (the classic workload of
                          scheduling simulation studies),
* ``erdos_dag``        — a DAG obtained by orienting an Erdős–Rényi graph
                          along a random permutation,
* ``diamond``          — a 2-D pipeline / wavefront dependency structure.

Task works are drawn from a configurable distribution (uniform by default)
so the weight heterogeneity the closed forms depend on is exercised.

Every generator emits index-ordered arrays through
:meth:`repro.graphs.taskgraph.TaskGraph.from_arrays`, so the graph gets its
index without building the per-task dict layer.  The random draws, and
their order, are those of one draw per task and per candidate edge; draws
are batched only where that leaves the stream unchanged.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.graphs.taskgraph import TaskGraph
from repro.utils.errors import InvalidGraphError
from repro.utils.rng import RngLike, make_rng

WorkSampler = Callable[[np.random.Generator], float]

#: Uniform draws per ``rng.random`` call of :func:`erdos_dag`: one call per
#: block draws the same stream as one draw per pair, in bounded memory.
_DRAW_BLOCK = 1 << 20


#: Bounds of the default work distribution (:func:`uniform_works`'s).
_WORK_LOW, _WORK_HIGH = 1.0, 10.0


def uniform_works(low: float = _WORK_LOW,
                  high: float = _WORK_HIGH) -> WorkSampler:
    """Return a sampler drawing works uniformly from ``[low, high]``."""
    if not (0 < low <= high):
        raise InvalidGraphError("uniform work bounds must satisfy 0 < low <= high")
    span = high - low
    # the arithmetic of Generator.uniform, without its per-call overhead
    return lambda rng: low + span * rng.random()


def lognormal_works(mean: float = 1.0, sigma: float = 0.5) -> WorkSampler:
    """Return a sampler drawing works from a log-normal distribution."""
    if sigma < 0:
        raise InvalidGraphError("sigma must be non-negative")
    return lambda rng: float(np.exp(rng.normal(np.log(mean), sigma)))


def constant_works(value: float = 1.0) -> WorkSampler:
    """Return a sampler producing the constant work ``value``."""
    if value <= 0:
        raise InvalidGraphError("constant work must be strictly positive")
    return lambda rng: value


def _sample_works(rng: np.random.Generator, count: int,
                  sampler: WorkSampler | None) -> list[float]:
    if sampler is None:
        # the default sampler's draws in one call: the same stream, and the
        # same product and sum of each draw, so the same floats
        return (_WORK_LOW + (_WORK_HIGH - _WORK_LOW)
                * rng.random(count)).tolist()
    return [sampler(rng) for _ in range(count)]


# --------------------------------------------------------------------------- #
# deterministic structures
# --------------------------------------------------------------------------- #
def chain(n: int, *, works: list[float] | None = None, seed: RngLike = None,
          work_sampler: WorkSampler | None = None, name: str = "chain") -> TaskGraph:
    """A chain ``T1 -> T2 -> ... -> Tn``."""
    if n < 1:
        raise InvalidGraphError("a chain needs at least one task")
    rng = make_rng(seed)
    w = works if works is not None else _sample_works(rng, n, work_sampler)
    if len(w) != n:
        raise InvalidGraphError(f"expected {n} works, got {len(w)}")
    order = np.arange(n)
    return TaskGraph.from_arrays([f"T{i + 1}" for i in range(n)], w,
                                 order[:-1], order[1:], name=name)


def fork(n: int, *, source_work: float | None = None,
         works: list[float] | None = None, seed: RngLike = None,
         work_sampler: WorkSampler | None = None, name: str = "fork") -> TaskGraph:
    """A fork graph: source ``T0`` preceding ``n`` independent tasks.

    This is the graph of Theorem 1 of the paper; the closed-form optimal
    speeds under the Continuous model live in
    :func:`repro.continuous.fork.solve_fork`.
    """
    names, all_works, hub, leaves = _star(n, source_work, works, seed,
                                          work_sampler)
    return TaskGraph.from_arrays(names, all_works, hub, leaves, name=name)


def join(n: int, *, sink_work: float | None = None,
         works: list[float] | None = None, seed: RngLike = None,
         work_sampler: WorkSampler | None = None, name: str = "join") -> TaskGraph:
    """A join graph: ``n`` independent tasks all preceding a sink ``T0``.

    By symmetry (time reversal) the optimal Continuous speeds are the same
    as for the fork with identical weights.
    """
    names, all_works, hub, leaves = _star(n, sink_work, works, seed,
                                          work_sampler)
    return TaskGraph.from_arrays(names, all_works, leaves, hub, name=name)


def _star(n: int, hub_work: float | None, works: list[float] | None,
          seed: RngLike, work_sampler: WorkSampler | None
          ) -> tuple[list[str], list[float], np.ndarray, np.ndarray]:
    """Tasks and edges of a fork: hub ``T0`` to leaves ``T1..Tn``.

    The leaf works are drawn before the hub's; :func:`join` is the same
    arrays with every edge turned round.
    """
    if n < 1:
        raise InvalidGraphError("a fork needs at least one leaf task")
    rng = make_rng(seed)
    leaf_works = works if works is not None else _sample_works(rng, n, work_sampler)
    if len(leaf_works) != n:
        raise InvalidGraphError(f"expected {n} leaf works, got {len(leaf_works)}")
    if hub_work is None:
        hub_work = _sample_works(rng, 1, work_sampler)[0]
    names = ["T0"] + [f"T{i + 1}" for i in range(n)]
    return (names, [hub_work, *leaf_works], np.zeros(n, dtype=np.int64),
            np.arange(1, n + 1))


def fork_join(n: int, *, source_work: float | None = None,
              sink_work: float | None = None, works: list[float] | None = None,
              seed: RngLike = None, work_sampler: WorkSampler | None = None,
              name: str = "fork-join") -> TaskGraph:
    """Source, ``n`` parallel tasks, sink — the basic bulk-synchronous kernel."""
    if n < 1:
        raise InvalidGraphError("a fork-join needs at least one middle task")
    rng = make_rng(seed)
    mid = works if works is not None else _sample_works(rng, n, work_sampler)
    if len(mid) != n:
        raise InvalidGraphError(f"expected {n} middle works, got {len(mid)}")
    if source_work is None:
        source_work = _sample_works(rng, 1, work_sampler)[0]
    if sink_work is None:
        sink_work = _sample_works(rng, 1, work_sampler)[0]
    middle = np.arange(2, n + 2)
    ends = np.zeros(n, dtype=np.int64)
    return TaskGraph.from_arrays(
        ["src", "snk"] + [f"T{i + 1}" for i in range(n)],
        [source_work, sink_work, *mid],
        np.concatenate((ends, middle)), np.concatenate((middle, ends + 1)),
        name=name)


def diamond(rows: int, cols: int, *, seed: RngLike = None,
            work_sampler: WorkSampler | None = None,
            name: str = "diamond") -> TaskGraph:
    """A 2-D wavefront: task ``(i, j)`` depends on ``(i-1, j)`` and ``(i, j-1)``.

    This is the dependence structure of dynamic-programming sweeps and
    stencil pipelines; it is neither a tree nor series-parallel, so it
    exercises the general convex solver.
    """
    if rows < 1 or cols < 1:
        raise InvalidGraphError("diamond dimensions must be positive")
    rng = make_rng(seed)
    names = [f"T{i}_{j}" for i in range(rows) for j in range(cols)]
    works = _sample_works(rng, len(names), work_sampler)
    cell = np.arange(rows * cols).reshape(rows, cols)
    down, right = cell[:-1, :].ravel(), cell[:, :-1].ravel()
    return TaskGraph.from_arrays(
        names, works, np.concatenate((down, right)),
        np.concatenate((down + cols, right + 1)), name=name)


# --------------------------------------------------------------------------- #
# random structures
# --------------------------------------------------------------------------- #
def random_tree(n: int, *, seed: RngLike = None, max_children: int = 4,
                work_sampler: WorkSampler | None = None,
                direction: str = "out", name: str = "tree") -> TaskGraph:
    """A random rooted tree with ``n`` tasks.

    Parameters
    ----------
    direction:
        ``"out"`` for an out-tree (edges point away from the root, the
        structure Theorem 2 covers), ``"in"`` for an in-tree (edges point
        towards the root).
    max_children:
        Upper bound on the number of children attached to any node.
    """
    if n < 1:
        raise InvalidGraphError("a tree needs at least one task")
    if direction not in ("out", "in"):
        raise InvalidGraphError(f"direction must be 'out' or 'in', got {direction!r}")
    if max_children < 1:
        raise InvalidGraphError("max_children must be at least 1")
    rng = make_rng(seed)
    sampler = work_sampler or uniform_works()
    works = [sampler(rng)]
    # attach each new node to a uniformly random node that still has
    # capacity; the swap-remove list keeps the draw uniform over exactly
    # those nodes while staying O(1) per attachment (the previous
    # rebuild-the-candidate-list loop was O(n²) and took minutes at 10k)
    available = [0]
    child_count = [0] * n
    parents = []
    for i in range(1, n):
        k = int(rng.integers(0, len(available)))
        parent = available[k]
        child_count[parent] += 1
        if child_count[parent] >= max_children:
            available[k] = available[-1]
            available.pop()
        available.append(i)
        parents.append(parent)
        works.append(sampler(rng))
    children = np.arange(1, n)
    src, dst = (parents, children) if direction == "out" else (children, parents)
    return TaskGraph.from_arrays([f"T{i + 1}" for i in range(n)], works,
                                 src, dst, name=name)


def random_series_parallel(n: int, *, seed: RngLike = None,
                           series_probability: float = 0.5,
                           work_sampler: WorkSampler | None = None,
                           name: str = "series-parallel") -> TaskGraph:
    """A random (vertex) series-parallel task graph with ``n`` tasks.

    The graph is built by recursively splitting the task budget: a budget of
    one task yields a leaf; otherwise the budget is split in two and the
    sub-graphs are composed either in series (every sink of the first
    precedes every source of the second) or in parallel (disjoint union).
    The result is series-parallel by construction and is recognised by
    :func:`repro.graphs.sp_decomposition.is_series_parallel`.
    """
    if n < 1:
        raise InvalidGraphError("need at least one task")
    if not (0.0 <= series_probability <= 1.0):
        raise InvalidGraphError("series_probability must be in [0, 1]")
    rng = make_rng(seed)
    sampler = work_sampler or uniform_works()
    works: list[float] = []
    src: list[int] = []
    dst: list[int] = []

    def build(budget: int) -> tuple[list[int], list[int]]:
        """Build a sub-graph with ``budget`` tasks; return (sources, sinks)."""
        if budget == 1:
            works.append(sampler(rng))
            return [len(works) - 1], [len(works) - 1]
        left_budget = int(rng.integers(1, budget))
        right_budget = budget - left_budget
        left_src, left_snk = build(left_budget)
        right_src, right_snk = build(right_budget)
        if rng.random() < series_probability:
            for u in left_snk:
                src.extend([u] * len(right_src))
                dst.extend(right_src)
            return left_src, right_snk
        return left_src + right_src, left_snk + right_snk

    build(n)
    return TaskGraph.from_arrays([f"T{i + 1}" for i in range(n)], works,
                                 src, dst, name=name)


def layered_dag(n: int, *, seed: RngLike = None, layers: int | None = None,
                edge_probability: float = 0.3,
                work_sampler: WorkSampler | None = None,
                name: str = "layered-dag") -> TaskGraph:
    """A random layered DAG with ``n`` tasks.

    Tasks are spread over ``layers`` consecutive layers; each task in layer
    ``k > 1`` receives at least one predecessor from layer ``k - 1`` and,
    independently with probability ``edge_probability``, additional edges
    from every task of layer ``k - 1``.  This is the standard synthetic
    workload of DAG-scheduling simulation studies and is in general neither
    a tree nor series-parallel.
    """
    if n < 1:
        raise InvalidGraphError("need at least one task")
    if not (0.0 <= edge_probability <= 1.0):
        raise InvalidGraphError("edge_probability must be in [0, 1]")
    rng = make_rng(seed)
    if layers is None:
        layers = max(1, int(round(np.sqrt(n))))
    layers = min(layers, n)
    # distribute n tasks over the layers, at least one per layer (draws
    # are batched where that leaves the random stream unchanged)
    sizes = [1] * layers
    for k in rng.integers(0, layers, size=n - layers).tolist():
        sizes[k] += 1
    works = _sample_works(rng, n, work_sampler)  # layer by layer, in task order
    size = np.array(sizes, dtype=np.int64)
    # one row per task past the first layer, in the stream's order: the
    # forced predecessor (ensures connectivity to the previous layer), then
    # one draw for each other task of the previous layer, into
    # draws[ptr[r]:ptr[r + 1]]
    width = np.repeat(size[:-1], size[1:])
    ptr = np.concatenate(([0], np.cumsum(width - 1)))
    forced = np.empty(len(width), dtype=np.int64)
    draws = np.empty(int(ptr[-1]))
    bounds = ptr.tolist()
    for row, w in enumerate(width.tolist()):
        forced[row] = rng.integers(0, w)
        rng.random(out=draws[bounds[row]:bounds[row + 1]])
    hits = np.flatnonzero(draws < edge_probability)
    rows = np.searchsorted(ptr, hits, side="right") - 1
    # column c stands for previous-layer task c, skipping the forced one
    cols = hits - ptr[rows]
    cols += cols >= forced[rows]
    # the first task of each row's previous layer, and the row's own task
    prev = np.repeat((np.cumsum(size) - size)[:-1], size[1:])
    target = np.arange(size[0], n)
    return TaskGraph.from_arrays(
        [f"T{i + 1}" for i in range(n)], works,
        np.concatenate((prev + forced, prev[rows] + cols)),
        np.concatenate((target, target[rows])), name=name)


def erdos_dag(n: int, *, seed: RngLike = None, edge_probability: float = 0.15,
              work_sampler: WorkSampler | None = None,
              name: str = "erdos-dag") -> TaskGraph:
    """A random DAG obtained by orienting an Erdős–Rényi graph.

    Every pair ``(i, j)`` with ``i < j`` in a random permutation receives an
    edge independently with probability ``edge_probability``; edges always
    point from the earlier to the later task in the permutation, so the
    result is acyclic.
    """
    if n < 1:
        raise InvalidGraphError("need at least one task")
    if not (0.0 <= edge_probability <= 1.0):
        raise InvalidGraphError("edge_probability must be in [0, 1]")
    rng = make_rng(seed)
    works = _sample_works(rng, n, work_sampler)
    perm = rng.permutation(n)
    # pair (a, b), a < b, takes draw row_start[a] + b - a - 1: the pairs in
    # row-major order, as one draw per pair would take them
    row_start = np.concatenate(([0], np.cumsum(np.arange(n - 1, 0, -1))))
    pairs = n * (n - 1) // 2
    hits = np.concatenate([
        lo + np.flatnonzero(rng.random(min(_DRAW_BLOCK, pairs - lo))
                            < edge_probability)
        for lo in range(0, pairs, _DRAW_BLOCK)] or [np.zeros(0, np.int64)])
    a = np.searchsorted(row_start, hits, side="right") - 1
    b = hits - row_start[a] + a + 1
    return TaskGraph.from_arrays([f"T{i + 1}" for i in range(n)], works,
                                 perm[a], perm[b], name=name)


#: Registry of graph-class constructors used by the experiment harness.
GRAPH_CLASSES: dict[str, Callable[..., TaskGraph]] = {
    "chain": chain,
    "fork": fork,
    "join": join,
    "fork_join": fork_join,
    "tree": random_tree,
    "series_parallel": random_series_parallel,
    "layered": layered_dag,
    "erdos": erdos_dag,
    "diamond": lambda n, **kw: diamond(max(1, int(np.sqrt(n))),
                                       max(1, int(np.ceil(n / max(1, int(np.sqrt(n)))))),
                                       **kw),
}
