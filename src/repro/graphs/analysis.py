"""Structural analysis of task graphs.

These routines provide the graph-theoretic primitives the solvers rely on:

* topological orders (used by every propagation pass),
* weighted longest paths / critical paths (the minimum-makespan lower bound
  used by feasibility checks and by the Continuous lower bounds),
* transitive reduction and closure (used when building execution graphs and
  the NP-hardness gadgets),
* depth / width statistics (used by the workload generators and reporting).

All functions accept a :class:`repro.graphs.taskgraph.TaskGraph` and treat
task *work* as the vertex weight.  Edge weights are not used: the paper's
model has no communication costs.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Mapping

import numpy as np

from repro.graphs.taskgraph import TaskGraph
from repro.utils.errors import InvalidGraphError


def topological_order(graph: TaskGraph) -> list[str]:
    """Return a topological order of the tasks.

    The order comes from the graph's cached integer index
    (:meth:`repro.graphs.taskgraph.TaskGraph.index`), so repeated calls on an
    unmodified graph cost one list comprehension.

    Raises
    ------
    InvalidGraphError
        If the graph contains a cycle.
    """
    idx = graph.index()
    names = idx.names
    return [names[i] for i in idx.topo_order]


def longest_path_length(
    graph: TaskGraph,
    weight: (Callable[[str], float] | Mapping[str, float] | np.ndarray
             | None) = None,
) -> float:
    """Length of the longest (vertex-weighted) path.

    Parameters
    ----------
    graph:
        The task graph.
    weight:
        A vector of weights in ``graph.index()`` order (the cheap form: no
        per-task lookup, e.g. ``graph.index().works / s_max``), a callable
        mapping a task name to its weight, a mapping, or ``None`` to use
        the task work.  The weight of a path is the sum of the weights of
        its vertices (both endpoints included).

    Returns
    -------
    float
        0.0 for the empty graph.
    """
    if graph.n_tasks == 0:
        return 0.0
    idx = graph.index()
    if weight is None:
        weights = idx.works
    elif isinstance(weight, np.ndarray):
        if weight.shape != (idx.n_tasks,):
            raise InvalidGraphError(
                f"weight vector has shape {weight.shape}, expected "
                f"({idx.n_tasks},)")
        weights = weight
    elif callable(weight):
        weights = np.fromiter((weight(n) for n in idx.names),
                              dtype=float, count=idx.n_tasks)
    else:
        mapping = dict(weight)
        missing = set(idx.names) - set(mapping)
        if missing:
            raise InvalidGraphError(f"weight mapping is missing tasks: {sorted(missing)}")
        weights = idx.vector_of(mapping)
    # Python lists: per-task numpy calls would cost more than the work
    best = [0.0] * idx.n_tasks
    pred_ptr, pred_idx = idx.pred_ptr.tolist(), idx.pred_idx.tolist()
    for u, length in zip(idx.topo_order.tolist(),
                         weights[idx.topo_order].tolist()):
        lo, hi = pred_ptr[u], pred_ptr[u + 1]
        if hi - lo > 1:
            length += max(itemgetter(*pred_idx[lo:hi])(best))
        elif hi > lo:
            length += best[pred_idx[lo]]
        best[u] = length
    return max(best)


def critical_path(
    graph: TaskGraph,
    weight: Callable[[str], float] | Mapping[str, float] | None = None,
) -> tuple[float, list[str]]:
    """Return ``(length, tasks)`` of a maximum-weight path.

    Ties are broken deterministically (lexicographically smallest
    predecessor is preferred when reconstructing the path).
    """
    getter = _weight_getter(graph, weight)
    order = topological_order(graph)
    best: dict[str, float] = {}
    parent: dict[str, str | None] = {}
    for n in order:
        preds = graph.predecessors(n)
        if preds:
            # max by value; ties broken by name for determinism
            p_best = max(preds, key=lambda p: (best[p], p))
            # prefer lexicographically smallest among equal-valued parents
            candidates = [p for p in preds if best[p] == best[p_best]]
            p_best = min(candidates)
            best[n] = best[p_best] + getter(n)
            parent[n] = p_best
        else:
            best[n] = getter(n)
            parent[n] = None
    if not best:
        return 0.0, []
    end = max(best, key=lambda n: (best[n], n))
    end = min([n for n in best if best[n] == best[end]])
    path: list[str] = []
    cur: str | None = end
    while cur is not None:
        path.append(cur)
        cur = parent[cur]
    path.reverse()
    return best[end], path


def critical_path_tasks(graph: TaskGraph) -> list[str]:
    """Convenience wrapper returning only the tasks of a critical path."""
    return critical_path(graph)[1]


def ancestors(graph: TaskGraph, name: str) -> set[str]:
    """All tasks that must complete before ``name`` can start."""
    seen: set[str] = set()
    stack = list(graph.predecessors(name))
    while stack:
        n = stack.pop()
        if n in seen:
            continue
        seen.add(n)
        stack.extend(graph.predecessors(n))
    return seen


def descendants(graph: TaskGraph, name: str) -> set[str]:
    """All tasks that can only start after ``name`` completes."""
    seen: set[str] = set()
    stack = list(graph.successors(name))
    while stack:
        n = stack.pop()
        if n in seen:
            continue
        seen.add(n)
        stack.extend(graph.successors(n))
    return seen


def transitive_closure_pairs(graph: TaskGraph) -> set[tuple[str, str]]:
    """All ordered pairs ``(u, v)`` such that ``u`` precedes ``v`` transitively."""
    pairs: set[tuple[str, str]] = set()
    for n in graph.task_names():
        for d in descendants(graph, n):
            pairs.add((n, d))
    return pairs


def transitive_reduction(graph: TaskGraph) -> TaskGraph:
    """Return a copy of the graph with all transitively implied edges removed.

    An edge ``u -> v`` is redundant when there is another path from ``u`` to
    ``v`` of length at least two.  The reduction of a DAG is unique.
    """
    graph.validate()
    reduced = graph.copy(name=f"{graph.name}-tr")
    for u, v in graph.edges():
        # Is v reachable from u without using the direct edge?
        reduced.remove_edge(u, v)
        if v not in descendants(reduced, u):
            reduced.add_edge(u, v)
    return reduced


def graph_depth(graph: TaskGraph) -> int:
    """Number of tasks on a longest path counted by hops (unit weights)."""
    if graph.n_tasks == 0:
        return 0
    return graph.index().n_levels


def graph_width(graph: TaskGraph) -> int:
    """Maximum number of tasks at the same depth level (antichain proxy).

    The *level* of a task is the number of tasks on the longest hop-path
    ending at it.  The width reported here is the size of the largest level,
    which is a cheap, deterministic proxy for the maximum antichain used by
    the workload generators and the reporting layer.
    """
    if graph.n_tasks == 0:
        return 0
    return int(np.bincount(graph.index().level).max())


def levels(graph: TaskGraph) -> dict[str, int]:
    """Return the (1-based) level of every task.

    The level of a task is ``1 +`` the maximum level of its predecessors.
    """
    idx = graph.index()
    return {name: int(idx.level[i]) + 1 for i, name in enumerate(idx.names)}


def descendant_bitsets(graph: TaskGraph) -> np.ndarray:
    """Transitive-closure rows as packed uint64 bitsets.

    Row ``i`` has bit ``j`` set (word ``j // 64``, bit ``j % 64``) exactly
    when task ``j`` is a strict descendant of task ``i`` in the graph's
    integer index.  Computed in one reverse-topological pass that ORs each
    row together as one Python integer (one big-int OR per edge, instead of
    two numpy calls), then packed into words once, so a 10k-task chain
    costs ~12 MB instead of the quadratic per-node Python sets of
    :func:`descendants`.
    """
    idx = graph.index()
    n = idx.n_tasks
    n_words = (n + 63) // 64 if n else 1
    reach = [0] * n
    succ_ptr, succ_idx = idx.succ_ptr.tolist(), idx.succ_idx.tolist()
    for u in reversed(idx.topo_order.tolist()):
        row = 0
        for v in succ_idx[succ_ptr[u]:succ_ptr[u + 1]]:
            row |= reach[v] | (1 << v)
        reach[u] = row
    packed = bytearray(b"".join(row.to_bytes(8 * n_words, "little")
                                for row in reach))
    return np.frombuffer(packed, dtype="<u8").reshape(n, n_words)


def _weight_getter(
    graph: TaskGraph,
    weight: Callable[[str], float] | Mapping[str, float] | None,
) -> Callable[[str], float]:
    """Normalise the three accepted weight specifications into a callable."""
    if weight is None:
        return lambda n: graph.work(n)
    if callable(weight):
        return weight
    mapping = dict(weight)
    missing = set(graph.task_names()) - set(mapping)
    if missing:
        raise InvalidGraphError(f"weight mapping is missing tasks: {sorted(missing)}")
    return lambda n: mapping[n]
