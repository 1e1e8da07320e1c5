"""Polynomial Continuous algorithm for tree-shaped execution graphs.

Theorem 2 covers trees; an in/out-tree is SP-decomposable (the root forms a
series block with the parallel composition of its subtrees), so the
series-parallel algorithm applies.  This module provides

* :func:`is_tree` — structural recognition of in-trees and out-trees;
* :func:`tree_equivalent_load` — a *direct* recursive computation of the
  equivalent load that does not go through the generic decomposition (used
  to cross-check the SP machinery in tests);
* :func:`solve_tree` — optimal speeds, implemented by the direct recursion.

The load obeys (out-tree rooted at ``r`` with subtrees ``C_1..C_k``)::

    L(r) = w_r + (L(C_1)**alpha + ... + L(C_k)**alpha) ** (1/alpha)

which is the paper's "nested expressions of this form" remark.  An in-tree
is handled by reversing the edge direction (the energy problem is invariant
under time reversal).

The implementation is fully iterative: one bottom-up pass over the graph's
cached topological order memoises every subtree's equivalent load, and one
top-down pass splits each node's window between the node and its subtrees.
Both passes are O(n), and no Python recursion happens at any depth — a
10,000-task chain solves without touching the interpreter recursion limit
(the previous recursive formulation recomputed child loads at every level,
which was O(n²) and overflowed the stack beyond ~1000 tasks).
"""

from __future__ import annotations

import numpy as np

from repro.core.problem import MinEnergyProblem
from repro.core.solution import Solution, SpeedAssignment, make_solution
from repro.graphs.taskgraph import TaskGraph
from repro.utils.errors import InvalidGraphError, SolverError
from repro.utils.numerics import leq_with_tol


def is_tree(graph: TaskGraph) -> bool:
    """Whether the graph is a (weakly connected) out-tree or in-tree."""
    return _tree_orientation(graph) is not None


def _tree_orientation(graph: TaskGraph) -> str | None:
    """Return ``"out"``, ``"in"``, or ``None`` when the graph is not a tree."""
    n = graph.n_tasks
    if n == 0:
        return None
    if n == 1:
        return "out"
    if not graph.is_dag():
        return None
    idx = graph.index()
    if idx.n_edges != n - 1:
        return None
    # n - 1 edges into at most one task each leave exactly one task without
    # a parent, and in a DAG every task's parent chain ends there: the
    # graph is a connected out-tree (and symmetrically an in-tree)
    if (idx.in_degree <= 1).all():
        return "out"
    if (idx.out_degree <= 1).all():
        return "in"
    return None


def _tree_csr(graph: TaskGraph, direction: str):
    """``(index, child_ptr, child_idx, bottom_up_order)`` for a tree pass.

    Children are successors for an out-tree and predecessors for an in-tree;
    the bottom-up order is the cached topological order (reversed for the
    out orientation) so every child is visited before its parent.
    """
    idx = graph.index()
    if direction == "out":
        return idx, idx.succ_ptr.tolist(), idx.succ_idx.tolist(), idx.topo_order[::-1].tolist()
    return idx, idx.pred_ptr.tolist(), idx.pred_idx.tolist(), idx.topo_order.tolist()


def tree_equivalent_loads(graph: TaskGraph, *, alpha: float = 3.0,
                          direction: str = "out") -> np.ndarray:
    """Equivalent load of *every* subtree, in ``graph.index()`` order.

    One bottom-up pass over the cached topological order; each node combines
    its memoised child loads exactly once, so the whole vector costs O(n)
    regardless of the tree depth.
    """
    idx, child_ptr, child_idx, bottom_up = _tree_csr(graph, direction)
    works = idx.works.tolist()
    inv_alpha = 1.0 / alpha
    loads = [0.0] * idx.n_tasks
    for u in bottom_up:
        lo, hi = child_ptr[u], child_ptr[u + 1]
        if hi == lo:
            loads[u] = works[u]
            continue
        acc = 0.0
        for c in child_idx[lo:hi]:
            acc += loads[c] ** alpha
        loads[u] = works[u] + acc ** inv_alpha
    return np.asarray(loads)


def tree_equivalent_load(graph: TaskGraph, root: str, *, alpha: float = 3.0,
                         direction: str = "out") -> float:
    """Equivalent load of the subtree rooted at ``root``.

    ``direction`` selects whether children are successors (out-tree) or
    predecessors (in-tree).  The load of a subtree only depends on the tasks
    below ``root``, so this is a lookup into the memoised bottom-up pass of
    :func:`tree_equivalent_loads`.
    """
    loads = tree_equivalent_loads(graph, alpha=alpha, direction=direction)
    return float(loads[graph.index().index_of[root]])


def _assign_tree_speeds(graph: TaskGraph, root: str, window: float,
                        speeds: dict[str, float], *, alpha: float,
                        direction: str, loads: np.ndarray | None = None) -> None:
    """Assign optimal speeds to the subtree rooted at ``root`` within ``window``.

    Iterative top-down pass: each node splits its window between itself
    (proportionally to ``w / L``) and its subtrees, which all receive the
    remainder in parallel.  ``loads`` memoises the bottom-up equivalent
    loads; it is computed when not supplied.
    """
    idx, child_ptr, child_idx, bottom_up = _tree_csr(graph, direction)
    if loads is None:
        loads = tree_equivalent_loads(graph, alpha=alpha, direction=direction)
    load_list = loads.tolist()
    works = idx.works.tolist()
    names = idx.names
    windows = [0.0] * idx.n_tasks
    root_i = idx.index_of[root]
    windows[root_i] = window
    for u in reversed(bottom_up):  # top-down: parents before children
        win = windows[u]
        if u != root_i and win == 0.0:
            continue  # outside the requested subtree
        if win <= 0:
            raise SolverError("tree speed assignment received a non-positive window")
        lo, hi = child_ptr[u], child_ptr[u + 1]
        if hi == lo:
            speeds[names[u]] = works[u] / win
            continue
        own_window = win * works[u] / load_list[u]
        child_window = win - own_window
        speeds[names[u]] = works[u] / own_window
        for c in child_idx[lo:hi]:
            windows[c] = child_window


def solve_tree(problem: MinEnergyProblem, *, enforce_speed_cap: bool = True) -> Solution:
    """Optimal Continuous solution for a tree execution graph (Theorem 2).

    Raises
    ------
    InvalidGraphError
        If the graph is not an in-tree or out-tree.
    SolverError
        If a finite ``s_max`` is violated by the uncapped optimum and
        ``enforce_speed_cap`` is true (fall back to the convex solver).
    """
    graph = problem.graph
    orientation = _tree_orientation(graph)
    if orientation is None:
        raise InvalidGraphError(f"graph {graph.name!r} is not an in-tree or out-tree")
    idx = graph.index()
    roots = idx.in_degree if orientation == "out" else idx.out_degree
    root = idx.names[int(np.flatnonzero(roots == 0)[0])]
    alpha = problem.power.alpha
    loads = tree_equivalent_loads(graph, alpha=alpha, direction=orientation)
    speeds: dict[str, float] = {}
    _assign_tree_speeds(graph, root, problem.deadline, speeds, alpha=alpha,
                        direction=orientation, loads=loads)
    s_max = problem.model.max_speed
    if enforce_speed_cap:
        violating = [n for n, s in speeds.items() if not leq_with_tol(s, s_max)]
        if violating:
            raise SolverError(
                f"tree closed form violates s_max={s_max:g} on {len(violating)} task(s); "
                "use the general convex solver for this instance"
            )
    assignment = SpeedAssignment(speeds)
    load = float(loads[idx.index_of[root]])
    return make_solution(problem, assignment, solver="continuous-tree",
                         optimal=True, metadata={"equivalent_load": load})
