"""Polynomial Continuous algorithm for tree-shaped execution graphs.

Theorem 2 covers trees; an in/out-tree is SP-decomposable (the root forms a
series block with the parallel composition of its subtrees), but a tree
needs no decomposition: each task is one combine node of Theorem 2's
passes.  This module provides

* :func:`is_tree` — structural recognition of in-trees and out-trees;
* :func:`tree_plan` — the tree as combine nodes, one parent per task;
* :func:`tree_equivalent_load` — the equivalent load of any subtree;
* :func:`solve_tree` — optimal speeds.

The load obeys (out-tree rooted at ``r`` with subtrees ``C_1..C_k``)::

    L(r) = w_r + (L(C_1)**alpha + ... + L(C_k)**alpha) ** (1/alpha)

which is the paper's "nested expressions of this form" remark.  An in-tree
is handled by reversing the edge direction (the energy problem is invariant
under time reversal).

The passes are :func:`repro.continuous.series_parallel.fold_and_split`,
the ones the series-parallel solver and the vector core run: one bottom-up
fold of every subtree's load into its parent and one top-down split of
each parent's window, level by level over the whole tree.  No Python
recursion happens at any depth, so a 10,000-task chain solves without
touching the interpreter recursion limit.
"""

from __future__ import annotations

import numpy as np

from repro.continuous.series_parallel import plan_passes, solve_plan
from repro.core.power import PowerLaw
from repro.core.problem import MinEnergyProblem
from repro.core.solution import Solution
from repro.graphs.sp_decomposition import CombinePlan
from repro.graphs.taskgraph import TaskGraph
from repro.utils.errors import InvalidGraphError


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


def tree_plan(graph: TaskGraph, direction: str) -> CombinePlan:
    """The tree as combine nodes: every task is a P-combine node whose
    parent is the other end of its one edge towards the root.

    One scatter over the edges: an out-tree (``direction`` ``"out"``)
    edge's source is its target's parent, an in-tree edge's target is its
    source's parent.
    """
    idx = graph.index()
    n = idx.n_tasks
    parent = np.full(n, -1, dtype=np.int64)
    if direction == "out":
        parent[idx.edge_dst] = idx.edge_src
    else:
        parent[idx.edge_src] = idx.edge_dst
    return CombinePlan(works=idx.works, is_p=np.ones(n, dtype=bool),
                       parent=parent, task_node=np.arange(n, dtype=np.int64))


def tree_equivalent_load(graph: TaskGraph, root: str, *, alpha: float = 3.0,
                         direction: str = "out") -> float:
    """Equivalent load of the subtree rooted at ``root``.

    ``direction`` selects whether children are successors (out-tree) or
    predecessors (in-tree).  The load of a subtree only depends on the tasks
    below ``root``, so this is a lookup into the bottom-up pass over the
    whole tree.

    Raises
    ------
    InvalidGraphError
        If ``direction`` is neither ``"out"`` nor ``"in"``, the graph is
        not a tree in that direction (a chain is both), or ``root`` is not
        one of its tasks.
    InvalidModelError
        If ``alpha`` is not above 1, as :class:`~repro.core.power.PowerLaw`
        refuses it.
    """
    PowerLaw(alpha)
    if direction not in ("out", "in"):
        raise InvalidGraphError(
            f"direction must be 'out' or 'in', got {direction!r}")
    idx = graph.index()
    parents = idx.in_degree if direction == "out" else idx.out_degree
    if _tree_orientation(graph) is None or (parents > 1).any():
        raise InvalidGraphError(
            f"graph {graph.name!r} is not an {direction}-tree")
    if root not in idx.index_of:
        raise InvalidGraphError(
            f"graph {graph.name!r} has no task {root!r}")
    loads, _speeds = plan_passes(tree_plan(graph, direction), 1.0, alpha)
    return float(loads[idx.index_of[root]])


def solve_tree(problem: MinEnergyProblem) -> Solution:
    """Optimal Continuous solution for a tree execution graph (Theorem 2).

    Raises
    ------
    InvalidGraphError
        If the graph is not an in-tree or out-tree.
    SolverError
        If a finite ``s_max`` is violated by the uncapped optimum (fall
        back to the convex solver).
    """
    orientation = _tree_orientation(problem.graph)
    if orientation is None:
        raise InvalidGraphError(
            f"graph {problem.graph.name!r} is not an in-tree or out-tree")
    return solve_plan(problem, tree_plan(problem.graph, orientation),
                      solver="continuous-tree")
