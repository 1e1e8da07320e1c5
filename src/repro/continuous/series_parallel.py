"""Polynomial Continuous algorithm for series-parallel graphs (Theorem 2).

The algorithm works on the series-parallel decomposition tree
(:mod:`repro.graphs.sp_decomposition`) and is based on the notion of
*equivalent load*: for every SP-decomposable (sub)graph ``H`` there is a
single number ``L(H)`` such that the optimal energy of ``H`` under deadline
``d`` (cubic power law, no speed cap) is ``L(H)**3 / d**2``.  The load obeys

* a single task of work ``w``:            ``L = w``;
* series composition ``H1 ; H2``:         ``L = L1 + L2``;
* parallel composition ``H1 || H2``:      ``L = (L1**3 + L2**3) ** (1/3)``.

For the fork graph (source in series with the parallel composition of its
leaves) this reduces to ``L = w0 + (sum w_i**3)**(1/3)`` and yields exactly
the speeds of Theorem 1.  With a general power exponent ``alpha`` the
parallel rule becomes the ``alpha``-norm; the implementation is written for
general ``alpha`` and defaults to the paper's ``alpha = 3``.

Once the loads are known, the optimal speeds are obtained top-down: a
subgraph of load ``L`` solved within a window of length ``d`` runs "at pace
``L / d``"; a series node splits its window proportionally to its
children's loads; a parallel node gives the full window to every child; a
leaf of work ``w`` inside a window of length ``d`` runs at speed ``w / d``.

The correctness argument for the (relaxed) series composition used by the
decomposition — every task of the first block transitively precedes every
task of the second — is that in *any* feasible schedule all of the first
block finishes before any of the second starts, so the deadline can be
split, and conversely any split schedule is feasible because the dropped
cross edges are implied by the time separation.

One implementation of the two passes
------------------------------------
Every Theorem-2 solver in the package lowers its instance to a
:class:`CombinePlan`: *combine nodes*, each with a work amount, a kind and
the id of its one parent (-1 at a root).

- **P-combine** (``load = work + (sum load_c ** alpha) ** (1/alpha)``):
  tree tasks (Theorem 2's out/in-tree recursion) and SP parallel
  compositions (``work = 0``);
- **S-combine** (``load = work + sum load_c``): SP series compositions
  (``work = 0``).

:func:`sp_plan` lowers a decomposition tree, :func:`repro.continuous.tree.tree_plan`
a tree, and the vector core (:mod:`repro.batch.vectorized`) merges many
instances' nodes into one forest.  :func:`node_depths` gives every node its
depth by pointer jumping and :func:`fold_and_split` runs both passes over
all nodes at once: the nodes are sorted by depth once; bottom-up, each
level folds its loads into its parents with one ``bincount``; top-down,
each level gathers its share of its parent's window.  Every task's speed
is ``load / window``.  No pass recurses or walks decomposition objects, so
a 10,000-deep chain or caterpillar costs no interpreter stack.

``s_max`` handling: Theorem 2 assumes ``s_max = +inf`` for series-parallel
graphs.  :func:`solve_series_parallel` therefore solves the uncapped
problem; if the resulting speeds violate a finite ``s_max`` the caller
(:func:`repro.continuous.solve.solve_continuous`) falls back to the general
convex solver, which handles the cap exactly.
"""

from __future__ import annotations

from typing import Any, NamedTuple

import numpy as np

from repro.core.problem import MinEnergyProblem
from repro.core.solution import Solution, SpeedAssignment, make_solution
from repro.graphs.sp_decomposition import SPLeaf, SPParallel, sp_decompose
from repro.graphs.taskgraph import TaskGraph
from repro.utils.errors import NotSeriesParallelError, SolverError
from repro.utils.numerics import DEFAULT_ABS_TOL, DEFAULT_REL_TOL


class CombinePlan(NamedTuple):
    """Combine-node arrays of one lowered instance."""

    works: np.ndarray      # per combine node
    is_p: np.ndarray       # bool: P-combine (alpha-norm) vs S-combine
    parent: np.ndarray     # id of each node's parent, -1 at the root
    task_node: np.ndarray  # node id of each task, in task order


def sp_plan(graph: TaskGraph) -> CombinePlan:
    """Flatten ``sp_decompose(graph)`` into combine-node arrays.

    Leaves are P-combine nodes carrying the task work (they have no
    children, so the kind is irrelevant to the load pass but makes the
    top-down rule uniform); series/parallel compositions are zero-work
    S/P-combine nodes.  Raises :class:`NotSeriesParallelError` for non-SP
    graphs.
    """
    root = sp_decompose(graph)
    index_of = graph.index().index_of
    works: list[float] = []
    is_p: list[bool] = []
    parent: list[int] = [-1]
    task_node = np.empty(graph.n_tasks, dtype=np.int64)

    # breadth-first walk; ids are queue positions, so node 0 is the combine
    # root and the children of a node get consecutive ids, in child order
    queue: list[Any] = [root]
    for my_id, node in enumerate(queue):
        if isinstance(node, SPLeaf):
            works.append(node.work)
            is_p.append(True)
            task_node[index_of[node.task]] = my_id
            continue
        works.append(0.0)
        is_p.append(isinstance(node, SPParallel))
        if not node.children:  # pragma: no cover - decomposition invariant
            raise NotSeriesParallelError("empty composition in decomposition")
        queue.extend(node.children)
        parent.extend([my_id] * len(node.children))

    return CombinePlan(works=np.asarray(works, dtype=np.float64),
                       is_p=np.asarray(is_p, dtype=bool),
                       parent=np.asarray(parent, dtype=np.int64),
                       task_node=task_node)


def node_depths(parent: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Depth of every node under ``parent`` (-1 at a root), by pointer
    jumping, and the mask of nodes that never reach a root.

    Each jump doubles the distance to the ancestor a node points at, so a
    node of an acyclic forest reaches its root within ``size.bit_length()``
    jumps; one still short of a root after that sits on (or under) a
    parent cycle.
    """
    size = parent.shape[0]
    at_root = parent < 0
    anc = np.where(at_root, np.arange(size, dtype=np.int64), parent)
    depth = (~at_root).astype(np.int64)
    for _ in range(size.bit_length()):
        if at_root[anc].all():
            break
        depth += depth[anc]
        anc = anc[anc]
    return depth, ~at_root[anc]


def fold_and_split(works: np.ndarray, is_p: np.ndarray, parent: np.ndarray,
                   depth: np.ndarray, window: np.ndarray, alpha: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Theorem 2's two passes over a forest of combine nodes.

    Every argument holds one entry per node: its work, its kind (``is_p``:
    P-combine, else S-combine), its parent (-1 at a root), its depth (0 at
    a root), its instance's deadline (read at the roots only) and its
    instance's power exponent.  Returns every node's equivalent load and
    speed (``load / window``; NaN where a window is not positive), in node
    order.  Siblings fold in node order.
    """
    # level-sort every node (stable keeps node order within a level)
    order = np.argsort(depth, kind="stable")
    size = order.shape[0]
    pos = np.empty(size, dtype=np.int64)
    pos[order] = np.arange(size, dtype=np.int64)
    work_s = works[order]
    is_p_s = is_p[order]
    alpha_s = alpha[order]
    #: level ``lvl`` holds sorted positions ``bounds[lvl]:bounds[lvl + 1]``
    bounds = [0] + np.cumsum(np.bincount(depth)).tolist()
    #: sorted position of each node's parent, and its offset into the
    #: parents' level (a root's entries are never read)
    up_s = pos[parent[order]]
    up_off = up_s - np.asarray(bounds)[depth[order] - 1]
    #: the exponent a node's kind folds its children's loads with, and the
    #: one its parent folds it with
    fold_exp = np.where(is_p_s, alpha_s, 1.0)
    inv_exp = np.where(is_p_s, 1.0 / alpha_s, 1.0)
    child_exp = fold_exp[up_s]

    # bottom-up equivalent loads: each level folds into its parents with
    # one bincount
    loads = work_s.copy()
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for lvl in range(len(bounds) - 2, 0, -1):
            p0, c0, c1 = bounds[lvl - 1:lvl + 2]
            seg = np.bincount(up_off[c0:c1],
                              weights=loads[c0:c1] ** child_exp[c0:c1],
                              minlength=c0 - p0)
            np.power(seg, inv_exp[p0:c0], out=seg)
            loads[p0:c0] = work_s[p0:c0] + seg

        # top-down windows: a root keeps its deadline, and each level
        # gathers its share from its parents: an S-combine's children a
        # share proportional to their own load, a P-combine's children
        # all the remainder its own work leaves
        rest = np.where(is_p_s, loads - work_s, 1.0)
        share = np.where(is_p_s[up_s], 1.0, loads)
        win = window[order]
        for lvl in range(1, len(bounds) - 1):
            p0, c0, c1 = bounds[lvl - 1:lvl + 2]
            factor = win[p0:c0] / loads[p0:c0] * rest[p0:c0]
            win[c0:c1] = factor[up_off[c0:c1]] * share[c0:c1]
        speeds = loads / np.where(win > 0.0, win, np.nan)
    return loads[pos], speeds[pos]


def plan_passes(plan: CombinePlan, deadline: float, alpha: float
                ) -> tuple[np.ndarray, np.ndarray]:
    """:func:`fold_and_split` over one instance's plan: every node's
    equivalent load and speed under ``deadline``."""
    size = plan.works.shape[0]
    return fold_and_split(plan.works, plan.is_p, plan.parent,
                          node_depths(plan.parent)[0],
                          np.full(size, deadline), np.full(size, alpha))


def solve_plan(problem: MinEnergyProblem, plan: CombinePlan, *,
               solver: str) -> Solution:
    """The Theorem-2 solution of ``problem`` lowered to ``plan``.

    Raises :class:`SolverError` when a window degenerates or an uncapped
    optimal speed exceeds a finite ``s_max`` (the caller falls back to the
    convex solver).
    """
    loads, speeds = plan_passes(plan, problem.deadline, problem.power.alpha)
    speeds = speeds[plan.task_node]
    if not np.isfinite(speeds).all():
        raise SolverError(f"{solver} found no finite speed for some task "
                          "(a degenerate window or an overflowing load)")
    s_max = problem.model.max_speed
    violating = speeds > s_max + DEFAULT_ABS_TOL + DEFAULT_REL_TOL * s_max
    if violating.any():
        raise SolverError(
            f"{solver} requires speed {speeds.max():g} > s_max {s_max:g} for "
            f"{int(violating.sum())} task(s); Theorem 2 assumes an uncapped "
            "s_max — use the general convex solver for this instance")
    assignment = SpeedAssignment(dict(zip(problem.graph.index().names,
                                          speeds.tolist())))
    return make_solution(
        problem, assignment, solver=solver, optimal=True,
        metadata={"equivalent_load": float(loads[plan.parent < 0][0])})


def equivalent_load(graph: TaskGraph, *, alpha: float = 3.0) -> float:
    """Equivalent load of an SP-decomposable task graph.

    The optimal Continuous energy under deadline ``D`` (without a speed cap)
    is ``equivalent_load(G)**alpha / D**(alpha - 1)``.
    """
    return float(plan_passes(sp_plan(graph), 1.0, alpha)[0][0])


def solve_series_parallel(problem: MinEnergyProblem) -> Solution:
    """Optimal Continuous solution for an SP-decomposable execution graph.

    Parameters
    ----------
    problem:
        The instance; its graph must be SP-decomposable
        (:func:`repro.graphs.sp_decomposition.is_series_parallel`).

    Raises
    ------
    NotSeriesParallelError
        If the graph is not SP-decomposable.
    SolverError
        If the model has a finite ``s_max`` that the uncapped optimum
        violates.
    """
    return solve_plan(problem, sp_plan(problem.graph),
                      solver="continuous-series-parallel")
