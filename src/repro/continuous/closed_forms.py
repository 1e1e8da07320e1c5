"""Closed-form Continuous solutions for simple graph shapes.

This module implements Theorem 1 of the paper (fork graphs) together with
the two even simpler shapes used throughout the tests and experiments:

* a **single task** runs at ``w / D`` (finish exactly at the deadline);
* a **chain** runs every task at the common speed ``(sum of works) / D``
  (equal speeds follow from the convexity of the power law: any speed
  imbalance between two consecutive tasks can be smoothed to reduce
  energy);
* a **fork** ``T0 -> {T1..Tn}`` runs the source at
  ``s0 = ((sum w_i^alpha)^(1/alpha) + w0) / D`` and each leaf at
  ``s_i = s0 * w_i / (sum w_i^alpha)^(1/alpha)`` — with ``alpha = 3`` this
  is exactly the cube-root-of-sum-of-cubes formula of Theorem 1.  When the
  unconstrained ``s0`` exceeds ``s_max``, the source saturates at ``s_max``
  and every leaf runs at ``w_i / (D - w0 / s_max)`` (the paper's second
  branch); if a leaf then needs more than ``s_max`` the instance is
  infeasible;
* a **join** is the time-reversed fork and has the same optimal speeds.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.models import ContinuousModel
from repro.core.problem import MinEnergyProblem
from repro.core.solution import Solution, SpeedAssignment, make_solution
from repro.graphs.taskgraph import GraphIndex
from repro.utils.errors import InfeasibleProblemError, InvalidGraphError
from repro.utils.numerics import leq_with_tol


def solve_single_task(problem: MinEnergyProblem) -> Solution:
    """Optimal Continuous solution for a single-task graph."""
    idx = problem.graph.index()
    if idx.n_tasks != 1:
        raise InvalidGraphError("solve_single_task requires exactly one task")
    name = idx.names[0]
    speed = float(idx.works[0]) / problem.deadline
    s_max = problem.model.max_speed
    if not leq_with_tol(speed, s_max):
        raise InfeasibleProblemError(
            f"single task {name!r} needs speed {speed:g} > s_max {s_max:g}"
        )
    assignment = SpeedAssignment({name: speed})
    return make_solution(problem, assignment, solver="continuous-single",
                         optimal=True)


def solve_chain(problem: MinEnergyProblem) -> Solution:
    """Optimal Continuous solution for a chain execution graph.

    Every task runs at the same speed ``W / D`` where ``W`` is the total
    work: by strict convexity of the power law, any two consecutive tasks
    running at different speeds can both be moved towards their common
    average speed without violating the deadline while strictly decreasing
    the energy, so the optimum uses a single speed.
    """
    idx = problem.graph.index()
    _assert_is_chain(idx)
    total = sum(idx.works.tolist())
    speed = total / problem.deadline
    s_max = problem.model.max_speed
    if not leq_with_tol(speed, s_max):
        raise InfeasibleProblemError(
            f"chain requires common speed {speed:g} > s_max {s_max:g}"
        )
    assignment = SpeedAssignment(dict.fromkeys(idx.names, speed))
    return make_solution(problem, assignment, solver="continuous-chain",
                         optimal=True)


def fork_optimal_speeds(source_work: float, leaf_works: list[float],
                        deadline: float, *, s_max: float = math.inf,
                        alpha: float = 3.0) -> tuple[float, list[float]]:
    """Theorem 1: optimal speeds ``(s0, [s1..sn])`` for a fork graph.

    Parameters
    ----------
    source_work:
        Work ``w0`` of the source task ``T0``.
    leaf_works:
        Works ``w1..wn`` of the independent successor tasks.
    deadline:
        The bound ``D``.
    s_max:
        Maximum admissible speed (``inf`` for the unconstrained branch).
    alpha:
        Power-law exponent; 3 reproduces the paper's formula (cube root of
        the sum of cubes).

    Raises
    ------
    InfeasibleProblemError
        If even the saturated branch cannot meet the deadline.
    """
    if deadline <= 0:
        raise InfeasibleProblemError("deadline must be positive")
    if not leaf_works:
        raise InvalidGraphError("a fork needs at least one leaf")
    norm = sum(w ** alpha for w in leaf_works) ** (1.0 / alpha)
    s0 = (norm + source_work) / deadline
    if leq_with_tol(s0, s_max):
        if norm == 0.0:
            leaf_speeds = [0.0 for _ in leaf_works]
        else:
            leaf_speeds = [s0 * w / norm for w in leaf_works]
        return s0, leaf_speeds
    # saturated branch: source at s_max, leaves share the remaining window
    s0 = s_max
    remaining = deadline - source_work / s_max
    if remaining <= 0:
        raise InfeasibleProblemError(
            f"source alone needs {source_work / s_max:g} time units at s_max, "
            f"which exceeds the deadline {deadline:g}"
        )
    leaf_speeds = [w / remaining for w in leaf_works]
    for w, s in zip(leaf_works, leaf_speeds):
        if not leq_with_tol(s, s_max):
            raise InfeasibleProblemError(
                f"leaf with work {w:g} needs speed {s:g} > s_max {s_max:g} "
                "in the saturated branch: no feasible solution exists"
            )
    return s0, leaf_speeds


def solve_fork(problem: MinEnergyProblem) -> Solution:
    """Optimal Continuous solution for a fork execution graph (Theorem 1)."""
    idx = problem.graph.index()
    source, leaves = _fork_structure(idx)
    works = idx.works.tolist()
    s0, leaf_speeds = fork_optimal_speeds(
        works[source],
        [works[i] for i in leaves],
        problem.deadline,
        s_max=problem.model.max_speed,
        alpha=problem.power.alpha,
    )
    speeds = {idx.names[source]: s0}
    speeds.update(zip((idx.names[i] for i in leaves), leaf_speeds))
    assignment = SpeedAssignment(speeds)
    return make_solution(problem, assignment, solver="continuous-fork-closed-form",
                         optimal=True)


def solve_join(problem: MinEnergyProblem) -> Solution:
    """Optimal Continuous solution for a join execution graph.

    A join is the time reversal of a fork, and time reversal leaves both the
    energy and the set of feasible duration vectors unchanged, so the
    optimal speeds coincide with those of the corresponding fork.
    """
    idx = problem.graph.index()
    sink, leaves = _join_structure(idx)
    works = idx.works.tolist()
    s_sink, leaf_speeds = fork_optimal_speeds(
        works[sink],
        [works[i] for i in leaves],
        problem.deadline,
        s_max=problem.model.max_speed,
        alpha=problem.power.alpha,
    )
    speeds = {idx.names[sink]: s_sink}
    speeds.update(zip((idx.names[i] for i in leaves), leaf_speeds))
    assignment = SpeedAssignment(speeds)
    return make_solution(problem, assignment, solver="continuous-join-closed-form",
                         optimal=True)


# --------------------------------------------------------------------------- #
# structure checks
# --------------------------------------------------------------------------- #
def _assert_is_chain(idx: GraphIndex) -> None:
    n = idx.n_tasks
    if not n:
        raise InvalidGraphError("empty graph")
    indeg, outdeg = idx.in_degree, idx.out_degree
    if np.count_nonzero(indeg == 0) != 1 or np.count_nonzero(outdeg == 0) != 1:
        raise InvalidGraphError("a chain has exactly one source and one sink")
    broken = np.flatnonzero((outdeg > 1) | (indeg > 1))
    if len(broken):
        raise InvalidGraphError(
            f"task {idx.names[broken[0]]!r} breaks the chain structure")
    if idx.n_edges != n - 1:
        raise InvalidGraphError("graph is not a single connected chain")


def _fork_structure(idx: GraphIndex) -> tuple[int, list[int]]:
    """``(source, leaves)`` indices, leaves in name order, or raise if the
    graph is not a fork."""
    sources = np.flatnonzero(idx.in_degree == 0)
    if len(sources) != 1:
        raise InvalidGraphError("a fork has exactly one source")
    source = int(sources[0])
    leaves = sorted(idx.successors_of(source).tolist(), key=idx.names.__getitem__)
    if len(leaves) + 1 != idx.n_tasks:
        raise InvalidGraphError("a fork's source must directly precede every other task")
    for leaf in leaves:
        if idx.out_degree[leaf] != 0 or idx.in_degree[leaf] != 1:
            raise InvalidGraphError(f"task {idx.names[leaf]!r} breaks the fork structure")
    if not leaves:
        raise InvalidGraphError("a fork needs at least one leaf")
    return source, leaves


def _join_structure(idx: GraphIndex) -> tuple[int, list[int]]:
    """``(sink, leaves)`` indices, leaves in name order, or raise if the
    graph is not a join."""
    sinks = np.flatnonzero(idx.out_degree == 0)
    if len(sinks) != 1:
        raise InvalidGraphError("a join has exactly one sink")
    sink = int(sinks[0])
    leaves = sorted(idx.predecessors_of(sink).tolist(), key=idx.names.__getitem__)
    if len(leaves) + 1 != idx.n_tasks:
        raise InvalidGraphError("a join's sink must directly succeed every other task")
    for leaf in leaves:
        if idx.in_degree[leaf] != 0 or idx.out_degree[leaf] != 1:
            raise InvalidGraphError(f"task {idx.names[leaf]!r} breaks the join structure")
    if not leaves:
        raise InvalidGraphError("a join needs at least one source task")
    return sink, leaves
