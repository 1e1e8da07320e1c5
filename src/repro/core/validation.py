"""Validation of solutions against their problems.

The validator re-derives everything from first principles (durations from
speeds, an ASAP schedule from the durations, admissibility from the energy
model) so that a bug in a solver cannot silently produce an "optimal"
infeasible answer: every experiment driver and most tests run their
solutions through :func:`check_solution`.  :func:`check_certificate` does
the same for optimality: it turns one multiplier per precedence edge into a
lower bound on the energy of every schedule.
"""

from __future__ import annotations

import numpy as np

from repro.core.models import VddHoppingModel
from repro.core.problem import MinEnergyProblem
from repro.core.solution import (
    Assignment,
    HoppingAssignment,
    Solution,
    SpeedAssignment,
    compute_schedule,
)
from repro.utils.errors import InvalidModelError, InvalidSolutionError
from repro.utils.numerics import DEFAULT_REL_TOL, is_close, leq_with_tol


def is_feasible_assignment(problem: MinEnergyProblem, assignment: Assignment, *,
                           check_admissibility: bool = True,
                           rel_tol: float = DEFAULT_REL_TOL) -> bool:
    """Whether the assignment meets deadline, precedence and model constraints."""
    try:
        check_assignment(problem, assignment,
                         check_admissibility=check_admissibility, rel_tol=rel_tol)
    except InvalidSolutionError:
        return False
    return True


def check_assignment(problem: MinEnergyProblem, assignment: Assignment, *,
                     check_admissibility: bool = True,
                     rel_tol: float = DEFAULT_REL_TOL) -> None:
    """Validate an assignment; raise :class:`InvalidSolutionError` on violation.

    Checks performed:

    1. every task of the graph has a speed (or segment list);
    2. for hopping assignments, the executed work of each task matches the
       task's work;
    3. the ASAP schedule induced by the durations meets the deadline
       (precedence constraints are met by construction of the ASAP
       schedule, so the deadline check is the binding one);
    4. when ``check_admissibility`` is true, every used speed is admissible
       for the problem's energy model (constant-speed models) or every
       segment speed is an admissible mode (Vdd-Hopping).
    """
    graph = problem.graph
    names = graph.index().names
    task_names = set(names)
    covered = set(assignment.tasks())
    missing = task_names - covered
    if missing:
        raise InvalidSolutionError(f"assignment is missing tasks: {sorted(missing)}")
    extra = covered - task_names
    if extra:
        raise InvalidSolutionError(f"assignment covers unknown tasks: {sorted(extra)}")

    if isinstance(assignment, HoppingAssignment):
        for n in names:
            executed = assignment.executed_work(n)
            expected = graph.work(n)
            if not is_close(executed, expected, rel_tol=1e-6, abs_tol=1e-9 * max(1.0, expected)):
                raise InvalidSolutionError(
                    f"task {n!r}: hopping segments execute {executed:g} work units, "
                    f"expected {expected:g}"
                )

    durations = assignment.durations(graph)
    schedule = compute_schedule(graph, durations)
    for n in names:
        if not leq_with_tol(schedule.finish[n], problem.deadline, rel_tol=rel_tol):
            raise InvalidSolutionError(
                f"task {n!r} completes at {schedule.finish[n]:g}, after the deadline "
                f"{problem.deadline:g}"
            )

    if not check_admissibility:
        return

    model = problem.model
    if isinstance(assignment, SpeedAssignment):
        for n in names:
            s = assignment.speed(n)
            if not model.is_admissible(s):
                raise InvalidSolutionError(
                    f"task {n!r} uses speed {s:g}, which is not admissible for the "
                    f"{model.name} model"
                )
    else:
        if not isinstance(model, VddHoppingModel):
            # A hopping assignment under a constant-speed model is only valid
            # when every task has a single segment.
            for n in names:
                segs = [seg for seg in assignment.segments[n] if seg[1] > 0]
                if len(segs) > 1:
                    raise InvalidSolutionError(
                        f"task {n!r} changes speed during execution, which the "
                        f"{model.name} model forbids"
                    )
                if segs and not model.is_admissible(segs[0][0]):
                    raise InvalidSolutionError(
                        f"task {n!r} uses speed {segs[0][0]:g}, which is not admissible "
                        f"for the {model.name} model"
                    )
        else:
            for n in names:
                for s, t in assignment.segments[n]:
                    if t > 0 and not model.is_admissible(s):
                        raise InvalidSolutionError(
                            f"task {n!r} uses mode {s:g}, which is not an admissible mode "
                            f"of the {model.name} model"
                        )


def check_solution(solution: Solution, *, check_admissibility: bool = True,
                   rel_tol: float = DEFAULT_REL_TOL) -> None:
    """Validate a full :class:`Solution` (assignment + reported energy).

    In addition to :func:`check_assignment`, verifies that the reported
    energy matches the energy recomputed from the assignment.
    """
    check_assignment(solution.problem, solution.assignment,
                     check_admissibility=check_admissibility, rel_tol=rel_tol)
    recomputed = solution.assignment.energy(solution.problem.graph, solution.problem.power)
    if not is_close(recomputed, solution.energy, rel_tol=1e-6,
                    abs_tol=1e-9 * max(1.0, recomputed)):
        raise InvalidSolutionError(
            f"reported energy {solution.energy:g} does not match the energy recomputed "
            f"from the assignment ({recomputed:g})"
        )


def check_certificate(problem: MinEnergyProblem, edge_flow: np.ndarray) -> float:
    """Weak-duality lower bound on the energy of a mode-based problem.

    ``edge_flow`` holds one nonnegative multiplier per precedence edge, in
    the order of ``problem.graph.index().edge_src``.  Dualising the edge
    rows of the Vdd-Hopping LP with them, and the start and deadline rows
    with the best multipliers for each task, gives::

        LB = sum_i max_{c >= in_i} [psi_i(c) - D * max(0, c - out_i)]
        psi_i(c) = w_i * min_k (P(s_k) + c) / s_k

    where ``in_i`` and ``out_i`` are the flow into and out of task ``i``.
    Every Discrete or Incremental schedule is also a Vdd-Hopping schedule
    over the same modes, so the bound holds for all three models.  Any
    nonnegative flow gives a valid bound; the LP's optimal multipliers
    give its optimum.  Each concave piecewise-linear term peaks at
    ``c = in_i``, at ``c = max(in_i, out_i)`` or at a mode breakpoint
    ``c_k = (P(s_{k+1}) s_k - P(s_k) s_{k+1}) / (s_{k+1} - s_k)`` (where
    the cheapest mode per unit of work moves up), so the bound costs
    O(n * modes + |E|) and reads only the graph, the modes, the power law
    and the deadline.

    Raises
    ------
    InvalidModelError
        If the problem's model has no modes.
    InvalidSolutionError
        If ``edge_flow`` is not one finite nonnegative value per edge.
    """
    model = problem.model
    if not model.is_mode_based():
        raise InvalidModelError(
            f"check_certificate needs a mode-based model, got {model.name}")
    idx = problem.graph.index()
    flow = np.asarray(edge_flow, dtype=float)
    if flow.shape != (idx.n_edges,) or not np.all(np.isfinite(flow)) \
            or np.any(flow < 0.0):
        raise InvalidSolutionError(
            f"an edge flow must hold {idx.n_edges} finite nonnegative "
            f"values, got an array of shape {flow.shape}")
    n = idx.n_tasks
    inflow = np.bincount(idx.edge_dst, weights=flow, minlength=n)
    outflow = np.bincount(idx.edge_src, weights=flow, minlength=n)
    speeds = np.asarray(model.modes, dtype=float)
    power = np.array([problem.power.power(s) for s in model.modes])

    def dual_terms(c: np.ndarray) -> np.ndarray:
        # one column per candidate c: shape (n, j) per task, or (j,) shared
        per_work = np.min((power + c[..., None]) / speeds, axis=-1)
        return (idx.works[:, None] * per_work
                - problem.deadline * np.maximum(0.0, c - outflow[:, None]))

    ends = np.stack([inflow, np.maximum(inflow, outflow)], axis=1)
    kinks = ((power[1:] * speeds[:-1] - power[:-1] * speeds[1:])
             / (speeds[1:] - speeds[:-1]))
    at_kinks = np.where(kinks >= inflow[:, None], dual_terms(kinks), -np.inf)
    best = np.maximum(dual_terms(ends).max(axis=1),
                      at_kinks.max(axis=1, initial=-np.inf))
    return float(best.sum())
