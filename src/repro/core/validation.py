"""Validation of solutions against their problems.

The validator re-derives everything from first principles (durations from
speeds, an ASAP schedule from the durations, admissibility from the energy
model) so that a bug in a solver cannot silently produce an "optimal"
infeasible answer: every experiment driver and most tests run their
solutions through :func:`check_solution`.
"""

from __future__ import annotations

from repro.core.models import VddHoppingModel
from repro.core.problem import MinEnergyProblem
from repro.core.solution import (
    Assignment,
    HoppingAssignment,
    Solution,
    SpeedAssignment,
    compute_schedule,
)
from repro.utils.errors import InvalidSolutionError
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
