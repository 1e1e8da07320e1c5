"""LP relaxation of the Discrete model.

A Discrete-model task must run at one constant mode; relaxing that to
*time-sharing* between modes — exactly the Vdd-Hopping semantics over the
same mode set — yields a linear program whose optimum lower-bounds every
discrete schedule (Vdd-Hopping dominates Discrete on any instance with the
same modes).  That program is the Vdd-Hopping LP itself
(:func:`repro.vdd.lp.declare_vdd_lp` serves every mode-based model); this
module solves it with any registered LP backend and rounds the relaxed
point back to a feasible one-mode-per-task schedule:

* the relaxed per-task duration is ``dur_i = sum_k time[i, k]``, so the
  *ideal* constant speed is ``w_i / dur_i``;
* rounding each ideal speed **up** to the next mode can only shorten
  durations, so precedence and the deadline stay satisfied.

The returned solution carries the certified LP bound of
:func:`repro.vdd.lp.solve_mode_lp` as ``lower_bound``, giving callers a
per-instance optimality gap for free.
"""

from __future__ import annotations

from repro.core.problem import MinEnergyProblem
from repro.core.solution import Solution, SpeedAssignment, make_solution
from repro.vdd.lp import solve_mode_lp


def solve_discrete_lp_relaxation(problem: MinEnergyProblem, *,
                                 backend: str = "highs") -> Solution:
    """Feasible Discrete solution by rounding the time-sharing LP optimum.

    Parameters
    ----------
    problem:
        The instance; its model must be mode-based (Discrete or
        Incremental).
    backend:
        Any LP backend registered on :data:`repro.modeling.BACKENDS`.

    Raises
    ------
    InvalidModelError
        If the model has no modes.
    InfeasibleProblemError
        If the deadline cannot be met at the fastest mode.
    UnknownBackendError
        If no registered LP backend matches ``backend``.
    """
    x, bound, metadata = solve_mode_lp(problem, backend)
    model = problem.model
    idx = problem.graph.index()
    n = idx.n_tasks
    m = len(model.modes)
    durations = x[:n * m].reshape(n, m).sum(axis=1)
    speeds: dict[str, float] = {}
    for i, name in enumerate(idx.names):
        work = float(idx.works[i])
        if durations[i] > 1e-12:
            ideal = work / float(durations[i])
        else:
            ideal = model.modes[-1]
        # tiny LP tolerances can push the ideal a hair above the top mode
        speeds[name] = model.round_up(min(ideal, model.modes[-1]))

    return make_solution(
        problem, SpeedAssignment(speeds),
        solver=f"discrete-lp-relaxation-{metadata['backend']}",
        optimal=False, lower_bound=bound, metadata=metadata)
