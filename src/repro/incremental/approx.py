"""The Theorem 5 approximation algorithm and its certificates.

Algorithm (round-up from the Continuous relaxation):

1. solve the Continuous relaxation of the instance with ``s_max`` equal to
   the largest grid speed.  The relaxation's optimum ``E_cont`` is a lower
   bound on the Incremental optimum.  For series-parallel graphs the
   relaxation is solved exactly in closed form; in general it is solved
   numerically, and the parameter ``K`` of Theorem 5 controls the accuracy
   requested from the numerical solver (relative tolerance ``1 / K``) —
   this is the source of the ``(1 + 1/K)**2`` factor in the theorem;
2. round every ideal speed **up** to the next grid point
   ``s_min + i * delta``.  Durations only shrink, so feasibility is
   preserved;
3. because the rounded speed exceeds the ideal speed by at most ``delta``
   and every ideal speed is at least ``s_min`` (when it is not, the slowest
   grid speed is already faster than needed and the task's energy is below
   its continuous share anyway, see note below), the per-task energy grows
   by at most a factor ``((s + delta) / s)**2 <= (1 + delta / s_min)**2``.

Hence ``E_approx <= (1 + delta/s_min)**2 * (1 + 1/K)**2 * OPT_incremental``,
which is Theorem 5; with an exact continuous solve the factor collapses to
``(1 + delta/s_min)**2`` — the first bullet of Proposition 1.

Note on slow tasks: when the continuous-optimal speed of a task is below
``s_min``, the task is forced to run at ``s_min`` (or faster).  Its energy
is then ``w * s_min**2``, which can exceed its continuous share by more than
the advertised factor; however the *Incremental optimum* pays at least
``w * s_min**2`` for that task as well (it has no slower speed available),
so the per-task ratio against the Incremental optimum — the quantity
Theorem 5 bounds — still holds.  The a-posteriori certificate returned by
:func:`incremental_certificate` accounts for this by comparing against the
max of the continuous share and the forced minimum energy.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.models import ContinuousModel, IncrementalModel
from repro.core.problem import MinEnergyProblem
from repro.core.registry import REGISTRY, OptionSpec
from repro.core.solution import SpeedAssignment, Solution, make_solution
from repro.utils.errors import InvalidModelError


@dataclass(frozen=True)
class ApproximationCertificate:
    """Quality certificate of an Incremental approximation.

    Attributes
    ----------
    a_priori_ratio:
        The guaranteed bound ``(1 + delta/s_min)**2 * (1 + 1/K)**2`` of
        Theorem 5 (before looking at the instance).
    a_posteriori_ratio:
        ``energy / lower_bound`` actually achieved on the instance (always
        at most the a-priori ratio when the continuous relaxation was
        solved exactly).
    continuous_lower_bound:
        Energy of the Continuous relaxation used as the lower bound.
    delta:
        Grid increment.
    s_min:
        Smallest grid speed.
    k:
        The accuracy parameter ``K`` of Theorem 5.
    """

    a_priori_ratio: float
    a_posteriori_ratio: float
    continuous_lower_bound: float
    delta: float
    s_min: float
    k: int

    def is_within_guarantee(self) -> bool:
        """Whether the measured ratio respects the proven bound."""
        return self.a_posteriori_ratio <= self.a_priori_ratio * (1.0 + 1e-9)


def theorem5_ratio(model: IncrementalModel, k: int, *, alpha: float = 3.0) -> float:
    """The a-priori approximation factor of Theorem 5.

    ``(1 + delta/s_min)**(alpha-1) * (1 + 1/K)**(alpha-1)``; with the paper's
    cubic law (``alpha = 3``) both exponents are 2.
    """
    if k < 1:
        raise InvalidModelError("K must be a positive integer")
    rounding = (1.0 + model.delta / model.s_min) ** (alpha - 1.0) if model.delta > 0 else 1.0
    accuracy = (1.0 + 1.0 / k) ** (alpha - 1.0)
    return rounding * accuracy


def solve_incremental_approx(problem: MinEnergyProblem, *, k: int = 1000) -> Solution:
    """Theorem 5: approximate the Incremental optimum by continuous round-up.

    Parameters
    ----------
    problem:
        The instance; its model must be an :class:`IncrementalModel`.
    k:
        Accuracy parameter of Theorem 5: the Continuous relaxation is solved
        to relative accuracy ``1 / k``.  The default solves the relaxation
        essentially exactly, so the measured ratio is governed by the
        ``(1 + delta/s_min)**2`` term alone.
    """
    from repro.continuous.solve import solve_continuous
    from repro.continuous.sparse import solve_general_convex_sparse

    model = problem.model
    if not isinstance(model, IncrementalModel):
        raise InvalidModelError(
            f"solve_incremental_approx expects an IncrementalModel, got {model.name}"
        )
    if k < 1:
        raise InvalidModelError("K must be a positive integer")
    problem.ensure_feasible()

    relaxed = problem.with_model(ContinuousModel(s_max=model.max_speed))
    if k >= 1000:
        continuous = solve_continuous(relaxed)
    else:
        # honour the requested (lower) accuracy explicitly through the
        # numerical solver tolerance — this is what costs the (1+1/K)^2 term
        continuous = solve_general_convex_sparse(relaxed, tolerance=1.0 / (k * k))
    ideal = continuous.speeds()

    speeds: dict[str, float] = {}
    for name in problem.graph.task_names():
        target = min(max(ideal[name], model.s_min), model.max_speed)
        speeds[name] = model.round_up(target)
    assignment = SpeedAssignment(speeds)
    certificate = incremental_certificate(problem, assignment.energy(problem.graph, problem.power),
                                          continuous.energy, k=k)
    return make_solution(
        problem, assignment, solver="incremental-theorem5-round-up", optimal=False,
        lower_bound=continuous.energy,
        metadata={
            "k": k,
            "a_priori_ratio": certificate.a_priori_ratio,
            "a_posteriori_ratio": certificate.a_posteriori_ratio,
            "continuous_solver": continuous.solver,
        },
    )


def solve_incremental_exact(problem: MinEnergyProblem, *, max_nodes: int = 2_000_000) -> Solution:
    """Exact Incremental optimum (NP-hard; small instances only).

    Delegates to the Discrete exact machinery, since an Incremental model is
    a Discrete model with a regular grid.
    """
    from repro.discrete.solve import solve_discrete

    model = problem.model
    if not isinstance(model, IncrementalModel):
        raise InvalidModelError(
            f"solve_incremental_exact expects an IncrementalModel, got {model.name}"
        )
    return solve_discrete(problem, exact=True, max_nodes=max_nodes)


# --------------------------------------------------------------------------- #
# registered backends (repro.solve resolves these through the SolverRegistry)
# --------------------------------------------------------------------------- #
REGISTRY.register(
    "incremental", "theorem5", default=True, aliases=("approx", "round-up"),
    options=(
        OptionSpec("k", (int,), default=1000,
                   doc="Theorem 5 accuracy parameter K (relaxation solved "
                       "to relative accuracy 1/K)"),
    ),
    doc="Theorem 5 round-up from the Continuous relaxation.",
)(solve_incremental_approx)

REGISTRY.register(
    "incremental", "exact",
    options=(
        OptionSpec("max_nodes", (int,), default=2_000_000,
                   doc="node cap of the branch and bound"),
    ),
    doc="Exact Incremental optimum via the Discrete machinery (NP-hard).",
)(solve_incremental_exact)


def incremental_certificate(problem: MinEnergyProblem, achieved_energy: float,
                            continuous_lower_bound: float, *, k: int = 1000
                            ) -> ApproximationCertificate:
    """Build the Theorem 5 / Proposition 1 certificate for an achieved energy."""
    model = problem.model
    if not isinstance(model, IncrementalModel):
        raise InvalidModelError(
            f"incremental_certificate expects an IncrementalModel, got {model.name}"
        )
    alpha = problem.power.alpha
    # The valid lower bound accounts for tasks whose continuous speed falls
    # below s_min: every Incremental solution pays at least w * s_min^(alpha-1)
    # for each task, so the bound is the max of that floor and the continuous
    # optimum's per-instance value.
    forced_floor = sum(
        problem.power.energy_for_work(problem.graph.work(n), model.s_min)
        for n in problem.graph.task_names()
    )
    lower = max(continuous_lower_bound, forced_floor)
    ratio = achieved_energy / lower if lower > 0 else 1.0
    return ApproximationCertificate(
        a_priori_ratio=theorem5_ratio(model, k, alpha=alpha),
        a_posteriori_ratio=ratio,
        continuous_lower_bound=continuous_lower_bound,
        delta=model.delta,
        s_min=model.s_min,
        k=k,
    )
