"""Dispatching solver for the Vdd-Hopping model."""

from __future__ import annotations

from repro.core.problem import MinEnergyProblem
from repro.core.registry import REGISTRY, OptionSpec
from repro.core.solution import Solution
from repro.modeling import BACKENDS
from repro.utils.errors import InvalidModelError
from repro.vdd.lp import solve_vdd_lp
from repro.vdd.mixing import solve_vdd_mixing


def solve_vdd_hopping(problem: MinEnergyProblem, *, method: str = "lp",
                      backend: str = "highs") -> Solution:
    """Solve a Vdd-Hopping instance.

    Parameters
    ----------
    problem:
        The instance; its model must be a :class:`VddHoppingModel`.
    method:
        ``"lp"`` (optimal, Theorem 3; the default) or ``"mixing"`` (the fast
        two-adjacent-mode heuristic built on the Continuous optimum).
    backend:
        LP backend when ``method="lp"``: any name registered on
        :data:`repro.modeling.BACKENDS` (``"highs"`` or an installed
        optional backend).
    """
    if method == "lp":
        return solve_vdd_lp(problem, backend=backend)
    if method == "mixing":
        return solve_vdd_mixing(problem)
    raise InvalidModelError(f"unknown Vdd-Hopping method {method!r} (use 'lp' or 'mixing')")


# --------------------------------------------------------------------------- #
# registered backends (repro.solve resolves these through the SolverRegistry)
# --------------------------------------------------------------------------- #
REGISTRY.register(
    "vdd-hopping", "lp", default=True,
    options=(
        # no declared choices: the modeling-layer BackendRegistry resolves
        # the name itself and raises a typed UnknownBackendError listing
        # the registered set (which grows with optional installs)
        OptionSpec("backend", (str,), default="highs",
                   doc="LP backend registered on repro.modeling.BACKENDS"),
    ),
    doc="Optimal Vdd-Hopping via the Theorem 3 linear program.",
)(solve_vdd_lp)

REGISTRY.register(
    "vdd-hopping", "mixing",
    doc="Two-adjacent-mode mixing built on the Continuous optimum.",
)(solve_vdd_mixing)

BACKENDS.announce_route("lp", "vdd-hopping/lp")
