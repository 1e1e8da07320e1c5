"""Dispatching solver for the Continuous model.

``solve_continuous`` picks the cheapest applicable exact method:

1. single task, chain, fork, join — closed forms (Theorem 1 and its
   degenerate cases);
2. in/out-trees and series-parallel graphs — the polynomial equivalent-load
   algorithm (Theorem 2), provided the resulting speeds respect a finite
   ``s_max``;
3. everything else (or capped trees and series-parallel graphs the
   Theorem-2 passes reject) — the general convex program, solved by the
   sparse interior-point backend (``convex-sparse``) at any task count.

The chosen method is recorded in the returned solution's ``solver`` field so
that experiments can report which path was taken.
"""

from __future__ import annotations

from repro.core.models import ContinuousModel
from repro.core.problem import MinEnergyProblem
from repro.core.registry import REGISTRY, OptionSpec
from repro.core.solution import Solution
from repro.continuous.closed_forms import (
    solve_chain,
    solve_fork,
    solve_join,
    solve_single_task,
)
from repro.continuous.sparse import solve_general_convex_sparse
from repro.continuous.series_parallel import solve_series_parallel
from repro.continuous.tree import is_tree, solve_tree
from repro.graphs.sp_decomposition import NotSeriesParallelError
from repro.modeling import BACKENDS
from repro.utils.errors import InvalidGraphError, InvalidModelError, SolverError


def solve_continuous(problem: MinEnergyProblem, *, force_method: str | None = None) -> Solution:
    """Solve a Continuous-model instance with the best applicable method.

    Parameters
    ----------
    problem:
        The instance; its model must be a :class:`ContinuousModel`.
    force_method:
        Override the dispatch: one of ``"closed-form"``, ``"tree"``,
        ``"series-parallel"``, ``"convex-sparse"`` (alias ``"convex"``) or
        ``None`` (automatic).

    Raises
    ------
    InvalidModelError
        If the problem's model is not Continuous.
    InfeasibleProblemError
        If the deadline cannot be met even at ``s_max``.
    """
    if not isinstance(problem.model, ContinuousModel):
        raise InvalidModelError(
            f"solve_continuous expects a ContinuousModel, got {problem.model.name}"
        )
    problem.ensure_feasible()

    if force_method in ("convex", "convex-sparse"):
        return solve_general_convex_sparse(problem)
    if force_method == "tree":
        return solve_tree(problem)
    if force_method == "series-parallel":
        return solve_series_parallel(problem)
    if force_method == "closed-form":
        return _closed_form(problem)
    if force_method is not None:
        raise InvalidModelError(f"unknown force_method {force_method!r}")

    # 1. closed forms
    closed = _try_closed_form(problem)
    if closed is not None:
        return closed

    # 2. trees / series-parallel graphs (exact and cheap, uncapped speeds).
    # A tree is SP too, but its SP speeds are its tree speeds, so a tree
    # whose speeds break s_max goes straight to the convex program.
    try:
        if is_tree(problem.graph):
            return solve_tree(problem)
        # solve_series_parallel decomposes internally and raises
        # NotSeriesParallelError for non-SP graphs, so probing with
        # is_series_parallel first would run the decomposition twice.
        return solve_series_parallel(problem)
    except (SolverError, NotSeriesParallelError):
        pass

    # 3. general convex program (sparse interior point, no task-count cap)
    return solve_general_convex_sparse(problem)


# --------------------------------------------------------------------------- #
# registered backends (repro.solve resolves these through the SolverRegistry)
# --------------------------------------------------------------------------- #
REGISTRY.register(
    "continuous", "auto", default=True,
    doc="Cheapest applicable exact method (closed form, tree/SP, convex).",
)(solve_continuous)

REGISTRY.register(
    "continuous", "closed-form",
    doc="Theorem 1 closed forms (single task, chain, fork, join).",
)(lambda problem: solve_continuous(problem, force_method="closed-form"))

REGISTRY.register(
    "continuous", "tree",
    doc="Theorem 2 equivalent-load pass for in/out-trees (O(n)).",
)(lambda problem: solve_continuous(problem, force_method="tree"))

REGISTRY.register(
    "continuous", "series-parallel", aliases=("sp",),
    doc="Theorem 2 series-parallel decomposition algorithm.",
)(lambda problem: solve_continuous(problem, force_method="series-parallel"))

REGISTRY.register(
    "continuous", "convex-sparse", aliases=("convex", "sparse", "ipm"),
    options=(
        OptionSpec("max_iterations", (int,), default=200,
                   doc="interior-point iteration cap (one sparse "
                       "factorisation each)"),
        OptionSpec("tolerance", (int, float), default=1e-9,
                   doc="relative duality-gap stopping target"),
        OptionSpec("backend", (str,), default="mehrotra-ipm",
                   doc="convex backend registered on repro.modeling.BACKENDS"),
    ),
    doc="Sparse primal-dual interior point over the CSR precedence "
        "polytope; no task-count cap (10k-task general DAGs).",
)(solve_general_convex_sparse)

BACKENDS.announce_route("convex", "continuous/convex-sparse")


def _closed_form(problem: MinEnergyProblem) -> Solution:
    solution = _try_closed_form(problem)
    if solution is None:
        raise InvalidGraphError(
            "no closed form applies to this graph (not a single task, chain, fork or join)"
        )
    return solution


def _try_closed_form(problem: MinEnergyProblem) -> Solution | None:
    """Try the closed forms in order; return ``None`` when none applies."""
    for solver in (solve_single_task, solve_chain, solve_fork, solve_join):
        try:
            return solver(problem)
        except InvalidGraphError:
            continue
        except SolverError:
            continue
    return None
