"""Dispatching solver for the Discrete model.

``solve_discrete`` picks a method appropriate for the instance size:

* edge-free graphs — the per-task exact rule;
* chains — the exact Pareto-front dynamic program;
* small general graphs (``n <= exact_threshold``) — exact branch and bound;
* everything else — the better of the two polynomial heuristics, with the
  Continuous optimum attached as a lower bound.
"""

from __future__ import annotations

from repro.core.models import DiscreteModel, IncrementalModel
from repro.core.problem import MinEnergyProblem
from repro.core.registry import REGISTRY, OptionSpec
from repro.core.solution import Solution
from repro.discrete.exact import solve_discrete_exact
from repro.discrete.heuristics import solve_discrete_best_heuristic
from repro.discrete.pareto_dp import (
    solve_chain_discrete_exact,
    solve_independent_discrete_exact,
)
from repro.discrete.relaxation import solve_discrete_lp_relaxation
from repro.modeling import BACKENDS
from repro.utils.errors import InvalidGraphError, InvalidModelError, SolverError


def solve_discrete(problem: MinEnergyProblem, *, exact: bool | None = None,
                   exact_threshold: int = 14,
                   chain_dp_threshold: int = 1024,
                   max_nodes: int = 2_000_000) -> Solution:
    """Solve a Discrete-model instance.

    Parameters
    ----------
    problem:
        The instance; its model must be Discrete or Incremental.
    exact:
        Force exact (``True``) or heuristic (``False``) resolution;
        ``None`` (default) chooses automatically based on structure and
        size.
    exact_threshold:
        Maximum task count for which the automatic mode attempts exact
        branch and bound on general graphs.
    chain_dp_threshold:
        Maximum task count for which the automatic mode attempts the exact
        chain Pareto DP; deeper chains go straight to the heuristics (the
        DP's front would hit its state cap after a long, fruitless sweep).
        ``exact=True`` always attempts the DP regardless of size.
    max_nodes:
        Node cap for branch and bound.
    """
    model = problem.model
    if not isinstance(model, (DiscreteModel, IncrementalModel)):
        raise InvalidModelError(
            f"solve_discrete expects a Discrete or Incremental model, got {model.name}"
        )
    problem.ensure_feasible()
    graph = problem.graph

    if exact is False:
        return solve_discrete_best_heuristic(problem)

    # structure-specific exact algorithms (cheap, always worth trying)
    if graph.n_edges == 0:
        return solve_independent_discrete_exact(problem)
    try:
        if exact is True or graph.n_tasks <= chain_dp_threshold:
            return solve_chain_discrete_exact(problem)
    except InvalidGraphError:
        pass
    except SolverError:
        # The chain's Pareto front blew past the state cap (deep chains with
        # loose deadlines).  In automatic mode fall through to the
        # polynomial heuristics instead of crashing the dispatch; an
        # explicit exact request still gets the honest failure.
        if exact is True:
            raise

    if exact is True:
        return solve_discrete_exact(problem, max_nodes=max_nodes)

    if graph.n_tasks <= exact_threshold:
        try:
            return solve_discrete_exact(problem, max_nodes=max_nodes)
        except SolverError:
            pass
    return solve_discrete_best_heuristic(problem)


# --------------------------------------------------------------------------- #
# registered backends (repro.solve resolves these through the SolverRegistry)
# --------------------------------------------------------------------------- #
REGISTRY.register(
    "discrete", "auto", default=True, supports_exact=True,
    options=(
        OptionSpec("exact_threshold", (int,), default=14,
                   doc="max task count for automatic exact branch and bound"),
        OptionSpec("chain_dp_threshold", (int,), default=1024,
                   doc="max task count for the automatic chain Pareto DP"),
        OptionSpec("max_nodes", (int,), default=2_000_000,
                   doc="node cap of the branch and bound"),
    ),
    doc="Size/structure-aware dispatch (exact where cheap, else heuristics).",
)(solve_discrete)

REGISTRY.register(
    "discrete", "exact",
    options=(
        OptionSpec("max_nodes", (int,), default=2_000_000,
                   doc="node cap of the branch and bound"),
    ),
    doc="Exact resolution (chain Pareto DP, else branch and bound).",
)(lambda problem, **opts: solve_discrete(problem, exact=True, **opts))

REGISTRY.register(
    "discrete", "heuristic",
    options=(
        OptionSpec("greedy_threshold", (int,), default=10_000,
                   doc="size guard of the (incremental) greedy "
                       "slack-reclamation pass"),
        OptionSpec("greedy_depth_threshold", (int,), default=2048,
                   doc="level-count guard of the greedy pass (path-shaped "
                       "graphs degenerate its cone updates)"),
    ),
    doc="Best of the two polynomial heuristics (round-up, greedy reclaim).",
)(solve_discrete_best_heuristic)

REGISTRY.register(
    "discrete", "lp-relaxation",
    options=(
        OptionSpec("backend", (str,), default="highs",
                   doc="LP backend registered on repro.modeling.BACKENDS"),
    ),
    doc="Time-sharing LP relaxation rounded up to one mode per task "
        "(certified LP bound attached as lower_bound).",
)(solve_discrete_lp_relaxation)

BACKENDS.announce_route("lp", "discrete/lp-relaxation")
