"""Tests for the registry-based solver dispatch.

Covers: every model resolving through the registry (default and named
methods), aliases, the typed errors for unknown methods/options and
ill-typed option values, the legacy call-signature compatibility
(positional problem, ``exact=`` tri-state, loose ``**kwargs``), and the
``exact=True``-with-a-polynomial-model guard.
"""

from __future__ import annotations

import pytest

from repro.core.models import (
    ContinuousModel,
    DiscreteModel,
    IncrementalModel,
    VddHoppingModel,
)
from repro.core.problem import MinEnergyProblem
from repro.core.registry import REGISTRY, OptionSpec, SolverRegistry
from repro.core.validation import check_solution
from repro.graphs import generators
from repro.solve import ensure_backends_loaded, resolve_backend, solve, solver_methods
from repro.utils.errors import (
    InvalidModelError,
    InvalidOptionError,
    UnknownBackendError,
    UnknownOptionError,
    UnknownSolverError,
)

MODES = (0.4, 0.6, 0.8, 1.0)


def _problem(model, *, n: int = 10, slack: float = 1.6, seed: int = 1) -> MinEnergyProblem:
    graph = generators.layered_dag(n, seed=seed)
    deadline = slack * graph.total_work()
    return MinEnergyProblem(graph=graph, deadline=deadline, model=model)


class TestRegistryResolution:
    def test_all_four_models_registered(self):
        ensure_backends_loaded()
        assert set(REGISTRY.models()) == {
            "continuous", "discrete", "vdd-hopping", "incremental"}

    def test_default_methods(self):
        assert solver_methods("continuous")[0] == "auto"
        assert solver_methods("vdd-hopping")[0] == "lp"
        assert solver_methods("discrete")[0] == "auto"
        assert solver_methods("incremental")[0] == "theorem5"

    def test_solver_methods_from_problem(self):
        problem = _problem(ContinuousModel(s_max=1.0))
        assert "convex-sparse" in solver_methods(problem)

    def test_unknown_model_raises(self):
        with pytest.raises(UnknownSolverError):
            REGISTRY.resolve("quantum")

    def test_unknown_method_lists_alternatives(self):
        problem = _problem(ContinuousModel(s_max=1.0))
        with pytest.raises(UnknownSolverError, match="convex-sparse"):
            solve(problem, method="not-a-method")

    def test_retired_dense_method_is_unknown(self):
        problem = _problem(ContinuousModel(s_max=1.0))
        with pytest.raises(UnknownSolverError, match="convex-sparse"):
            solve(problem, method="gp-slsqp")

    def test_alias_resolves(self):
        ensure_backends_loaded()
        assert REGISTRY.resolve("continuous", "convex").method == "convex-sparse"
        assert REGISTRY.resolve("incremental", "approx").method == "theorem5"

    def test_describe_covers_every_backend(self):
        ensure_backends_loaded()
        entries = REGISTRY.describe()
        assert {(e["model"], e["method"]) for e in entries} >= {
            ("continuous", "auto"), ("continuous", "convex-sparse"),
            ("vdd-hopping", "lp"), ("vdd-hopping", "mixing"),
            ("discrete", "auto"), ("discrete", "exact"), ("discrete", "heuristic"),
            ("incremental", "theorem5"), ("incremental", "exact"),
        }
        assert sum(1 for e in entries if e["default"]) == 4


class TestDispatchPerModel:
    def test_continuous_named_methods(self):
        problem = _problem(ContinuousModel(s_max=1.0))
        auto = solve(problem)
        convex = solve(problem, method="convex")
        for s in (auto, convex):
            check_solution(s)
        assert convex.solver == "continuous-convex-sparse"
        assert auto.energy == pytest.approx(convex.energy, rel=1e-4)

    def test_vdd_lp_backend_option(self):
        problem = _problem(VddHoppingModel(modes=MODES), n=8)
        highs = solve(problem, method="lp", options={"backend": "highs"})
        assert highs.solver == "vdd-lp-highs"
        assert -1e-12 <= highs.metadata["certificate_gap"] <= 1e-9
        assert highs.energy == pytest.approx(highs.lower_bound, rel=1e-6)
        with pytest.raises(UnknownBackendError, match="highs"):
            solve(problem, method="lp", options={"backend": "simplex"})

    def test_vdd_mixing_method(self):
        problem = _problem(VddHoppingModel(modes=MODES), n=8)
        mixing = solve(problem, method="mixing")
        check_solution(mixing)
        assert "mixing" in mixing.solver

    def test_discrete_methods(self):
        problem = _problem(DiscreteModel(modes=MODES), n=8)
        exact = solve(problem, method="exact")
        heuristic = solve(problem, method="heuristic")
        assert exact.optimal
        assert heuristic.energy >= exact.energy - 1e-9

    def test_incremental_methods(self):
        problem = _problem(IncrementalModel.from_range(0.4, 1.0, 0.2), n=8)
        approx = solve(problem, method="theorem5", options={"k": 1000})
        check_solution(approx)
        assert approx.solver == "incremental-theorem5-round-up"


class TestOptionValidation:
    def test_unknown_option_raises(self):
        problem = _problem(ContinuousModel(s_max=1.0))
        with pytest.raises(UnknownOptionError, match="max_iterations"):
            solve(problem, method="convex-sparse", options={"max_iter": 5})

    def test_unknown_kwarg_raises_instead_of_being_swallowed(self):
        # pre-registry, a misspelled kwarg silently changed nothing
        problem = _problem(VddHoppingModel(modes=MODES), n=6)
        with pytest.raises(UnknownOptionError):
            solve(problem, bakend="highs")

    def test_wrong_type_raises(self):
        problem = _problem(ContinuousModel(s_max=1.0))
        with pytest.raises(InvalidOptionError, match="max_iterations"):
            solve(problem, method="convex-sparse",
                  options={"max_iterations": "many"})

    def test_bool_is_not_an_int(self):
        problem = _problem(DiscreteModel(modes=MODES), n=6)
        with pytest.raises(InvalidOptionError):
            solve(problem, options={"exact_threshold": True})

    def test_out_of_choices_raises(self):
        problem = _problem(VddHoppingModel(modes=MODES), n=6)
        with pytest.raises(InvalidOptionError, match="backend"):
            solve(problem, method="lp", options={"backend": "cplex"})

    def test_conflicting_option_spellings_raise(self):
        problem = _problem(VddHoppingModel(modes=MODES), n=6)
        with pytest.raises(InvalidOptionError, match="backend"):
            solve(problem, options={"backend": "highs"}, backend="cvxpy")

    def test_legacy_kwargs_still_work(self):
        problem = _problem(VddHoppingModel(modes=MODES), n=6)
        solution = solve(problem, backend="highs")
        assert solution.solver.endswith("highs")
        inc = _problem(IncrementalModel.from_range(0.4, 1.0, 0.2), n=6)
        assert solve(inc, k=10).metadata["k"] == 10


class TestExactRouting:
    def test_exact_true_polynomial_model_raises(self):
        for model in (ContinuousModel(s_max=1.0), VddHoppingModel(modes=MODES)):
            with pytest.raises(InvalidModelError, match="contradictory"):
                solve(_problem(model, n=6), exact=True)

    def test_exact_false_polynomial_model_is_fine(self):
        solution = solve(_problem(ContinuousModel(s_max=1.0), n=6), exact=False)
        check_solution(solution)

    def test_exact_true_routes_incremental_to_exact_backend(self):
        problem = _problem(IncrementalModel.from_range(0.4, 1.0, 0.3), n=5)
        assert resolve_backend(problem, None, exact=True).method == "exact"
        solution = solve(problem, exact=True)
        assert solution.optimal

    def test_exact_conflicts_with_heuristic_method(self):
        problem = _problem(DiscreteModel(modes=MODES), n=6)
        with pytest.raises(InvalidOptionError, match="conflicts"):
            solve(problem, method="heuristic", exact=True)

    def test_exact_tristate_discrete_auto(self):
        problem = _problem(DiscreteModel(modes=MODES), n=6)
        assert solve(problem, exact=True).optimal
        heuristic = solve(problem, exact=False)
        assert heuristic.solver.startswith("discrete-")


class TestRegistryMechanics:
    def test_registration_and_default_bookkeeping(self):
        registry = SolverRegistry()
        registry.register("toy", "a")(lambda p: "A")
        registry.register("toy", "b", default=True,
                          options=(OptionSpec("x", (int,)),))(lambda p, x=0: "B")
        assert registry.default_method("toy") == "b"
        assert registry.methods("toy") == ["b", "a"]
        backend = registry.resolve("toy")
        assert backend.method == "b"
        assert backend.validate_options({"x": 3}) == {"x": 3}
        with pytest.raises(UnknownOptionError):
            backend.validate_options({"y": 1})
        with pytest.raises(UnknownSolverError):
            registry.resolve("toy", "c")

    def test_reregistration_replaces(self):
        registry = SolverRegistry()
        registry.register("toy", "a", default=True)(lambda p: 1)
        registry.register("toy", "a", default=True)(lambda p: 2)
        assert registry.resolve("toy", "a").fn(None) == 2
