"""Cross-backend parity suite for the declarative modeling layer.

Every *available* registered backend must reach the optimum of the same
declared model, across the graph families of the paper — for the LP
backends, the optimum that :func:`repro.core.validation.check_certificate`
proves from HiGHS's duals — and unavailable optional backends must skip
with their probe's reason, never fail.  The
suite also covers the modeling layer itself: materialise-once caching,
freeze-after-materialise, fingerprints, the typed backend errors, and the
no-densification guarantee of the large-n solve path.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy import sparse as sp

from repro.core.models import ContinuousModel, DiscreteModel, VddHoppingModel
from repro.core.problem import MinEnergyProblem
from repro.core.power import PowerLaw
from repro.core.validation import check_certificate, check_solution
from repro.continuous.sparse import solve_general_convex_sparse
from repro.discrete.relaxation import solve_discrete_lp_relaxation
from repro.graphs import generators
from repro.graphs.analysis import longest_path_length
from repro.modeling import (
    BACKENDS,
    BackendUnavailableError,
    ConvexModel,
    LinearModel,
    UnknownBackendError,
    declare_precedence,
)
from repro.modeling.backends.mehrotra import SchurKKT
from repro.utils.errors import (
    InvalidOptionError,
    SolverError,
    UnknownOptionError,
)
from repro.vdd.lp import declare_vdd_lp, solve_vdd_lp

MODES = (0.4, 0.7, 1.0)

GRAPHS = {
    "chain": lambda: generators.chain(12, seed=5),
    "tree": lambda: generators.random_tree(16, seed=5),
    "sp": lambda: generators.random_series_parallel(18, seed=5),
    "diamond": lambda: generators.diamond(4, 4, seed=5),
    "erdos": lambda: generators.erdos_dag(20, seed=5, edge_probability=0.25),
}


def _problem(graph, model, slack=1.6, alpha=3.0):
    deadline = slack * longest_path_length(
        graph, weight=lambda n: graph.work(n) / model.max_speed)
    return MinEnergyProblem(graph=graph, deadline=deadline, model=model,
                            power=PowerLaw(alpha=alpha))


def _require_available(backend: str) -> None:
    """Skip (never fail) when an optional backend is not usable here."""
    reason = BACKENDS.availability(backend)
    if reason is not None:
        pytest.skip(f"backend {backend!r} unavailable: {reason}")


def _certified_optimum(problem) -> float:
    """The LP optimum as proved by ``check_certificate``.

    The flow is HiGHS's precedence-row multipliers; the bound is computed
    from the problem data alone, so it is a proof, not a second opinion.
    """
    result = BACKENDS.solve(declare_vdd_lp(problem), backend="highs")
    flow = result.duals[:problem.graph.index().n_edges]
    return check_certificate(problem, np.maximum(flow, 0.0))


# --------------------------------------------------------------------------- #
# parity: every available backend x every graph family
# --------------------------------------------------------------------------- #
class TestLPBackendParity:
    @pytest.mark.parametrize("backend", BACKENDS.available("lp"))
    @pytest.mark.parametrize("family", sorted(GRAPHS))
    def test_vdd_lp_objective_agreement(self, backend, family):
        problem = _problem(GRAPHS[family](), VddHoppingModel(modes=MODES))
        optimum = _certified_optimum(problem)
        solution = solve_vdd_lp(problem, backend=backend)
        check_solution(solution)  # feasibility of the returned point
        assert solution.lower_bound <= optimum * (1 + 1e-12)
        assert optimum <= solution.energy * (1 + 1e-9)
        assert solution.energy == pytest.approx(optimum, rel=1e-5)
        assert solution.metadata["backend"] == backend

    @pytest.mark.parametrize("backend", BACKENDS.names())
    @pytest.mark.parametrize("family", sorted(GRAPHS))
    def test_convex_objective_agreement(self, backend, family):
        if "convex" not in BACKENDS._backends[backend].kinds:
            pytest.skip(f"{backend!r} does not consume convex models")
        _require_available(backend)
        problem = _problem(GRAPHS[family](), ContinuousModel(s_max=1.0))
        reference = solve_general_convex_sparse(problem)
        solution = solve_general_convex_sparse(problem, backend=backend)
        check_solution(solution)
        assert solution.energy == pytest.approx(reference.energy, rel=1e-4)
        assert solution.metadata["backend"] == backend

    @pytest.mark.parametrize("backend", BACKENDS.available("lp"))
    def test_discrete_relaxation_bound_and_feasibility(self, backend):
        problem = _problem(GRAPHS["sp"](), DiscreteModel(modes=MODES))
        optimum = _certified_optimum(problem)
        solution = solve_discrete_lp_relaxation(problem, backend=backend)
        check_solution(solution)
        assert solution.lower_bound <= optimum * (1 + 1e-12)
        assert optimum <= solution.energy * (1 + 1e-9)
        assert solution.metadata["lp_objective"] == pytest.approx(optimum,
                                                                  rel=1e-5)
        assert solution.metadata["backend"] == backend


# --------------------------------------------------------------------------- #
# registry semantics
# --------------------------------------------------------------------------- #
class TestBackendRegistry:
    def test_at_least_four_registered_one_optional(self):
        described = BACKENDS.describe()
        assert len(described) >= 4
        assert any(e["optional"] for e in described)
        # the probe-gated entries always appear, available or not
        names = {e["name"] for e in described}
        assert {"highs", "mehrotra-ipm", "cvxpy"} <= names
        assert "simplex" not in names

    def test_unknown_backend_lists_the_available_set(self):
        with pytest.raises(UnknownBackendError, match="highs"):
            BACKENDS.resolve("cplex")
        # the typed error doubles as both historical contracts
        assert issubclass(UnknownBackendError, SolverError)
        assert issubclass(UnknownBackendError, InvalidOptionError)

    def test_kind_mismatch_names_the_capable_set(self):
        with pytest.raises(UnknownBackendError, match="mehrotra-ipm"):
            BACKENDS.resolve("highs", kind="convex")

    def test_unavailable_optional_backend_raises_with_reason(self):
        reason = BACKENDS.availability("cvxpy")
        if reason is None:
            pytest.skip("cvxpy is installed here; nothing to prove")
        with pytest.raises(BackendUnavailableError, match="cvxpy"):
            BACKENDS.resolve("cvxpy")

    def test_undeclared_option_is_rejected(self):
        problem = _problem(GRAPHS["chain"](), VddHoppingModel(modes=MODES))
        model = declare_vdd_lp(problem)
        with pytest.raises(UnknownOptionError, match="highs"):
            BACKENDS.solve(model, backend="highs", options={"bogus": 1})

    def test_solve_metadata_records_provenance(self):
        problem = _problem(GRAPHS["chain"](), VddHoppingModel(modes=MODES))
        solution = solve_vdd_lp(problem)
        for key in ("backend", "build_seconds", "solve_seconds",
                    "model_fingerprint"):
            assert key in solution.metadata
        assert solution.metadata["backend"] == "highs"
        assert solution.metadata["solve_seconds"] >= 0.0


# --------------------------------------------------------------------------- #
# the declarative layer itself
# --------------------------------------------------------------------------- #
class TestDeclarativeModels:
    def _tiny_lp(self):
        model = LinearModel(name="tiny")
        x = model.add_variables("x", 2, lower=0.0)
        model.add_objective(x, [1.0, 2.0])
        model.add_constraints(
            "sum", sense="eq", rhs=[1.0],
            terms=[(x, np.array([0, 0]), np.array([0, 1]), 1.0)])
        return model

    def test_materialize_is_cached_and_freezes_the_model(self):
        model = self._tiny_lp()
        first = model.materialize()
        assert model.materialize() is first  # declared once, built once
        with pytest.raises(SolverError, match="frozen"):
            model.add_variables("y", 1)
        with pytest.raises(SolverError, match="frozen"):
            model.add_constraints("late", sense="ub", rhs=[0.0], terms=[])

    def test_fingerprint_is_content_addressed(self):
        a = self._tiny_lp().materialize()
        b = self._tiny_lp().materialize()
        assert a.fingerprint == b.fingerprint
        different = LinearModel(name="tiny")
        x = different.add_variables("x", 2, lower=0.0)
        different.add_objective(x, [1.0, 3.0])  # objective differs
        different.add_constraints(
            "sum", sense="eq", rhs=[1.0],
            terms=[(x, np.array([0, 0]), np.array([0, 1]), 1.0)])
        assert different.materialize().fingerprint != a.fingerprint

    def test_build_seconds_recorded(self):
        mat = self._tiny_lp().materialize()
        assert mat.build_seconds >= 0.0

    def test_precedence_polytope_rows(self):
        # 3-task chain, scalar durations: rows must be edges then starts
        model = ConvexModel(name="chain")
        d = model.add_variables("d", 3, lower=0.1)
        t = model.add_variables("t", 3, lower=None, upper=1.0)
        declare_precedence(
            model, completion=t, duration_block=d,
            duration_cols=np.arange(3).reshape(3, 1),
            edge_src=np.array([0, 1]), edge_dst=np.array([1, 2]))
        mat = model.materialize()
        dense = mat.g_matrix.toarray()
        # edge (0, 1): t_0 - t_1 + d_1 <= 0
        np.testing.assert_array_equal(dense[0], [0, 1, 0, 1, -1, 0])
        # edge (1, 2): t_1 - t_2 + d_2 <= 0
        np.testing.assert_array_equal(dense[1], [0, 0, 1, 0, 1, -1])
        # start rows: d_i - t_i <= 0
        np.testing.assert_array_equal(dense[2], [1, 0, 0, -1, 0, 0])
        # then folded bounds: t <= 1, then -d <= -0.1
        np.testing.assert_array_equal(dense[5], [0, 0, 0, 1, 0, 0])
        np.testing.assert_array_equal(dense[8], [-1, 0, 0, 0, 0, 0])
        assert mat.h[5] == 1.0 and mat.h[8] == pytest.approx(-0.1)

    def test_convex_model_rejects_equalities(self):
        model = ConvexModel(name="bad")
        x = model.add_variables("x", 1, lower=0.0)
        model.add_constraints("eq", sense="eq", rhs=[1.0],
                              terms=[(x, np.array([0]), np.array([0]), 1.0)])
        with pytest.raises(SolverError, match="equality"):
            model.materialize()

    def test_power_objective_derivatives_match_finite_differences(self):
        problem = _problem(GRAPHS["chain"](), ContinuousModel(s_max=1.0))
        idx = problem.graph.index()
        works = idx.works / np.mean(idx.works)
        from repro.continuous.sparse import declare_continuous_program

        model = declare_continuous_program(
            idx.n_tasks, idx.edge_src, idx.edge_dst,
            np.full(idx.n_tasks, 0.05), works=works, alpha=3.0)
        obj = model.materialize().objective
        rng = np.random.default_rng(7)
        x = np.concatenate([rng.uniform(0.2, 0.8, idx.n_tasks),
                            rng.uniform(0.0, 1.0, idx.n_tasks)])
        grad = obj.gradient(x)
        eps = 1e-6
        for j in (0, idx.n_tasks // 2, idx.n_tasks - 1):
            bump = x.copy()
            bump[j] += eps
            numeric = (obj.value(bump) - obj.value(x)) / eps
            assert grad[j] == pytest.approx(numeric, rel=1e-4)
        # t-block has zero gradient and Hessian
        assert not grad[idx.n_tasks:].any()
        assert not obj.hessian_diagonal(x)[idx.n_tasks:].any()


# --------------------------------------------------------------------------- #
# the interior point's Newton solve with the objective block eliminated
# --------------------------------------------------------------------------- #
class TestSchurKKT:
    @pytest.mark.parametrize("family", ["layered", "erdos", "diamond",
                                        "fork_join", "diamond_1024"])
    def test_backward_error_against_the_assembled_matrix(self, family):
        from repro.continuous.sparse import declare_continuous_program

        # the small Schur complements fill in and are factorised densely;
        # the 32x32 diamond's factor fills ~4% and stays on SuperLU
        factorization = "superlu" if family == "diamond_1024" else "cholesky"

        # the fork-join's sink has 40 predecessors, so its duration is
        # factorised with the completion times instead of eliminated
        build = {"layered": lambda seed: generators.layered_dag(30, seed=seed),
                 "erdos": lambda seed: generators.erdos_dag(30, seed=seed),
                 "diamond": lambda seed: generators.diamond(4, 5, seed=seed),
                 "fork_join": lambda seed: generators.fork_join(40, seed=seed),
                 "diamond_1024": lambda seed: generators.diamond(32, 32,
                                                                 seed=seed)}
        rng = np.random.default_rng(5)
        worst = 0.0
        for seed in range(20):
            idx = build[family](seed).index()
            n = idx.n_tasks
            mat = declare_continuous_program(
                n, idx.edge_src, idx.edge_dst, np.full(n, 0.01),
                works=np.ones(n), alpha=3.0).materialize()
            g = mat.g_matrix
            block = mat.objective.block_slice()
            kkt = SchurKKT(g, block, mat.name)
            # the first factor picks the column order, the second reuses it
            for _ in range(2):
                weights = 10.0 ** rng.uniform(-3, 12, g.shape[0])
                hess = np.zeros(mat.n_vars)
                hess[block] = 10.0 ** rng.uniform(-2, 4, n)
                reg = 1e-9 * float(np.mean(hess[block]))
                assert kkt.factor(weights, hess[block], reg)
                k = sp.diags(hess + reg) + g.T @ sp.diags(weights) @ g
                rhs = rng.standard_normal(mat.n_vars)
                x = kkt.solve(rhs)
                residual = np.abs(k @ x - rhs).max()
                scale = (abs(k).sum(axis=1).max() * np.abs(x).max()
                         + np.abs(rhs).max())
                worst = max(worst, residual / scale)
            assert kkt.factorization == factorization, (seed, kkt.fill)
        assert worst <= 1e-12

    def test_wide_join_keeps_the_schur_complement_sparse(self):
        from repro.continuous.sparse import declare_continuous_program

        idx = generators.fork_join(2000, seed=3).index()
        n = idx.n_tasks
        mat = declare_continuous_program(
            n, idx.edge_src, idx.edge_dst, np.full(n, 0.01),
            works=np.ones(n), alpha=3.0).materialize()
        kkt = SchurKKT(mat.g_matrix, mat.objective.block_slice(), mat.name)
        # eliminating the sink's duration would join its 2000 predecessors
        # into a dense block of 4 million entries
        assert kkt.factor(np.ones(mat.g_matrix.shape[0]), np.ones(n), 1e-9)
        assert kkt._s.shape == (n + 1, n + 1)
        assert kkt._s.nnz <= 10 * n

    def test_model_of_objective_columns_only_solves(self):
        # every column is eliminated, so the factorised S is 0 x 0
        model = ConvexModel(name="durations-only")
        d = model.add_variables("d", 2, lower=0.1, upper=1.0)
        model.add_power_objective(d, [1.0, 2.0], -2.0)
        result = BACKENDS.solve(model, backend="mehrotra-ipm",
                                hints={"x0": np.array([0.5, 0.5])})
        assert result.metadata["converged"]
        assert result.metadata["factorization"] == "superlu"
        assert result.x == pytest.approx([1.0, 1.0], rel=1e-6)

    def test_row_touching_two_objective_columns_is_rejected(self):
        model = ConvexModel(name="coupled-durations")
        d = model.add_variables("d", 2, lower=0.1)
        t = model.add_variables("t", 1, lower=None, upper=1.0)
        model.add_power_objective(d, [1.0, 1.0], -2.0)
        model.add_constraints(
            "sum", sense="ub", rhs=[0.0],
            terms=[(d, np.array([0, 0]), np.array([0, 1]), 1.0),
                   (t, np.array([0]), np.array([0]), -1.0)])
        with pytest.raises(SolverError, match="coupled-durations"):
            BACKENDS.solve(model, backend="mehrotra-ipm",
                           hints={"x0": np.array([0.2, 0.2, 0.9])})


# --------------------------------------------------------------------------- #
# the no-densification guarantee (satellite of the sparse-path bugfix)
# --------------------------------------------------------------------------- #
class TestNoDensification:
    def test_large_lp_solve_path_never_calls_toarray(self, monkeypatch):
        """Above n=1000 variables, nothing on the HiGHS path may densify."""
        graph = generators.layered_dag(600, seed=3)  # 600*2+600 = 1800 vars
        problem = _problem(graph, VddHoppingModel(modes=(0.5, 1.0)))

        def forbidden(self, *args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError(
                f"dense conversion of a {self.shape} sparse matrix on the "
                "large-n solve path"
            )

        for cls in (sp.csr_matrix, sp.csc_matrix, sp.coo_matrix):
            monkeypatch.setattr(cls, "toarray", forbidden)
        solution = solve_vdd_lp(problem, backend="highs")
        assert solution.metadata["n_variables"] == 1800
