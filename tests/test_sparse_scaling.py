"""Sparse/incremental large-n paths: equivalence and regression suites.

The sparse Vdd LP assembly equals the dense one, the ``convex-sparse``
interior point passes a solver-independent KKT check,
``GraphIndex.asap_update`` cone repairs equal full recomputes, the
incremental greedy reproduces the classical rescan loop move for move,
and the calibrated shard priors fit measured timings.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from kkt import KKT_TOLERANCE, kkt_residual

from repro.baselines.naive import solve_no_reclaim, solve_uniform_scaling
from repro.batch.shard import estimate_cost, priors_from_rows
from repro.batch.sweep import build_sweep_coords, build_sweep_problems
from repro.continuous.solve import solve_continuous
from repro.continuous.sparse import (
    build_sparse_constraints,
    prune_redundant_edges,
    solve_general_convex_sparse,
)
from repro.core.models import ContinuousModel, DiscreteModel, VddHoppingModel
from repro.core.power import PowerLaw
from repro.core.problem import MinEnergyProblem
from repro.core.solution import asap_times, compute_makespan
from repro.core.validation import check_solution
from repro.experiments.workloads import WorkloadSpec, make_workload
from repro.graphs import generators
from repro.graphs.analysis import longest_path_length
from repro.solve import solve
from repro.utils.errors import UnknownOptionError
from repro.utils.numerics import leq_with_tol
from repro.utils.tables import Table
from repro.vdd.lp import build_vdd_lp, solve_vdd_lp


def _problem(graph, slack=1.5, alpha=3.0, s_max=1.0, model=None):
    deadline = slack * longest_path_length(
        graph, weight=lambda n: graph.work(n) / (s_max if math.isfinite(s_max) else 1.0))
    return MinEnergyProblem(
        graph=graph, deadline=deadline,
        model=model or ContinuousModel(s_max=s_max),
        power=PowerLaw(alpha=alpha))


# --------------------------------------------------------------------------- #
# sparse LP assembly == dense assembly
# --------------------------------------------------------------------------- #
class TestSparseVddLP:
    def _dense_reference(self, problem):
        """The former dense assembly, row semantics unchanged."""
        graph = problem.graph
        idx = graph.index()
        names = list(idx.names)
        n = len(names)
        modes = problem.model.modes
        m = len(modes)
        n_vars = n * m + n
        c = np.zeros(n_vars)
        for i in range(n):
            for k, s in enumerate(modes):
                c[i * m + k] = problem.power.power(s)
        a_eq = np.zeros((n, n_vars))
        b_eq = np.zeros(n)
        for i, name in enumerate(names):
            for k, s in enumerate(modes):
                a_eq[i, i * m + k] = s
            b_eq[i] = graph.work(name)
        rows = []
        for u, v in zip(idx.edge_src, idx.edge_dst):
            row = np.zeros(n_vars)
            row[n * m + u] = 1.0
            row[n * m + v] = -1.0
            for k in range(m):
                row[v * m + k] = 1.0
            rows.append(row)
        for i in range(n):
            row = np.zeros(n_vars)
            row[n * m + i] = -1.0
            for k in range(m):
                row[i * m + k] = 1.0
            rows.append(row)
        a_ub = np.vstack(rows) if rows else np.zeros((0, n_vars))
        return c, a_ub, a_eq, b_eq

    @pytest.mark.parametrize("cls,n", [("layered", 24), ("chain", 10),
                                       ("fork", 7), ("erdos", 30)])
    def test_sparse_matrices_equal_dense(self, cls, n):
        gen = {"layered": generators.layered_dag, "chain": generators.chain,
               "fork": generators.fork, "erdos": generators.erdos_dag}[cls]
        graph = gen(n, seed=17)
        problem = _problem(graph, model=VddHoppingModel(modes=(0.4, 0.7, 1.0)))
        lp = build_vdd_lp(problem)
        c, a_ub, a_eq, b_eq = self._dense_reference(problem)
        np.testing.assert_array_equal(lp.c, c)
        np.testing.assert_array_equal(lp.a_ub.toarray(), a_ub)
        np.testing.assert_array_equal(lp.a_eq.toarray(), a_eq)
        np.testing.assert_array_equal(lp.b_eq, b_eq)
        np.testing.assert_array_equal(lp.b_ub, np.zeros(a_ub.shape[0]))

    def test_constraint_memory_ratio(self):
        graph = generators.layered_dag(300, seed=5)
        problem = _problem(graph, model=VddHoppingModel(modes=(0.2, 0.4, 0.6, 0.8, 1.0)))
        memory = build_vdd_lp(problem).constraint_memory()
        assert memory["dense_equivalent_bytes"] >= 50 * memory["sparse_bytes"]

    def test_highs_solves_the_sparse_lp(self, small_sp_graph=None):
        graph = generators.layered_dag(40, seed=11)
        problem = _problem(graph, model=VddHoppingModel(modes=(0.4, 0.7, 1.0)))
        solution = solve_vdd_lp(problem)
        check_solution(solution)
        assert solution.metadata["sparse_bytes"] > 0
        assert solution.metadata["dense_equivalent_bytes"] > \
            solution.metadata["sparse_bytes"]

    def test_highs_optimum_is_certified_on_small_instances(self):
        graph = generators.layered_dag(12, seed=13)
        problem = _problem(graph, model=VddHoppingModel(modes=(0.5, 1.0)))
        highs = solve_vdd_lp(problem, backend="highs")
        check_solution(highs)
        assert -1e-12 <= highs.metadata["certificate_gap"] <= 1e-9
        assert highs.energy == pytest.approx(highs.lower_bound, rel=1e-6)


# --------------------------------------------------------------------------- #
# convex-sparse reaches the KKT point of the convex program
# --------------------------------------------------------------------------- #
def _sweep_instance(instance_seed, s_max, **grid):
    """The instance of a ``build_sweep_problems`` grid with this seed."""
    coords = build_sweep_coords(**grid)
    position = next(i for i, c in enumerate(coords) if c[-1] == instance_seed)
    problems, _ = build_sweep_problems(s_max=s_max, positions=[position],
                                       grid=coords, **grid)
    return problems[0]


class TestConvexSparse:
    @pytest.mark.parametrize("cls,n,slack,alpha", [
        ("layered", 40, 1.2, 3.0), ("layered", 100, 2.0, 2.0),
        ("erdos", 60, 1.5, 3.0), ("diamond", 52, 1.3, 3.0),
    ])
    def test_matches_dense_objective(self, cls, n, slack, alpha):
        # the optimum is certified by the KKT residual, not by a second solver
        if cls == "diamond":
            graph = generators.diamond(10, 5, seed=7)
        else:
            gen = {"layered": generators.layered_dag,
                   "erdos": generators.erdos_dag}[cls]
            graph = gen(n, seed=7)
        problem = _problem(graph, slack=slack, alpha=alpha)
        solution = solve_general_convex_sparse(problem)
        check_solution(solution)
        assert kkt_residual(solution) <= KKT_TOLERANCE

    def test_uncapped_speeds(self):
        graph = generators.layered_dag(50, seed=3)
        problem = _problem(graph, slack=0.5, s_max=math.inf)
        solution = solve_general_convex_sparse(problem)
        check_solution(solution)
        assert kkt_residual(solution) <= KKT_TOLERANCE

    @given(cls=st.sampled_from(["layered", "erdos", "diamond"]),
           n=st.integers(min_value=2, max_value=30),
           slack=st.floats(min_value=1.0, max_value=3.0),
           s_max=st.sampled_from([1.0, math.inf]),
           seed=st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=40, deadline=None)
    def test_kkt_point_on_small_general_dags(self, cls, n, slack, s_max, seed):
        if cls == "diamond":
            graph = generators.diamond(max(1, n // 5), 5, seed=seed)
        else:
            gen = {"layered": generators.layered_dag,
                   "erdos": generators.erdos_dag}[cls]
            graph = gen(n, seed=seed)
        solution = solve_general_convex_sparse(
            _problem(graph, slack=slack, s_max=s_max))
        check_solution(solution)
        assert kkt_residual(solution) <= KKT_TOLERANCE

    def test_kkt_check_rejects_uniform_scaling(self):
        problem = _problem(generators.layered_dag(40, seed=7), slack=1.5)
        assert kkt_residual(solve_uniform_scaling(problem)) > KKT_TOLERANCE

    def test_step_clamp_does_not_cycle(self):
        # a clamped primal step needs an equally short dual step: with a
        # full one the iteration cycles here and stops 0.21% high at the cap
        problem = _sweep_instance(
            1314277358, 1.0,
            graph_classes=("layered", "erdos", "diamond", "tree",
                           "series_parallel"),
            sizes=(12, 24, 40, 64), slacks=(1.02, 1.1, 1.3), repetitions=25,
            seed=12)
        solution = solve_general_convex_sparse(problem)
        assert solution.metadata["converged"]
        assert kkt_residual(solution) <= KKT_TOLERANCE
        assert solution.energy == pytest.approx(86.739351, rel=1e-6)

    def test_wide_kkt_diagonal_solves(self):
        # the solver must neither raise nor stop short on any of these
        for instance_seed, energy in (
                # with uncoupled steps the KKT diagonal spans 1e-4..1e22 by
                # iteration 26 and SuperLU reports the factor singular
                (1865614441, 82.2394806),
                # the Schur complement's diagonal spans 9e-5..5e21, and a
                # factor without pivoting breaks down on it
                (944435117, 85.2931716),
                # SuperLU found the full 2n x 2n KKT matrix singular here
                # at iteration 28, even regularised, and the solve stopped
                (1862719578, 81.5052811)):
            problem = _sweep_instance(
                instance_seed, math.inf, graph_classes=("layered",),
                sizes=(96,), slacks=(1.2, 2.0), repetitions=800, seed=1)
            solution = solve_general_convex_sparse(problem)
            check_solution(solution)
            assert solution.metadata["converged"], instance_seed
            assert kkt_residual(solution) <= KKT_TOLERANCE
            assert solution.energy == pytest.approx(energy, rel=1e-7)

    def test_singular_factor_returns_the_repaired_iterate(self, monkeypatch):
        import repro.modeling.backends.mehrotra as mehrotra

        def singular(*_args, **_kwargs):
            raise RuntimeError("Factor is exactly singular")

        monkeypatch.setattr(mehrotra, "splu", singular)
        problem = _problem(generators.layered_dag(30, seed=5))
        solution = solve_general_convex_sparse(problem)
        check_solution(solution)
        assert not solution.metadata["converged"]

    def test_failed_cholesky_falls_back_to_lu(self, monkeypatch):
        import repro.modeling.backends.mehrotra as mehrotra

        problem = _problem(generators.layered_dag(30, seed=5))
        reference = solve_general_convex_sparse(problem)
        calls = []

        def not_positive_definite(a, **_kwargs):
            calls.append("dpotrf")
            return a, 1  # LAPACK's info > 0: a pivot that is not positive

        monkeypatch.setattr(mehrotra, "dpotrf", not_positive_definite)
        solution = solve_general_convex_sparse(problem)
        assert solution.metadata["factorization"] == "cholesky"
        assert solution.metadata["converged"]
        # one Cholesky attempt per factorisation but the first (SuperLU's);
        # the last iteration only finds the point converged
        assert len(calls) == solution.metadata["iterations"] - 2
        assert solution.energy == pytest.approx(reference.energy, rel=1e-9)

    def test_failed_dense_factor_returns_the_repaired_iterate(self,
                                                              monkeypatch):
        import repro.modeling.backends.mehrotra as mehrotra

        calls = []

        def not_positive_definite(a, **_kwargs):
            calls.append("dpotrf")
            return a, 1

        def singular(a, **_kwargs):
            calls.append("dgetrf")
            return a, np.arange(1, len(a) + 1, dtype=np.int32), 1

        monkeypatch.setattr(mehrotra, "dpotrf", not_positive_definite)
        monkeypatch.setattr(mehrotra, "dgetrf", singular)
        problem = _problem(generators.layered_dag(30, seed=5))
        solution = solve_general_convex_sparse(problem)
        check_solution(solution)
        # the first factor is SuperLU's; the second, the first dense one,
        # fails both ways, and so does its retry with the regularisation
        # raised
        assert solution.metadata["factorization"] == "cholesky"
        assert solution.metadata["iterations"] == 2
        assert calls == ["dpotrf", "dgetrf"] * 2
        assert not solution.metadata["converged"]

    def test_single_task_and_tight_deadline(self):
        single = _problem(generators.chain(1, seed=1))
        solution = solve_general_convex_sparse(single)
        assert solution.solver == "continuous-convex-sparse"
        graph = generators.layered_dag(30, seed=9)
        tight = MinEnergyProblem(graph=graph, deadline=longest_path_length(graph),
                                 model=ContinuousModel(s_max=1.0))
        solution = solve_general_convex_sparse(tight)
        check_solution(solution)
        # zero slack pins the critical tasks to the cap, but the tasks off
        # the critical paths still slow down: all-out is not optimal
        assert kkt_residual(solution) <= KKT_TOLERANCE
        assert solution.energy < solve_no_reclaim(tight).energy

    def test_metadata_records_the_iteration(self):
        problem = _problem(generators.layered_dag(60, seed=21))
        solution = solve_general_convex_sparse(problem)
        assert solution.metadata["converged"]
        assert solution.metadata["iterations"] > 0
        assert solution.metadata["n_constraints"] > 0
        assert solution.metadata["factorization"] == "cholesky"
        assert 0.0 < solution.metadata["fill"] <= 1.0

    def test_iteration_budget_on_large_dag_shapes(self):
        # large_dag's check-sample shapes: with the duals started at the
        # objective's scale these take 84 + 103 iterations; with λ = 1/s,
        # a start gap of the row count, they took 117 + 152
        total = 0
        for cls, n in (("layered", 500), ("erdos", 250)):
            for seed in range(4):
                problem = make_workload(WorkloadSpec(
                    graph_class=cls, n_tasks=n, n_processors=0, slack=1.5,
                    s_max=1.0, seed=seed))
                solution = solve_general_convex_sparse(problem)
                assert solution.metadata["converged"], (cls, seed)
                check_solution(solution)
                assert kkt_residual(solution) <= KKT_TOLERANCE
                total += solution.metadata["iterations"]
        assert total <= 215

    def test_registered_backend_and_aliases(self):
        problem = _problem(generators.layered_dag(40, seed=2))
        by_method = solve(problem, method="convex-sparse")
        assert by_method.solver == "continuous-convex-sparse"
        assert solve(problem, method="sparse").solver == "continuous-convex-sparse"
        assert solve(problem, method="ipm").solver == "continuous-convex-sparse"
        from repro.modeling import BACKENDS
        from repro.utils.errors import InvalidOptionError
        from repro.vdd.lp import declare_vdd_lp
        # a backend's declared choices catch a bad value before it runs
        lp = declare_vdd_lp(problem.with_model(VddHoppingModel(modes=(0.5, 1.0))))
        with pytest.raises(InvalidOptionError, match="highs-ipm"):
            BACKENDS.solve(lp, backend="highs", options={"method": "x"})

    def test_unknown_option_names_the_backend(self):
        problem = _problem(generators.layered_dag(20, seed=2))
        with pytest.raises(UnknownOptionError,
                           match=r"continuous/convex-sparse"):
            solve(problem, method="convex-sparse", options={"bogus": 1})

    def test_auto_dispatch_routes_large_general_dags_to_sparse(self):
        large = _problem(generators.layered_dag(108, seed=31), slack=1.4)
        assert solve_continuous(large).solver == "continuous-convex-sparse"

    def test_edge_pruning_preserves_reachability_constraints(self):
        graph = generators.erdos_dag(80, seed=19, edge_probability=0.3)
        idx = graph.index()
        esrc, edst = prune_redundant_edges(idx)
        assert len(esrc) < idx.n_edges  # dense random DAGs shed most edges
        # every pruned edge must still be implied: identical ASAP times
        durations = idx.works / 0.7
        _, full_finish = asap_times(idx, durations)
        g_pruned, _h = build_sparse_constraints(idx.n_tasks, esrc, edst,
                                                np.full(idx.n_tasks, 1e-9))
        # rebuild a graph from the surviving edges and compare schedules
        from repro.graphs.taskgraph import TaskGraph
        pruned_graph = TaskGraph(
            tasks=[(name, graph.work(name)) for name in idx.names],
            edges=[(idx.names[u], idx.names[v]) for u, v in zip(esrc, edst)])
        _, pruned_finish = asap_times(pruned_graph.index(), durations)
        np.testing.assert_allclose(pruned_finish, full_finish, rtol=1e-12)


# --------------------------------------------------------------------------- #
# asap_update cone repairs == full recomputes
# --------------------------------------------------------------------------- #
class TestAsapUpdate:
    @pytest.mark.parametrize("cls", ["layered", "erdos", "tree", "chain"])
    def test_randomized_flips_match_full_recompute(self, cls):
        gen = {"layered": generators.layered_dag, "erdos": generators.erdos_dag,
               "tree": generators.random_tree, "chain": generators.chain}[cls]
        graph = gen(60, seed=23)
        idx = graph.index()
        rng = np.random.default_rng(23)
        modes = np.array([0.25, 0.5, 0.75, 1.0])
        speed_of = rng.integers(0, len(modes), size=idx.n_tasks)
        durations = idx.works / modes[speed_of]
        start, finish = asap_times(idx, durations)
        for _ in range(200):
            task = int(rng.integers(0, idx.n_tasks))
            speed_of[task] = int(rng.integers(0, len(modes)))  # up or down
            durations[task] = idx.works[task] / modes[speed_of[task]]
            touched = idx.asap_update(durations, start, finish, task)
            assert touched is not None
            ref_start, ref_finish = asap_times(idx, durations)
            np.testing.assert_array_equal(start, ref_start)
            np.testing.assert_array_equal(finish, ref_finish)

    def test_noop_change_touches_nothing(self):
        graph = generators.layered_dag(40, seed=5)
        idx = graph.index()
        durations = idx.works / 1.0
        start, finish = asap_times(idx, durations)
        assert idx.asap_update(durations, start, finish, 7) == []

    def test_revert_restores_exactly(self):
        graph = generators.layered_dag(50, seed=29)
        idx = graph.index()
        durations = idx.works / 1.0
        start, finish = asap_times(idx, durations)
        before = (start.copy(), finish.copy())
        old = durations[3]
        durations[3] *= 2.5
        assert idx.asap_update(durations, start, finish, 3)
        durations[3] = old
        idx.asap_update(durations, start, finish, 3)
        np.testing.assert_array_equal(start, before[0])
        np.testing.assert_array_equal(finish, before[1])

    def test_visit_budget_aborts(self):
        graph = generators.chain(100, seed=1)
        idx = graph.index()
        durations = idx.works / 1.0
        start, finish = asap_times(idx, durations)
        durations[0] *= 2.0
        assert idx.asap_update(durations, start, finish, 0, max_visits=5) is None
        # caller contract: rebuild fully after an aborted update
        start, finish = asap_times(idx, durations)
        assert finish[-1] == pytest.approx(float(np.sum(durations)))


# --------------------------------------------------------------------------- #
# incremental greedy == classical rescan greedy
# --------------------------------------------------------------------------- #
class TestIncrementalGreedy:
    @staticmethod
    def _reference_greedy(problem):
        """The seed formulation: full rescan, full makespan per probe."""
        model = problem.model
        graph = problem.graph
        idx = graph.index()
        works = idx.works
        modes = list(model.modes)
        power = problem.power
        deadline = problem.deadline
        mode_of = [len(modes) - 1] * idx.n_tasks
        durations = (works / modes[-1]).copy()
        while True:
            best_i = None
            best_saving = 0.0
            for i in range(idx.n_tasks):
                m = mode_of[i]
                if m == 0:
                    continue
                saving = (power.energy_for_work(works[i], modes[m])
                          - power.energy_for_work(works[i], modes[m - 1]))
                if saving <= best_saving:
                    continue
                old = durations[i]
                durations[i] = works[i] / modes[m - 1]
                feasible = leq_with_tol(compute_makespan(graph, durations), deadline)
                durations[i] = old
                if feasible:
                    best_i, best_saving = i, saving
            if best_i is None:
                break
            mode_of[best_i] -= 1
            durations[best_i] = works[best_i] / modes[mode_of[best_i]]
        return {idx.names[i]: modes[m] for i, m in enumerate(mode_of)}

    @pytest.mark.parametrize("cls,n,slack", [
        ("layered", 40, 1.3), ("tree", 60, 1.8), ("chain", 25, 1.2),
        ("erdos", 50, 1.6), ("fork", 30, 2.5),
    ])
    def test_matches_reference_move_for_move(self, cls, n, slack):
        from repro.discrete.heuristics import solve_discrete_greedy_reclaim

        gen = {"layered": generators.layered_dag, "tree": generators.random_tree,
               "chain": generators.chain, "erdos": generators.erdos_dag,
               "fork": generators.fork}[cls]
        graph = gen(n, seed=37)
        problem = _problem(graph, slack=slack,
                           model=DiscreteModel(modes=(0.3, 0.55, 0.8, 1.0)))
        incremental = solve_discrete_greedy_reclaim(problem)
        check_solution(incremental)
        reference = self._reference_greedy(problem)
        assert incremental.speeds() == pytest.approx(reference)

    def test_all_slowest_shortcut(self):
        from repro.discrete.heuristics import solve_discrete_greedy_reclaim

        graph = generators.layered_dag(30, seed=41)
        problem = _problem(graph, slack=50.0,
                           model=DiscreteModel(modes=(0.5, 1.0)))
        solution = solve_discrete_greedy_reclaim(problem)
        assert solution.metadata.get("all_slowest_shortcut")
        assert set(solution.speeds().values()) == {0.5}

    def test_best_heuristic_accepts_large_wide_graphs(self):
        from repro.discrete.heuristics import solve_discrete_best_heuristic

        graph = generators.layered_dag(600, seed=43)
        problem = _problem(graph, slack=1.4,
                           model=DiscreteModel(modes=(0.25, 0.5, 0.75, 1.0)))
        solution = solve_discrete_best_heuristic(problem)
        check_solution(solution)
        # above the retired 512 cap the greedy now actually runs
        assert "greedy_skipped" not in solution.metadata
        assert "greedy_energy" in solution.metadata

    def test_best_heuristic_depth_guard(self):
        from repro.discrete.heuristics import solve_discrete_best_heuristic

        graph = generators.chain(2100, seed=47)
        problem = _problem(graph, slack=1.4,
                           model=DiscreteModel(modes=(0.5, 1.0)))
        solution = solve_discrete_best_heuristic(problem)
        assert "greedy_depth_threshold" in solution.metadata["greedy_skipped"]


# --------------------------------------------------------------------------- #
# calibrated shard priors
# --------------------------------------------------------------------------- #
class TestPriorsFromRows:
    @staticmethod
    def _rows(coeff, exponent, sizes, cls="layered", reps=3, noise=0.0):
        rng = np.random.default_rng(53)
        rows = []
        for n in sizes:
            for _ in range(reps):
                seconds = coeff * (n / 100.0) ** exponent
                if noise:
                    seconds *= float(np.exp(rng.normal(0.0, noise)))
                rows.append({"graph_class": cls, "n_tasks": n,
                             "seconds": seconds, "ok": True, "cache_hit": False})
        return rows

    def test_fit_recovers_synthetic_power_law(self):
        rows = self._rows(0.05, 1.7, (100, 400, 1600))
        priors = priors_from_rows(rows)
        coeff, exponent = priors["layered"]
        assert exponent == pytest.approx(1.7, abs=1e-9)
        assert coeff == pytest.approx(0.05, rel=1e-9)
        # the fitted priors drive estimate_cost verbatim
        assert estimate_cost("layered", 400, priors=priors) == \
            pytest.approx(0.05 * 4.0 ** 1.7, rel=1e-9)

    def test_fit_is_robust_to_noise_and_pools_the_fallback(self):
        rows = (self._rows(0.05, 1.7, (100, 400, 1600), noise=0.2)
                + self._rows(0.002, 1.0, (100, 400, 1600), cls="chain", noise=0.2))
        priors = priors_from_rows(rows)
        assert priors["layered"][1] == pytest.approx(1.7, abs=0.35)
        assert priors["chain"][1] == pytest.approx(1.0, abs=0.35)
        assert None in priors  # pooled fallback for unknown classes

    def test_failed_and_cached_rows_are_ignored(self):
        rows = self._rows(0.05, 1.7, (100, 400))
        rows.append({"graph_class": "layered", "n_tasks": 400,
                     "seconds": 1e-5, "ok": True, "cache_hit": True})
        rows.append({"graph_class": "layered", "n_tasks": 400,
                     "seconds": 99.0, "ok": False, "cache_hit": False})
        priors = priors_from_rows(rows)
        assert priors["layered"][1] == pytest.approx(1.7, abs=1e-9)

    def test_single_size_keeps_builtin_exponent(self):
        rows = self._rows(0.05, 1.7, (400,), cls="chain")
        priors = priors_from_rows(rows, model="continuous")
        coeff, exponent = priors["chain"]
        assert exponent == 1.0  # the built-in chain exponent
        assert coeff == pytest.approx(0.05 * 4.0 ** 1.7 / 4.0 ** 1.0, rel=1e-9)

    def test_accepts_sweep_tables(self):
        table = Table(columns=["graph_class", "n_tasks", "slack", "seconds",
                               "ok", "cache_hit"],
                      title="t")
        for n in (64, 256):
            table.add_row("layered", n, 1.5, 0.01 * (n / 100.0) ** 2.0, True, False)
        priors = priors_from_rows(table)
        assert priors["layered"][1] == pytest.approx(2.0, abs=1e-9)

    def test_sweep_accepts_calibrated_priors(self):
        from repro.batch import sweep

        priors = {"layered": (5.0, 2.0), "chain": (0.001, 1.0), None: (1.0, 2.0)}
        legs = [sweep(graph_classes=("chain", "layered"), sizes=(8, 12),
                      slacks=(1.5,), repetitions=2, seed=3,
                      shard=f"{i}/2", priors=priors)
                for i in (1, 2)]
        total = sum(len(leg) for leg in legs)
        full = sweep(graph_classes=("chain", "layered"), sizes=(8, 12),
                     slacks=(1.5,), repetitions=2, seed=3)
        assert total == len(full)
