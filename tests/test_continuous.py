"""Tests for the Continuous-model solvers (Theorems 1 and 2 + convex solver)."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st
from kkt import KKT_TOLERANCE, kkt_residual

from repro.continuous import (
    continuous_lower_bound,
    critical_path_lower_bound,
    equivalent_load,
    fork_optimal_speeds,
    load_lower_bound,
    solve_chain,
    solve_continuous,
    solve_fork,
    solve_general_convex_sparse,
    solve_join,
    solve_series_parallel,
    solve_single_task,
    solve_tree,
)
from repro.continuous.tree import is_tree, tree_equivalent_load
from repro.core.models import ContinuousModel
from repro.core.power import PowerLaw
from repro.core.problem import MinEnergyProblem
from repro.core.validation import check_solution
from repro.graphs import generators
from repro.graphs.analysis import longest_path_length
from repro.graphs.taskgraph import TaskGraph
from repro.utils.errors import (
    InfeasibleProblemError,
    InvalidGraphError,
    InvalidModelError,
    SolverError,
)
from repro.utils.numerics import cube_root


def _problem(graph, slack, s_max=1.0):
    min_makespan = longest_path_length(graph) / s_max
    return MinEnergyProblem(graph=graph, deadline=slack * min_makespan,
                            model=ContinuousModel(s_max=s_max))


class TestClosedForms:
    def test_single_task_runs_until_deadline(self):
        g = TaskGraph(tasks=[("A", 4.0)])
        p = MinEnergyProblem(graph=g, deadline=2.0, model=ContinuousModel(s_max=10.0))
        s = solve_single_task(p)
        assert s.speeds()["A"] == pytest.approx(2.0)
        assert s.energy == pytest.approx(16.0)  # w * s^2
        check_solution(s)

    def test_single_task_infeasible(self):
        g = TaskGraph(tasks=[("A", 4.0)])
        p = MinEnergyProblem(graph=g, deadline=2.0, model=ContinuousModel(s_max=1.0))
        with pytest.raises(InfeasibleProblemError):
            solve_single_task(p)

    def test_single_task_rejects_larger_graph(self, small_chain):
        p = _problem(small_chain, 2.0)
        with pytest.raises(InvalidGraphError):
            solve_single_task(p)

    def test_chain_uses_common_speed(self, small_chain):
        p = _problem(small_chain, 2.0)
        s = solve_chain(p)
        speeds = set(round(v, 12) for v in s.speeds().values())
        assert len(speeds) == 1
        assert s.makespan == pytest.approx(p.deadline)
        check_solution(s)

    def test_chain_energy_formula(self, small_chain):
        # E = W^3 / D^2 for a chain under the cubic law
        p = _problem(small_chain, 2.0)
        s = solve_chain(p)
        W = small_chain.total_work()
        assert s.energy == pytest.approx(W ** 3 / p.deadline ** 2)

    def test_chain_rejects_fork(self, small_fork):
        with pytest.raises(InvalidGraphError):
            solve_chain(_problem(small_fork, 2.0))

    def test_fork_formula_matches_theorem1(self):
        # Theorem 1 with explicit numbers
        w0, works, deadline = 2.0, [1.0, 2.0, 3.0], 10.0
        s0, leaf_speeds = fork_optimal_speeds(w0, works, deadline)
        norm = cube_root(sum(w ** 3 for w in works))
        assert s0 == pytest.approx((norm + w0) / deadline)
        for w, s in zip(works, leaf_speeds):
            assert s == pytest.approx(s0 * w / norm)

    def test_fork_saturated_branch(self):
        # force s0 above s_max: unconstrained s0 = (cbrt(36) + 2) / 5.2 > 1
        w0, works = 2.0, [1.0, 2.0, 3.0]
        s_max = 1.0
        deadline = 5.2  # min makespan = (2+3)/1 = 5
        s0, leaf_speeds = fork_optimal_speeds(w0, works, deadline, s_max=s_max)
        assert s0 == pytest.approx(s_max)
        remaining = deadline - w0 / s_max
        assert leaf_speeds == pytest.approx([w / remaining for w in works])

    def test_fork_saturated_branch_infeasible(self):
        with pytest.raises(InfeasibleProblemError):
            fork_optimal_speeds(2.0, [1.0, 2.0, 3.0], 4.9, s_max=1.0)

    def test_fork_source_alone_exceeds_deadline(self):
        with pytest.raises(InfeasibleProblemError):
            fork_optimal_speeds(10.0, [1.0], 5.0, s_max=1.0)

    def test_solve_fork_solution(self, small_fork):
        p = _problem(small_fork, 1.5)
        s = solve_fork(p)
        assert s.optimal
        check_solution(s)
        # leaves all finish exactly at the deadline in the unsaturated branch
        finishes = [s.schedule.finish[f"T{i}"] for i in range(1, 5)]
        assert all(f == pytest.approx(p.deadline) for f in finishes)

    def test_solve_join_matches_fork_energy(self):
        works = [1.0, 2.0, 3.0, 4.0]
        fork_graph = generators.fork(4, source_work=2.0, works=works)
        join_graph = generators.join(4, sink_work=2.0, works=works)
        pf = _problem(fork_graph, 1.5)
        pj = MinEnergyProblem(graph=join_graph, deadline=pf.deadline,
                              model=ContinuousModel(s_max=1.0))
        sf, sj = solve_fork(pf), solve_join(pj)
        assert sf.energy == pytest.approx(sj.energy)
        check_solution(sj)

    def test_solve_fork_rejects_chain(self, small_chain):
        with pytest.raises(InvalidGraphError):
            solve_fork(_problem(small_chain, 2.0))

    @given(st.integers(min_value=1, max_value=12),
           st.floats(min_value=1.05, max_value=5.0),
           st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=30, deadline=None)
    def test_fork_closed_form_beats_uniform_scaling(self, n, slack, seed):
        """The closed form is optimal, so it never loses to uniform scaling."""
        from repro.baselines.naive import solve_uniform_scaling

        g = generators.fork(n, seed=seed)
        p = _problem(g, slack)
        closed = solve_fork(p)
        uniform = solve_uniform_scaling(p)
        assert closed.energy <= uniform.energy * (1 + 1e-9)
        check_solution(closed)


class TestSeriesParallelAndTree:
    def test_equivalent_load_single_task(self):
        g = TaskGraph(tasks=[("A", 3.0)])
        assert equivalent_load(g) == pytest.approx(3.0)

    def test_equivalent_load_chain_is_sum(self):
        g = generators.chain(3, works=[1.0, 2.0, 3.0])
        assert equivalent_load(g) == pytest.approx(6.0)

    def test_equivalent_load_parallel_is_cubic_norm(self):
        g = TaskGraph(tasks=[("A", 1.0), ("B", 2.0)])
        assert equivalent_load(g) == pytest.approx(cube_root(1.0 + 8.0))

    def test_equivalent_load_fork_matches_theorem1(self):
        g = generators.fork(3, source_work=2.0, works=[1.0, 2.0, 3.0])
        expected = 2.0 + cube_root(1.0 + 8.0 + 27.0)
        assert equivalent_load(g) == pytest.approx(expected)

    def test_sp_energy_formula(self, small_sp_graph):
        p = _problem(small_sp_graph, 2.0)
        s = solve_series_parallel(p)
        load = equivalent_load(small_sp_graph)
        assert s.energy == pytest.approx(load ** 3 / p.deadline ** 2)
        check_solution(s)

    def test_sp_matches_convex_solver(self, small_sp_graph):
        p = MinEnergyProblem(graph=small_sp_graph,
                             deadline=2.0 * longest_path_length(small_sp_graph),
                             model=ContinuousModel(s_max=100.0))
        sp = solve_series_parallel(p)
        convex = solve_general_convex_sparse(p)
        assert sp.energy == pytest.approx(convex.energy, rel=1e-5)

    def test_sp_speed_cap_violation_raises(self):
        g = generators.chain(3, works=[1.0, 1.0, 1.0])
        # the uncapped optimum runs the chain at speed 3 / 2.5 = 1.2 > s_max
        p = MinEnergyProblem(graph=g, deadline=2.5, model=ContinuousModel(s_max=1.1))
        with pytest.raises(SolverError):
            solve_series_parallel(p)

    def test_fork_on_fork_graph_equals_sp_solver(self, small_fork):
        p = _problem(small_fork, 1.5)
        assert solve_fork(p).energy == pytest.approx(solve_series_parallel(p).energy)

    def test_is_tree_recognition(self):
        assert is_tree(generators.random_tree(10, seed=0))
        assert is_tree(generators.random_tree(10, seed=0, direction="in"))
        assert is_tree(generators.chain(5, works=[1.0] * 5))
        assert not is_tree(generators.fork_join(3, seed=1))
        assert not is_tree(generators.diamond(2, 3, seed=2))
        assert not is_tree(TaskGraph(tasks=[("A", 1.0), ("B", 1.0)]))  # forest, not a tree

    def test_tree_equivalent_load_fork(self):
        g = generators.fork(3, source_work=2.0, works=[1.0, 2.0, 3.0])
        load = tree_equivalent_load(g, "T0")
        assert load == pytest.approx(equivalent_load(g))

    def test_tree_equivalent_load_checks_direction(self):
        g = generators.random_tree(30, seed=4, direction="in")
        root = g.sinks()[0]
        assert tree_equivalent_load(g, root, direction="in") == pytest.approx(
            equivalent_load(g))
        # read as an out-tree, the sink has no children: its own work
        with pytest.raises(InvalidGraphError, match="not an out-tree"):
            tree_equivalent_load(g, root, direction="out")
        with pytest.raises(InvalidGraphError, match="direction"):
            tree_equivalent_load(g, root, direction="up")
        with pytest.raises(InvalidGraphError, match="not an out-tree"):
            tree_equivalent_load(generators.fork_join(3, seed=1), "T0")
        chain = generators.chain(6, seed=2)
        assert tree_equivalent_load(chain, chain.sources()[0]) == pytest.approx(
            tree_equivalent_load(chain, chain.sinks()[0], direction="in"))

    def test_tree_equivalent_load_refuses_an_unknown_root(self):
        g = generators.random_tree(10, seed=0)
        with pytest.raises(InvalidGraphError, match="no task 'nope'"):
            tree_equivalent_load(g, "nope")

    @pytest.mark.parametrize("alpha", [1.0, 0.5, -2.0, math.nan])
    def test_equivalent_loads_refuse_the_alphas_power_law_refuses(self, alpha):
        with pytest.raises(InvalidModelError):
            PowerLaw(alpha)
        g = generators.fork(3, source_work=2.0, works=[1.0, 2.0, 3.0])
        with pytest.raises(InvalidModelError, match="alpha must be > 1"):
            equivalent_load(g, alpha=alpha)
        with pytest.raises(InvalidModelError, match="alpha must be > 1"):
            tree_equivalent_load(g, "T0", alpha=alpha)

    def test_tree_solver_matches_sp_solver(self):
        g = generators.random_tree(20, seed=3)
        p = _problem(g, 2.0)
        assert solve_tree(p).energy == pytest.approx(solve_series_parallel(p).energy)

    def test_in_tree_solver(self):
        g = generators.random_tree(15, seed=4, direction="in")
        p = _problem(g, 2.0)
        s = solve_tree(p)
        check_solution(s)
        assert s.energy == pytest.approx(solve_series_parallel(p).energy)

    def test_tree_solver_rejects_non_tree(self, small_layered_dag):
        with pytest.raises(InvalidGraphError):
            solve_tree(_problem(small_layered_dag, 2.0))

    def test_general_alpha_parallel_rule(self):
        g = TaskGraph(tasks=[("A", 1.0), ("B", 2.0)])
        p = MinEnergyProblem(graph=g, deadline=4.0, model=ContinuousModel(),
                             power=PowerLaw(alpha=2.0))
        s = solve_series_parallel(p)
        # alpha = 2: E = (w1^2 + w2^2) / D
        assert s.energy == pytest.approx((1.0 + 4.0) / 4.0)

    @given(st.integers(min_value=2, max_value=25),
           st.floats(min_value=1.2, max_value=4.0),
           st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=20, deadline=None)
    def test_sp_solution_always_feasible_and_tight(self, n, slack, seed):
        g = generators.random_series_parallel(n, seed=seed)
        p = _problem(g, slack)
        try:
            s = solve_series_parallel(p)
        except SolverError:
            return  # s_max violated: out of Theorem 2's scope
        check_solution(s)
        # optimal continuous schedules finish exactly at the deadline
        assert s.makespan == pytest.approx(p.deadline, rel=1e-9)


class TestTheorem2Passes:
    """The one fold-and-split pass behind the tree, SP and batch solvers.

    With no second implementation left to compare against, the KKT
    residual (``tests/kkt.py``) checks each answer's optimality without
    trusting the pass.
    """

    @given(st.sampled_from(["out", "in", "series-parallel"]),
           st.integers(min_value=1, max_value=256),
           st.floats(min_value=1.5, max_value=4.0),
           st.floats(min_value=1.05, max_value=4.0),
           st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_energy_is_load_to_the_alpha_over_deadline(self, shape, n, alpha,
                                                       slack, seed):
        from repro.batch import solve_batch

        if shape == "series-parallel":
            graph = generators.random_series_parallel(n, seed=seed)
            solver = solve_series_parallel
        else:
            graph = generators.random_tree(n, seed=seed, direction=shape)
            solver = solve_tree
        p = MinEnergyProblem(graph=graph,
                             deadline=slack * longest_path_length(graph),
                             model=ContinuousModel(),
                             power=PowerLaw(alpha=alpha))
        s = solver(p)
        check_solution(s)
        assert kkt_residual(s) <= KKT_TOLERANCE
        assert s.makespan == pytest.approx(p.deadline, rel=1e-9)
        load = s.metadata["equivalent_load"]
        assert s.energy == pytest.approx(
            load ** alpha / p.deadline ** (alpha - 1), rel=1e-12)
        [row] = solve_batch([p])
        assert row.ok and row.metadata["vectorized"]
        assert row.energy == pytest.approx(s.energy, rel=1e-12)


class TestConvexSolver:
    def test_matches_chain_closed_form(self, small_chain):
        p = _problem(small_chain, 2.0)
        assert solve_general_convex_sparse(p).energy == \
            pytest.approx(solve_chain(p).energy, rel=1e-6)

    def test_matches_fork_closed_form_saturated(self):
        g = generators.fork(3, source_work=2.0, works=[1.0, 2.0, 3.0])
        p = MinEnergyProblem(graph=g, deadline=5.5, model=ContinuousModel(s_max=1.0))
        closed = solve_fork(p)
        convex = solve_general_convex_sparse(p)
        assert convex.energy == pytest.approx(closed.energy, rel=1e-5)

    def test_diamond_graph(self):
        g = generators.diamond(3, 3, seed=0)
        p = _problem(g, 1.8)
        s = solve_general_convex_sparse(p)
        check_solution(s)
        assert s.energy >= critical_path_lower_bound(p) - 1e-9

    def test_single_task_shortcut(self):
        g = TaskGraph(tasks=[("A", 2.0)])
        p = MinEnergyProblem(graph=g, deadline=4.0, model=ContinuousModel(s_max=1.0))
        s = solve_general_convex_sparse(p)
        assert s.speeds()["A"] == pytest.approx(0.5)

    def test_infeasible_detected(self, small_chain):
        p = MinEnergyProblem(graph=small_chain, deadline=1.0,
                             model=ContinuousModel(s_max=1.0))
        with pytest.raises(InfeasibleProblemError):
            solve_general_convex_sparse(p)

    @given(st.integers(min_value=2, max_value=16),
           st.floats(min_value=1.1, max_value=3.0),
           st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=15, deadline=None)
    def test_convex_between_bounds(self, n, slack, seed):
        g = generators.layered_dag(n, seed=seed)
        p = _problem(g, slack)
        s = solve_general_convex_sparse(p)
        check_solution(s)
        lower = max(load_lower_bound(p), critical_path_lower_bound(p))
        assert s.energy >= lower * (1 - 1e-6)
        # never worse than uniform scaling
        from repro.baselines.naive import solve_uniform_scaling

        assert s.energy <= solve_uniform_scaling(p).energy * (1 + 1e-6)


class TestDispatcherAndBounds:
    def test_dispatcher_uses_closed_form_for_fork(self, small_fork):
        s = solve_continuous(_problem(small_fork, 1.5))
        assert "fork" in s.solver

    def test_dispatcher_uses_sp_for_sp_graph(self, small_sp_graph):
        s = solve_continuous(_problem(small_sp_graph, 2.0))
        assert s.solver in ("continuous-series-parallel", "continuous-tree")

    def test_dispatcher_uses_convex_for_diamond(self):
        g = generators.diamond(3, 3, seed=1)
        s = solve_continuous(_problem(g, 2.0))
        assert s.solver == "continuous-convex-sparse"

    def test_dispatcher_falls_back_when_cap_violated(self):
        # SP algorithm would exceed s_max; dispatcher must fall back to convex
        g = generators.random_series_parallel(8, seed=11)
        min_makespan = longest_path_length(g)
        p = MinEnergyProblem(graph=g, deadline=1.05 * min_makespan,
                             model=ContinuousModel(s_max=1.0))
        s = solve_continuous(p)
        check_solution(s)

    def test_capped_tree_goes_straight_to_convex(self, monkeypatch):
        # a tree's SP speeds are its tree speeds: once the tree pass breaks
        # s_max, the SP solver can only break it again
        import repro.continuous.solve as continuous_solve
        from repro.solve import solve

        calls = []
        sp_solver = continuous_solve.solve_series_parallel
        monkeypatch.setattr(continuous_solve, "solve_series_parallel",
                            lambda problem: calls.append(problem)
                            or sp_solver(problem))
        g = generators.random_tree(500, seed=7)
        p = MinEnergyProblem(graph=g, deadline=1.02 * longest_path_length(g),
                             model=ContinuousModel(s_max=1.0))
        with pytest.raises(SolverError):
            solve_tree(p)
        s = solve(p)
        assert s.solver == "continuous-convex-sparse"
        assert calls == []
        check_solution(s)

    def test_dispatcher_force_method(self, small_fork):
        p = _problem(small_fork, 1.5)
        assert solve_continuous(p, force_method="convex").solver == \
            "continuous-convex-sparse"
        assert "closed-form" in solve_continuous(p, force_method="closed-form").solver \
            or "fork" in solve_continuous(p, force_method="closed-form").solver
        with pytest.raises(InvalidModelError):
            solve_continuous(p, force_method="quantum")

    def test_dispatcher_rejects_wrong_model(self, small_fork):
        from repro.core.models import DiscreteModel

        p = MinEnergyProblem(graph=small_fork, deadline=20.0,
                             model=DiscreteModel(modes=(1.0,)))
        with pytest.raises(InvalidModelError):
            solve_continuous(p)

    def test_load_bound_below_cp_bound_below_optimum(self, small_layered_dag):
        p = _problem(small_layered_dag, 1.5)
        opt = solve_continuous(p).energy
        assert load_lower_bound(p) <= critical_path_lower_bound(p) + 1e-9
        assert critical_path_lower_bound(p) <= opt * (1 + 1e-6)

    def test_continuous_lower_bound_matches_continuous_optimum(self, small_sp_graph):
        p = _problem(small_sp_graph, 2.0)
        assert continuous_lower_bound(p) == pytest.approx(solve_continuous(p).energy)

    def test_continuous_lower_bound_for_discrete_model(self, small_sp_graph):
        from repro.core.models import DiscreteModel

        p = MinEnergyProblem(graph=small_sp_graph, deadline=40.0,
                             model=DiscreteModel(modes=(0.5, 1.0)))
        lb_capped = continuous_lower_bound(p)
        lb_uncapped = continuous_lower_bound(p, use_model_speed_cap=False)
        assert lb_uncapped <= lb_capped + 1e-9
