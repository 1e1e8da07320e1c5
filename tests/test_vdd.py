"""Tests for the Vdd-Hopping solvers (Theorem 3) and their LP certificate."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.continuous.bounds import continuous_lower_bound
from repro.core.models import (
    ContinuousModel,
    DiscreteModel,
    IncrementalModel,
    VddHoppingModel,
)
from repro.core.power import PowerLaw
from repro.core.problem import MinEnergyProblem
from repro.core.solution import HoppingAssignment
from repro.core.validation import check_certificate, check_solution
from repro.discrete.relaxation import solve_discrete_lp_relaxation
from repro.graphs import generators
from repro.graphs.analysis import longest_path_length
from repro.graphs.taskgraph import TaskGraph
from repro.modeling import BACKENDS
from repro.utils.errors import (
    InfeasibleProblemError,
    InvalidModelError,
    InvalidSolutionError,
    SolverError,
)
from repro.vdd import (
    build_vdd_lp,
    solve_vdd_hopping,
    solve_vdd_lp,
    solve_vdd_mixing,
    two_mode_mix,
)
from repro.vdd.lp import declare_vdd_lp


def _problem(graph, slack, modes=(0.4, 0.7, 1.0)):
    model = VddHoppingModel(modes=modes)
    min_makespan = longest_path_length(graph) / model.max_speed
    return MinEnergyProblem(graph=graph, deadline=slack * min_makespan, model=model)


class TestTwoModeMix:
    def test_mix_preserves_work_and_duration(self):
        segments = two_mode_mix(work=3.0, duration=4.0, s_low=0.5, s_high=1.0)
        assert sum(s * t for s, t in segments) == pytest.approx(3.0)
        assert sum(t for _s, t in segments) == pytest.approx(4.0)

    def test_mix_single_mode_when_equal(self):
        segments = two_mode_mix(work=2.0, duration=4.0, s_low=0.5, s_high=0.5)
        assert segments == [(0.5, pytest.approx(4.0))]

    def test_mix_rejects_unbracketed_speed(self):
        with pytest.raises(InvalidModelError):
            two_mode_mix(work=10.0, duration=4.0, s_low=0.5, s_high=1.0)  # ideal 2.5

    def test_mix_rejects_bad_duration(self):
        with pytest.raises(InvalidModelError):
            two_mode_mix(work=1.0, duration=0.0, s_low=0.5, s_high=1.0)

    @given(st.floats(min_value=0.1, max_value=10.0),
           st.floats(min_value=0.1, max_value=5.0),
           st.floats(min_value=0.1, max_value=1.0),
           st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=50)
    def test_mix_energy_below_upper_mode_energy(self, work, s_low, gap, frac):
        """Mixing never costs more than running everything at the upper mode
        for the same work (the upper mode is faster, hence more expensive per
        unit of work)."""
        s_high = s_low + gap + 1e-3
        ideal = s_low + frac * (s_high - s_low)
        duration = work / ideal
        segments = two_mode_mix(work, duration, s_low, s_high)
        energy = sum(s ** 3 * t for s, t in segments)
        upper_energy = work * s_high ** 2
        assert energy <= upper_energy * (1 + 1e-9)


class TestVddLP:
    def test_lp_dimensions(self, small_sp_graph):
        p = _problem(small_sp_graph, 1.5)
        lp = build_vdd_lp(p)
        n, m = small_sp_graph.n_tasks, 3
        assert lp.c.size == n * m + n
        assert lp.a_eq.shape == (n, n * m + n)
        assert lp.a_ub.shape[0] == small_sp_graph.n_edges + n

    def test_lp_requires_vdd_model(self, small_sp_graph):
        p = MinEnergyProblem(graph=small_sp_graph, deadline=100.0,
                             model=ContinuousModel())
        with pytest.raises(InvalidModelError):
            build_vdd_lp(p)

    def test_single_task_two_modes_matches_hand_computation(self):
        # one task, work 1, modes {1, 2}, deadline 0.75:
        # run a at speed 1 and b at speed 2 with a + b = 0.75, a + 2b = 1
        # -> b = 0.25, a = 0.5; energy = 0.5 * 1 + 0.25 * 8 = 2.5
        g = TaskGraph(tasks=[("A", 1.0)])
        p = MinEnergyProblem(graph=g, deadline=0.75,
                             model=VddHoppingModel(modes=(1.0, 2.0)))
        s = solve_vdd_lp(p)
        assert s.energy == pytest.approx(2.5, rel=1e-6)
        check_solution(s)

    def test_lp_optimum_between_continuous_and_discrete(self, small_layered_dag):
        modes = (0.4, 0.7, 1.0)
        p = _problem(small_layered_dag, 1.4, modes=modes)
        lp = solve_vdd_lp(p)
        check_solution(lp)
        lb = continuous_lower_bound(p)
        assert lp.energy >= lb * (1 - 1e-6)
        from repro.discrete.heuristics import solve_discrete_best_heuristic
        from repro.core.models import DiscreteModel

        disc = solve_discrete_best_heuristic(p.with_model(DiscreteModel(modes=modes)))
        assert lp.energy <= disc.energy * (1 + 1e-6)

    def test_lp_backends_agree(self, small_sp_graph):
        # every available LP backend lands on the optimum that HiGHS's
        # duals certify; the certificate, not a second solver, is the proof
        p = _problem(small_sp_graph, 1.5)
        certified = solve_vdd_lp(p, backend="highs")
        assert -1e-12 <= certified.metadata["certificate_gap"] <= 1e-9
        for backend in BACKENDS.available("lp"):
            solution = solve_vdd_lp(p, backend=backend)
            check_solution(solution)
            assert solution.lower_bound <= solution.energy * (1 + 1e-9)
            assert solution.energy >= certified.lower_bound * (1 - 1e-9)
            assert solution.energy == pytest.approx(certified.lower_bound,
                                                    rel=1e-6)

    def test_unknown_backend(self, small_sp_graph):
        p = _problem(small_sp_graph, 1.5)
        with pytest.raises(SolverError):
            solve_vdd_lp(p, backend="quantum")

    def test_infeasible_instance(self, small_chain):
        model = VddHoppingModel(modes=(0.5, 1.0))
        p = MinEnergyProblem(graph=small_chain, deadline=1.0, model=model)
        with pytest.raises(InfeasibleProblemError):
            solve_vdd_lp(p)

    def test_returns_hopping_assignment(self, small_sp_graph):
        p = _problem(small_sp_graph, 1.5)
        s = solve_vdd_lp(p)
        assert isinstance(s.assignment, HoppingAssignment)
        assert s.optimal

    def test_each_task_uses_at_most_two_modes_in_some_optimum(self, small_layered_dag):
        """The LP optimum found by HiGHS (a vertex solution) mixes at most
        two modes per task — the paper's 'mix two consecutive modes' remark."""
        p = _problem(small_layered_dag, 1.4)
        s = solve_vdd_lp(p)
        for task, segs in s.assignment.segments.items():
            used = [mode for mode, t in segs if t > 1e-9]
            assert len(used) <= 2, f"task {task} mixes {len(used)} modes"


class TestVddMixingAndDispatch:
    def test_mixing_feasible_and_above_lp(self, small_layered_dag):
        p = _problem(small_layered_dag, 1.4)
        mixing = solve_vdd_mixing(p)
        lp = solve_vdd_lp(p)
        check_solution(mixing)
        assert mixing.energy >= lp.energy * (1 - 1e-9)

    def test_mixing_exact_when_continuous_speed_is_a_mode(self):
        # chain with total work 2 and deadline 4 -> continuous speed 0.5, a mode
        g = generators.chain(2, works=[1.0, 1.0])
        p = MinEnergyProblem(graph=g, deadline=4.0,
                             model=VddHoppingModel(modes=(0.5, 1.0)))
        mixing = solve_vdd_mixing(p)
        lp = solve_vdd_lp(p)
        assert mixing.energy == pytest.approx(lp.energy, rel=1e-9)

    def test_mixing_handles_ideal_below_slowest_mode(self):
        g = TaskGraph(tasks=[("A", 1.0)])
        p = MinEnergyProblem(graph=g, deadline=10.0,
                             model=VddHoppingModel(modes=(0.5, 1.0)))
        s = solve_vdd_mixing(p)
        # forced to the slowest mode
        assert s.assignment.segments["A"] == [(0.5, pytest.approx(2.0))]
        check_solution(s)

    def test_mixing_requires_vdd_model(self, small_chain):
        p = MinEnergyProblem(graph=small_chain, deadline=100.0, model=ContinuousModel())
        with pytest.raises(InvalidModelError):
            solve_vdd_mixing(p)

    def test_dispatch_methods(self, small_sp_graph):
        p = _problem(small_sp_graph, 1.5)
        assert solve_vdd_hopping(p).solver.startswith("vdd-lp")
        assert solve_vdd_hopping(p, method="mixing").solver == "vdd-two-mode-mixing"
        with pytest.raises(InvalidModelError):
            solve_vdd_hopping(p, method="telepathy")

    @given(st.integers(min_value=2, max_value=14),
           st.floats(min_value=1.1, max_value=3.0),
           st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=15, deadline=None)
    def test_lp_between_continuous_bound_and_mixing(self, n, slack, seed):
        g = generators.layered_dag(n, seed=seed)
        p = _problem(g, slack)
        lp = solve_vdd_lp(p)
        mixing = solve_vdd_mixing(p)
        lb = continuous_lower_bound(p)
        check_solution(lp)
        assert lb * (1 - 1e-6) <= lp.energy <= mixing.energy * (1 + 1e-6)


def _diamond(n, seed):
    rows = max(1, round(n ** 0.5))
    return generators.diamond(rows, max(1, n // rows), seed=seed)


#: graph classes by name; ``n`` is the (approximate) task count
GRAPH_CLASSES = {
    "chain": lambda n, seed: generators.chain(n, seed=seed),
    "diamond": _diamond,
    "erdos": lambda n, seed: generators.erdos_dag(n, seed=seed),
    "fork": lambda n, seed: generators.fork(max(1, n - 1), seed=seed),
    "fork_join": lambda n, seed: generators.fork_join(max(1, n - 2),
                                                      seed=seed),
    "join": lambda n, seed: generators.join(max(1, n - 1), seed=seed),
    "layered": lambda n, seed: generators.layered_dag(n, seed=seed),
    "sp": lambda n, seed: generators.random_series_parallel(n, seed=seed),
    "tree": lambda n, seed: generators.random_tree(n, seed=seed),
}


def _mode_problem(graph, modes, *, slack, alpha):
    deadline = slack * longest_path_length(graph) / max(modes)
    return MinEnergyProblem(graph=graph, deadline=deadline,
                            model=VddHoppingModel(modes=modes),
                            power=PowerLaw(alpha=alpha))


class TestCertificate:
    def test_isolated_task_is_bounded_by_its_own_deadline(self):
        # the LP of test_single_task_two_modes_matches_hand_computation:
        # with no edges the bound is max_c [min((1 + c)/1, (8 + c)/2) - 0.75c],
        # which peaks at the mode breakpoint c = 6 with the optimum 2.5
        g = TaskGraph(tasks=[("A", 1.0)])
        p = MinEnergyProblem(graph=g, deadline=0.75,
                             model=VddHoppingModel(modes=(1.0, 2.0)))
        assert check_certificate(p, np.zeros(0)) == pytest.approx(2.5)
        assert solve_vdd_lp(p).lower_bound == pytest.approx(2.5)

    @pytest.mark.parametrize("family", sorted(GRAPH_CLASSES))
    @pytest.mark.parametrize("alpha", [2.0, 3.0])
    def test_highs_duals_certify_every_mode_lp(self, family, alpha):
        modes = (0.2, 0.5, 0.8, 1.0)
        for n in (1, 30):
            for slack in (1.0, 1.7, 3.0):
                problem = _mode_problem(GRAPH_CLASSES[family](n, 3), modes,
                                        slack=slack, alpha=alpha)
                for solution in (
                        solve_vdd_lp(problem),
                        solve_discrete_lp_relaxation(
                            problem.with_model(DiscreteModel(modes=modes))),
                        solve_discrete_lp_relaxation(problem.with_model(
                            IncrementalModel.from_range(0.2, 1.0, 0.2)))):
                    gap = solution.metadata["certificate_gap"]
                    assert -1e-12 <= gap <= 1e-9, (solution.solver, n, slack)
                    assert solution.lower_bound <= solution.energy * (1 + 1e-9)

    @given(family=st.sampled_from(["diamond", "erdos", "fork_join", "layered"]),
           n=st.integers(min_value=1, max_value=40),
           seed=st.integers(min_value=0, max_value=10**6),
           steps=st.lists(st.integers(min_value=1, max_value=20),
                          min_size=2, max_size=6, unique=True),
           alpha=st.floats(min_value=1.5, max_value=4.0),
           slack=st.one_of(st.just(1.0), st.floats(min_value=1.0,
                                                   max_value=3.0)),
           scale=st.floats(min_value=0.0, max_value=30.0))
    @settings(max_examples=100, deadline=None)
    def test_random_flows_never_bound_above_the_optimum(
            self, family, n, seed, steps, alpha, slack, scale):
        modes = tuple(k / 10 for k in sorted(steps))
        problem = _mode_problem(GRAPH_CLASSES[family](n, seed), modes,
                                slack=slack, alpha=alpha)
        result = BACKENDS.solve(declare_vdd_lp(problem), backend="highs")
        n_edges = problem.graph.index().n_edges
        duals = np.maximum(result.duals[:n_edges], 0.0)
        rng = np.random.default_rng(seed)
        flows = [scale * rng.exponential(size=n_edges),
                 scale * rng.exponential(size=n_edges)
                 * (rng.random(n_edges) < 0.3),
                 duals * rng.uniform(0.5, 1.5, size=n_edges),
                 duals + scale * 0.01 * rng.random(n_edges)]
        for flow in flows:
            bound = check_certificate(problem, flow)
            assert bound <= result.objective * (1 + 1e-9)

    def test_rejects_flows_that_are_not_one_nonnegative_value_per_edge(self):
        problem = _mode_problem(generators.chain(3, seed=1), (0.5, 1.0),
                                slack=1.5, alpha=3.0)
        for flow in (np.ones(3), np.array([1.0, -1e-3]),
                     np.array([1.0, np.nan])):
            with pytest.raises(InvalidSolutionError):
                check_certificate(problem, flow)

    def test_needs_a_mode_based_model(self, small_chain):
        p = MinEnergyProblem(graph=small_chain, deadline=100.0,
                             model=ContinuousModel())
        with pytest.raises(InvalidModelError):
            check_certificate(p, np.zeros(small_chain.n_edges))
