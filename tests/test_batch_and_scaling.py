"""Tests for the array-based solver core and the batch subsystem.

Covers the deep-graph regressions this layer fixes (10k-task chains/trees
through every model's dispatch path, with no recursion at any depth), the
vectorized schedule/energy fast paths against a dict-based reference, the
cached :class:`~repro.graphs.taskgraph.GraphIndex` (including invalidation
on mutation), and the ``repro.batch`` fan-out/sweep engine including
per-instance failure capture.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest

from repro.batch import (
    BatchResult,
    failed,
    solve_many,
    summarize,
    sweep,
    sweep_failures,
)
from repro.core.models import (
    ContinuousModel,
    DiscreteModel,
    IncrementalModel,
    VddHoppingModel,
)
from repro.core.power import CUBIC
from repro.core.problem import MinEnergyProblem
from repro.core.solution import SpeedAssignment, compute_makespan, compute_schedule
from repro.core.validation import check_solution
from repro.continuous.series_parallel import solve_series_parallel
from repro.continuous.tree import solve_tree, tree_equivalent_load
from repro.graphs import generators
from repro.graphs.analysis import levels, longest_path_length, topological_order
from repro.graphs.taskgraph import Task, TaskGraph
from repro.solve import solve
from repro.utils.errors import InvalidGraphError


DEEP = 10_000


def _chain_problem(n: int, model, *, slack: float = 1.5, seed: int = 1) -> MinEnergyProblem:
    graph = generators.chain(n, seed=seed)
    deadline = slack * graph.total_work()  # critical path at unit speed
    return MinEnergyProblem(graph=graph, deadline=deadline, model=model)


def _caterpillar(n: int) -> TaskGraph:
    """A spine with one leaf per node: its SP tree nests O(n) levels deep."""
    g = TaskGraph(name="caterpillar")
    g.add_task(Task("R0", 1.0))
    for i in range(1, n // 2):
        g.add_task(Task(f"R{i}", 1.0))
        g.add_task(Task(f"L{i}", 1.0))
        g.add_edge(f"R{i - 1}", f"R{i}")
        g.add_edge(f"R{i - 1}", f"L{i}")
    return g


class TestDeepGraphs:
    """Deep chains and trees must not recurse, whatever the model."""

    def test_10k_chain_solve_tree_no_recursion(self):
        assert sys.getrecursionlimit() <= 10_000  # the point of the test
        problem = _chain_problem(DEEP, ContinuousModel())
        solution = solve_tree(problem)
        assert solution.solver == "continuous-tree"
        assert solution.makespan == pytest.approx(problem.deadline, rel=1e-9)
        # a chain's equivalent load is its total work; the optimum runs at W/D
        total = problem.graph.total_work()
        assert solution.metadata["equivalent_load"] == pytest.approx(total, rel=1e-9)
        assert solution.energy == pytest.approx(
            total ** 3 / problem.deadline ** 2, rel=1e-9)

    def test_10k_tree_continuous_dispatch(self):
        graph = generators.random_tree(DEEP, seed=3)
        deadline = 2.0 * longest_path_length(graph)
        problem = MinEnergyProblem(graph=graph, deadline=deadline,
                                   model=ContinuousModel())
        solution = solve(problem)
        assert solution.solver == "continuous-tree"
        check_solution(solution)

    def test_10k_in_tree_equivalent_load(self):
        graph = generators.random_tree(DEEP, seed=4, direction="in")
        root = graph.sinks()[0]
        load = tree_equivalent_load(graph, root, direction="in")
        assert load > 0

    def test_deep_chain_all_model_dispatches(self):
        """Every model's dispatch path completes on a deep chain."""
        modes = (0.4, 0.6, 0.8, 1.0)
        cases = [
            (DEEP, ContinuousModel(), {"continuous-chain"}),
            (DEEP, DiscreteModel(modes=modes), {"discrete-round-up"}),
            (2_000, VddHoppingModel(modes=modes), {"vdd-lp-highs"}),
            (DEEP, IncrementalModel.from_range(0.4, 1.0, 0.2),
             {"incremental-theorem5-round-up"}),
        ]
        for n, model, solvers in cases:
            solution = solve(_chain_problem(n, model))
            assert solution.solver in solvers, (model.name, solution.solver)
            assert solution.makespan <= solution.problem.deadline * (1 + 1e-9)

    def test_deep_caterpillar_series_parallel(self):
        graph = _caterpillar(2_200)  # SP tree nests beyond the recursion limit
        deadline = 2.0 * longest_path_length(graph)
        problem = MinEnergyProblem(graph=graph, deadline=deadline,
                                   model=ContinuousModel())
        solution = solve_series_parallel(problem)
        check_solution(solution)
        assert solution.metadata["equivalent_load"] > 0

    def test_deep_chain_discrete_exact_state_cap_falls_back(self):
        # auto dispatch must survive the chain DP's state-cap blow-up
        problem = _chain_problem(3_000, DiscreteModel(modes=(0.4, 0.6, 0.8, 1.0)))
        solution = solve(problem)
        assert solution.solver.startswith("discrete-")


class TestGraphIndex:
    def test_index_is_cached_and_invalidated(self):
        g = generators.chain(10, seed=0)
        idx = g.index()
        assert g.index() is idx  # cached
        g.add_task(Task("extra", 1.0))
        idx2 = g.index()
        assert idx2 is not idx
        assert idx2.n_tasks == 11
        g.add_edge("T10", "extra")
        idx3 = g.index()
        assert idx3 is not idx2
        assert idx3.n_edges == idx2.n_edges + 1
        g.remove_edge("T10", "extra")
        assert g.index().n_edges == idx2.n_edges

    def test_index_csr_matches_adjacency(self):
        g = generators.layered_dag(60, seed=5)
        idx = g.index()
        for i, name in enumerate(idx.names):
            preds = sorted(idx.names[p] for p in idx.predecessors_of(i))
            succs = sorted(idx.names[s] for s in idx.successors_of(i))
            assert preds == g.predecessors(name)
            assert succs == g.successors(name)

    def test_index_topo_and_levels(self):
        g = generators.layered_dag(80, seed=6)
        idx = g.index()
        position = {int(u): k for k, u in enumerate(idx.topo_order)}
        for u, v in g.edges():
            iu, iv = idx.index_of[u], idx.index_of[v]
            assert position[iu] < position[iv]
            assert idx.level[iu] < idx.level[iv]
        assert levels(g) == {name: int(idx.level[i]) + 1
                             for i, name in enumerate(idx.names)}

    def test_index_order_is_fifo_kahn_over_insertion_order(self):
        # solvers sweep in this order, so it must not drift: FIFO from the
        # sources in insertion order, successors in index order
        for g in (generators.layered_dag(80, seed=6),
                  generators.erdos_dag(40, seed=2),
                  generators.random_series_parallel(30, seed=4)):
            idx = g.index()
            succs = [sorted(idx.index_of[s] for s in g.successors(name))
                     for name in idx.names]
            indeg = [len(g.predecessors(name)) for name in idx.names]
            order = [i for i in range(idx.n_tasks) if indeg[i] == 0]
            level = [0] * idx.n_tasks
            for u in order:
                for v in succs[u]:
                    level[v] = max(level[v], level[u] + 1)
                    indeg[v] -= 1
                    if indeg[v] == 0:
                        order.append(v)
            assert idx.topo_order.tolist() == order
            assert idx.level.tolist() == level

    def test_index_cycle_raises(self):
        g = TaskGraph(tasks=[("a", 1.0), ("b", 1.0)], edges=[("a", "b"), ("b", "a")])
        with pytest.raises(InvalidGraphError):
            g.index()
        with pytest.raises(InvalidGraphError):
            topological_order(g)

    def test_pickle_drops_cached_index(self):
        import pickle

        g = generators.chain(20, seed=0)
        g.index()
        clone = pickle.loads(pickle.dumps(g))
        assert clone._index is None
        assert clone.index().n_tasks == 20


def _reference_schedule(graph: TaskGraph, durations: dict[str, float]):
    """Dict-based ASAP reference (the pre-vectorization implementation)."""
    start: dict[str, float] = {}
    finish: dict[str, float] = {}
    for n in topological_order(graph):
        s = max((finish[p] for p in graph.predecessors(n)), default=0.0)
        start[n] = s
        finish[n] = s + durations[n]
    return start, finish


class TestVectorizedEquivalence:
    @pytest.mark.parametrize("maker", [
        lambda: generators.chain(400, seed=11),             # deep: CSR scalar path
        lambda: generators.fork(300, seed=12),              # wide: level-batched path
        lambda: generators.layered_dag(150, seed=13),
        lambda: generators.erdos_dag(120, seed=14, edge_probability=0.1),
        lambda: generators.diamond(12, 13, seed=15),
    ])
    def test_schedule_matches_dict_reference(self, maker):
        graph = maker()
        rng = np.random.default_rng(99)
        durations = {n: float(rng.uniform(0.5, 2.0)) for n in graph.task_names()}
        sched = compute_schedule(graph, durations)
        ref_start, ref_finish = _reference_schedule(graph, durations)
        for n in graph.task_names():
            assert sched.start[n] == pytest.approx(ref_start[n], abs=1e-12)
            assert sched.finish[n] == pytest.approx(ref_finish[n], abs=1e-12)
        assert compute_makespan(graph, durations) == pytest.approx(
            max(ref_finish.values()), abs=1e-12)

    def test_energy_matches_per_task_sum(self):
        graph = generators.layered_dag(100, seed=21)
        rng = np.random.default_rng(7)
        assignment = SpeedAssignment(
            {n: float(rng.uniform(0.2, 1.5)) for n in graph.task_names()})
        vectorized = assignment.energy(graph, CUBIC)
        reference = sum(CUBIC.energy_for_work(graph.work(n), assignment.speed(n))
                        for n in graph.task_names())
        assert vectorized == pytest.approx(reference, rel=1e-12)

    def test_durations_vector_alignment(self):
        graph = generators.random_tree(64, seed=22)
        assignment = SpeedAssignment({n: 0.7 for n in graph.task_names()})
        vec = assignment.durations_vector(graph)
        mapping = assignment.durations(graph)
        idx = graph.index()
        for i, name in enumerate(idx.names):
            assert vec[i] == pytest.approx(mapping[name], rel=1e-15)


class TestSolveMany:
    def _problems(self):
        good1 = _chain_problem(8, ContinuousModel(s_max=1.0), slack=1.5, seed=1)
        graph = generators.chain(8, seed=2)
        infeasible = MinEnergyProblem(graph=graph, deadline=0.5 * graph.total_work(),
                                      model=ContinuousModel(s_max=1.0))
        good2 = _chain_problem(8, ContinuousModel(s_max=1.0), slack=2.0, seed=3)
        return [good1, infeasible, good2]

    def test_serial_fan_out_captures_failures(self):
        results = solve_many(self._problems(), workers=None)
        assert [r.ok for r in results] == [True, False, True]
        assert results[1].error_type == "InfeasibleProblemError"
        assert results[1].energy is None
        stats = summarize(results)
        assert stats["n_failed"] == 1 and stats["n_solved"] == 2
        assert failed(results) == [results[1]]

    def test_worker_fan_out_matches_serial(self):
        serial = solve_many(self._problems(), workers=None)
        pooled = solve_many(self._problems(), workers=2)
        assert [r.index for r in pooled] == [0, 1, 2]  # input order preserved
        for a, b in zip(serial, pooled):
            assert a.ok == b.ok
            if a.ok:
                assert a.energy == pytest.approx(b.energy, rel=1e-12)
                assert a.solver == b.solver

    def test_keep_speeds(self):
        [result] = solve_many([_chain_problem(5, ContinuousModel())],
                              keep_speeds=True)
        assert isinstance(result, BatchResult)
        assert set(result.speeds) == set(f"T{i + 1}" for i in range(5))


class TestSweep:
    def test_grid_shape_and_columns(self):
        table = sweep(graph_classes=("chain", "tree"), sizes=(8, 16),
                      slacks=(1.2, 2.0), alphas=(2.0, 3.0), repetitions=2, seed=5)
        assert len(table) == 2 * 2 * 2 * 2 * 2
        assert all(table.column("ok"))
        assert sweep_failures(table) == []
        assert set(table.column("alpha")) == {2.0, 3.0}
        # alpha reaches the solver: same seed grid, higher alpha => at most
        # equal energy on chains run at a common speed below 1
        assert all(e > 0 for e in table.column("energy"))

    def test_sweep_is_reproducible(self):
        kwargs = dict(graph_classes=("chain",), sizes=(8,), slacks=(1.5,),
                      repetitions=2, seed=42)
        t1 = sweep(**kwargs)
        t2 = sweep(**kwargs)
        seconds_col = list(t1.columns).index("seconds")
        strip = lambda rows: [[v for i, v in enumerate(r) if i != seconds_col]
                              for r in rows]
        assert strip(t1.rows) == strip(t2.rows)

    def test_sweep_models(self):
        table = sweep(graph_classes=("layered",), sizes=(12,), slacks=(1.5,),
                      model="discrete", n_modes=4, repetitions=1, seed=9)
        assert all(table.column("ok"))
        assert all(s.startswith("discrete-") for s in table.column("solver"))


class TestSolvePathsSkipTheDictLayer:
    """Generated graphs are planned, solved, validated and cached through
    their index alone: none of it builds the per-task dict layer."""

    @staticmethod
    def _refuse(graph):
        raise AssertionError(f"the dict layer of {graph.name!r} was built")

    def test_sweep_and_warm_rerun_build_no_dicts(self, tmp_path, monkeypatch):
        from repro.batch import rows_signature
        from repro.cache import disk_cache

        # the graph classes of the repository benchmark's sweep_grid
        grid = dict(graph_classes=("chain", "fork", "tree", "series_parallel",
                                   "erdos"),
                    sizes=(24, 96), slacks=(1.2, 2.0), s_max=float("inf"),
                    seed=3)
        cache = disk_cache(tmp_path)
        monkeypatch.setattr(TaskGraph, "_build_dicts", self._refuse)
        cold = sweep(**grid, cache=cache)  # in-process: plan, solve, check, put
        assert sweep_failures(cold) == []
        warm = sweep(**grid, cache=cache)
        assert all(warm.column("cache_hit")) and all(warm.column("ok"))
        assert rows_signature(warm) == rows_signature(cold)

    @pytest.mark.parametrize("graph_class", ["layered", "erdos", "chain", "fork",
                                             "join", "tree", "series_parallel",
                                             "diamond"])
    @pytest.mark.parametrize("s_max", [1.0, float("inf")])
    def test_solve_builds_no_dicts(self, graph_class, s_max, monkeypatch):
        monkeypatch.setattr(TaskGraph, "_build_dicts", self._refuse)
        for n in (1, 24, 60):
            graph = generators.GRAPH_CLASSES[graph_class](n, seed=n)
            deadline = 1.5 * longest_path_length(graph)
            problem = MinEnergyProblem(graph=graph, deadline=deadline,
                                       model=ContinuousModel(s_max=s_max))
            check_solution(solve(problem))


class TestCliSweep:
    def test_cli_sweep_csv(self, capsys):
        from repro.cli import main

        code = main(["sweep", "--classes", "chain", "--sizes", "6,12",
                     "--slacks", "1.5", "--csv"])
        out = capsys.readouterr().out
        assert code == 0
        lines = [l for l in out.strip().splitlines() if l]
        assert lines[0].startswith("graph_class,")
        assert len(lines) == 3  # header + 2 rows

    def test_cli_sweep_bad_sizes(self, capsys):
        from repro.cli import main

        assert main(["sweep", "--sizes", "abc"]) == 2
        assert "error:" in capsys.readouterr().err


class TestConvexMetadataStage:
    def test_stage_recorded_for_convex_solve(self):
        from repro.continuous.sparse import solve_general_convex_sparse

        graph = generators.diamond(4, 5, seed=30)
        deadline = 1.8 * longest_path_length(graph)
        problem = MinEnergyProblem(graph=graph, deadline=deadline,
                                   model=ContinuousModel())
        solution = solve_general_convex_sparse(problem)
        meta = solution.metadata
        assert meta["stage"] == "ipm"
        assert isinstance(meta["iterations"], int)
        assert meta["converged"] is True
        check_solution(solution)
