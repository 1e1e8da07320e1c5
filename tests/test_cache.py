"""Tests for the content-addressed result cache.

Covers the cache-key contract (graph mutation invalidates, solver options
discriminate, names do not), the two stores (in-memory LRU vs on-disk JSON)
agreeing on content, the solve/batch wiring (hit flags, counters), and the
acceptance criterion: a second identical ``sweep()`` is served from the
cache and is at least an order of magnitude faster than the cold run.
"""

from __future__ import annotations

import time

import pytest

from repro.batch import solve_many, summarize, sweep, sweep_cache_stats
from repro.cache import (
    DiskJSONStore,
    MemoryLRUStore,
    ResultCache,
    disk_cache,
    memory_cache,
    solution_envelope,
    solution_from_envelope,
)
from repro.core.models import ContinuousModel, DiscreteModel, VddHoppingModel
from repro.core.problem import MinEnergyProblem
from repro.core.validation import check_solution
from repro.graphs import generators
from repro.graphs.taskgraph import Task, TaskGraph
from repro.solve import solve

MODES = (0.4, 0.6, 0.8, 1.0)


def _problem(n: int = 12, *, slack: float = 1.5, seed: int = 1,
             model=None) -> MinEnergyProblem:
    graph = generators.layered_dag(n, seed=seed)
    return MinEnergyProblem(graph=graph, deadline=slack * graph.total_work(),
                            model=model or ContinuousModel(s_max=1.0))


class TestCacheKey:
    def test_identical_problems_share_a_key(self):
        a, b = _problem(seed=7), _problem(seed=7)
        assert a.graph is not b.graph
        assert a.cache_key() == b.cache_key()

    def test_display_names_are_excluded(self):
        a, b = _problem(seed=7), _problem(seed=7)
        b.name = "something else"
        b.graph.name = "renamed"
        assert a.cache_key() == b.cache_key()

    def test_graph_mutation_invalidates_key(self):
        problem = _problem(seed=3)
        before = problem.cache_key()
        problem.graph.add_task(Task("extra", 2.0))
        after_task = problem.cache_key()
        assert after_task != before
        first = problem.graph.task_names()[0]
        problem.graph.add_edge(first, "extra")
        assert problem.cache_key() != after_task
        problem.graph.remove_edge(first, "extra")
        assert problem.cache_key() == after_task

    def test_weights_discriminate(self):
        g1 = TaskGraph(tasks=[("a", 1.0), ("b", 2.0)], edges=[("a", "b")])
        g2 = TaskGraph(tasks=[("a", 1.0), ("b", 2.5)], edges=[("a", "b")])
        p1 = MinEnergyProblem(graph=g1, deadline=10.0, model=ContinuousModel())
        p2 = MinEnergyProblem(graph=g2, deadline=10.0, model=ContinuousModel())
        assert p1.cache_key() != p2.cache_key()

    def test_deadline_model_alpha_and_options_discriminate(self):
        base = _problem(seed=5)
        keys = {
            base.cache_key(),
            base.with_deadline(base.deadline * 1.01).cache_key(),
            base.with_model(ContinuousModel(s_max=2.0)).cache_key(),
            base.with_model(DiscreteModel(modes=MODES)).cache_key(),
            base.with_model(VddHoppingModel(modes=MODES)).cache_key(),
            base.cache_key(method="convex-sparse"),
            base.cache_key(method="convex-sparse", options={"tolerance": 1e-6}),
            base.cache_key(method="convex-sparse", options={"tolerance": 1e-8}),
        }
        assert len(keys) == 8

    def test_same_modes_different_model_classes_differ(self):
        disc = _problem(model=DiscreteModel(modes=MODES))
        vdd = _problem(model=VddHoppingModel(modes=MODES))
        assert disc.cache_key() != vdd.cache_key()


class TestStores:
    def test_memory_lru_eviction(self):
        store = MemoryLRUStore(maxsize=2)
        k1, k2, k3 = "a" * 16, "b" * 16, "c" * 16
        store.put(k1, {"v": 1})
        store.put(k2, {"v": 2})
        assert store.get(k1) == {"v": 1}  # refreshes recency
        store.put(k3, {"v": 3})
        assert store.get(k2) is None  # least recently used went first
        assert store.get(k1) == {"v": 1}
        assert len(store) == 2

    def test_bad_keys_rejected(self):
        store = MemoryLRUStore()
        with pytest.raises(ValueError):
            store.put("../evil", {})
        with pytest.raises(ValueError):
            store.get("short")

    def test_disk_store_roundtrip_and_corruption(self, tmp_path):
        store = DiskJSONStore(tmp_path)
        key = "d" * 64
        store.put(key, {"v": [1, 2.5, "x"]})
        assert store.get(key) == {"v": [1, 2.5, "x"]}
        assert key in store and len(store) == 1
        (tmp_path / f"{key}.json").write_text("{not json", encoding="utf-8")
        assert store.get(key) is None  # corrupt file reads as a miss
        store.clear()
        assert len(store) == 0

    def test_memory_and_disk_stores_agree(self, tmp_path):
        """The same solve produces identical envelopes in both stores, apart
        from the wall-clock ``*_seconds`` the solver records."""
        problem = _problem(seed=11)
        mem, disk = memory_cache(), disk_cache(tmp_path)
        solved_mem = solve(problem, cache=mem)
        solved_disk = solve(problem, cache=disk)
        key = problem.cache_key(method="auto", options={})

        def untimed(envelope):
            metadata = {k: v for k, v in envelope["metadata"].items()
                        if not k.endswith("_seconds")}
            return {**envelope, "metadata": metadata}

        assert untimed(mem.peek(key)) == untimed(disk.peek(key))
        hit_mem = solve(_problem(seed=11), cache=mem)
        hit_disk = solve(_problem(seed=11), cache=disk)
        assert hit_mem.metadata["cache_hit"] and hit_disk.metadata["cache_hit"]
        assert hit_mem.energy == pytest.approx(hit_disk.energy, rel=1e-15)
        assert hit_mem.energy == pytest.approx(solved_mem.energy, rel=1e-12)
        assert solved_disk.solver == hit_disk.solver


class TestSolveWiring:
    def test_hit_returns_equivalent_validated_solution(self):
        cache = memory_cache()
        problem = _problem(seed=2)
        cold = solve(problem, cache=cache)
        warm = solve(_problem(seed=2), cache=cache)
        check_solution(warm)
        assert warm.metadata["cache_hit"] is True
        assert cold.metadata["cache_hit"] is False
        assert warm.energy == pytest.approx(cold.energy, rel=1e-12)
        assert warm.solver == cold.solver
        assert warm.speeds() == pytest.approx(cold.speeds())
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_different_options_miss(self):
        cache = memory_cache()
        solve(_problem(seed=4), method="convex-sparse", cache=cache)
        second = solve(_problem(seed=4), method="convex-sparse",
                       options={"tolerance": 1e-6}, cache=cache)
        assert second.metadata["cache_hit"] is False
        assert cache.stats.hits == 0 and cache.stats.misses == 2

    def test_hopping_assignment_roundtrips(self):
        cache = memory_cache()
        problem = _problem(seed=6, model=VddHoppingModel(modes=MODES))
        cold = solve(problem, cache=cache)
        warm = solve(_problem(seed=6, model=VddHoppingModel(modes=MODES)),
                     cache=cache)
        assert warm.metadata["cache_hit"] is True
        check_solution(warm)
        assert warm.energy == pytest.approx(cold.energy, rel=1e-12)

    def test_envelope_roundtrip_is_revalidated(self):
        problem = _problem(seed=9)
        solution = solve(problem)
        envelope = solution_envelope(solution)
        rebuilt = solution_from_envelope(problem, envelope)
        assert rebuilt.metadata["cache_hit"] is True
        assert rebuilt.energy == pytest.approx(solution.energy, rel=1e-12)
        # energy is recomputed from the assignment, not read from the blob
        envelope["energy"] = 0.0
        assert solution_from_envelope(problem, envelope).energy > 0


class TestBatchWiring:
    def test_solve_many_second_run_is_all_hits(self):
        cache = memory_cache()
        problems = [_problem(seed=s) for s in range(4)]
        cold = solve_many(problems, cache=cache)
        warm = solve_many([_problem(seed=s) for s in range(4)], cache=cache)
        assert [r.cache_hit for r in cold] == [False] * 4
        assert [r.cache_hit for r in warm] == [True] * 4
        assert summarize(warm)["cache_hits"] == 4
        for a, b in zip(cold, warm):
            assert b.energy == pytest.approx(a.energy, rel=1e-12)
            assert b.solver == a.solver

    def test_pooled_misses_populate_the_parent_cache(self):
        cache = memory_cache()
        problems = [_problem(seed=s) for s in range(3)]
        solve_many(problems, workers=2, cache=cache)
        assert len(cache) == 3
        warm = solve_many([_problem(seed=s) for s in range(3)],
                          workers=2, cache=cache)
        assert all(r.cache_hit for r in warm)

    def test_warm_hits_keep_speeds_for_both_assignment_kinds(self):
        cache = memory_cache()
        problems = [_problem(seed=1),
                    _problem(seed=2, model=VddHoppingModel(modes=MODES))]
        cold = solve_many(problems, cache=cache, keep_speeds=True)
        warm = solve_many(
            [_problem(seed=1),
             _problem(seed=2, model=VddHoppingModel(modes=MODES))],
            cache=cache, keep_speeds=True)
        assert all(r.cache_hit for r in warm)
        for a, b in zip(cold, warm):
            assert b.speeds is not None
            assert b.speeds == pytest.approx(a.speeds, rel=1e-12)

    def test_failures_are_not_cached(self):
        cache = memory_cache()
        graph = generators.chain(6, seed=1)
        infeasible = MinEnergyProblem(graph=graph,
                                      deadline=0.5 * graph.total_work(),
                                      model=ContinuousModel(s_max=1.0))
        first = solve_many([infeasible], cache=cache)
        again = solve_many([infeasible], cache=cache)
        assert not first[0].ok and not again[0].ok
        assert len(cache) == 0
        assert not again[0].cache_hit


class TestSweepAcceptance:
    def test_second_identical_sweep_served_from_cache_10x_faster(self):
        """ISSUE acceptance: warm sweep >= 10x faster, hit rate reported."""
        cache = memory_cache()
        kwargs = dict(graph_classes=("layered",), sizes=(32,),
                      slacks=(1.2, 1.8), repetitions=2, seed=13,
                      model="continuous", cache=cache)
        start = time.perf_counter()
        cold = sweep(**kwargs)
        cold_seconds = time.perf_counter() - start
        start = time.perf_counter()
        warm = sweep(**kwargs)
        warm_seconds = time.perf_counter() - start

        assert all(cold.column("ok")) and all(warm.column("ok"))
        assert sweep_cache_stats(cold) == {"hits": 0, "misses": 4,
                                           "hit_rate": 0.0}
        assert sweep_cache_stats(warm) == {"hits": 4, "misses": 0,
                                           "hit_rate": 1.0}
        for a, b in zip(cold.column("energy"), warm.column("energy")):
            assert b == pytest.approx(a, rel=1e-12)
        assert warm_seconds * 10 <= cold_seconds, (
            f"warm sweep took {warm_seconds:.3f}s vs cold {cold_seconds:.3f}s")

    def test_sweep_rows_record_seed_and_cache_hit(self):
        cache = memory_cache()
        table = sweep(graph_classes=("chain",), sizes=(8,), slacks=(1.5,),
                      repetitions=2, seed=21, cache=cache)
        assert all(isinstance(s, int) for s in table.column("seed"))
        assert table.column("cache_hit") == [False, False]
        again = sweep(graph_classes=("chain",), sizes=(8,), slacks=(1.5,),
                      repetitions=2, seed=21, cache=cache)
        assert again.column("cache_hit") == [True, True]
        assert again.column("seed") == table.column("seed")
