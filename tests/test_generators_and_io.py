"""Tests for the graph generators, SP decomposition and serialisation."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.graphs import (
    generators,
    graph_from_dict,
    graph_from_json,
    graph_to_dict,
    graph_to_dot,
    graph_to_json,
    is_series_parallel,
    sp_decompose,
    SPLeaf,
    SPParallel,
    SPSeries,
)
from repro.graphs.sp_decomposition import NotSeriesParallelError, iter_leaves, sp_tree_depth
from repro.graphs.taskgraph import TaskGraph
from repro.utils.errors import InvalidGraphError


class TestGenerators:
    def test_chain_structure(self):
        g = generators.chain(5, seed=0)
        assert g.n_tasks == 5
        assert g.n_edges == 4
        assert g.sources() == ["T1"]
        assert g.sinks() == ["T5"]

    def test_chain_explicit_works(self):
        g = generators.chain(3, works=[1.0, 2.0, 3.0])
        assert [g.work(f"T{i}") for i in (1, 2, 3)] == [1.0, 2.0, 3.0]

    def test_chain_wrong_work_count(self):
        with pytest.raises(InvalidGraphError):
            generators.chain(3, works=[1.0])

    def test_chain_needs_a_task(self):
        with pytest.raises(InvalidGraphError):
            generators.chain(0)

    def test_fork_structure(self):
        g = generators.fork(4, seed=1)
        assert g.n_tasks == 5
        assert g.sources() == ["T0"]
        assert set(g.successors("T0")) == {"T1", "T2", "T3", "T4"}
        assert all(g.out_degree(f"T{i}") == 0 for i in range(1, 5))

    def test_join_is_reversed_fork(self):
        g = generators.join(3, seed=2)
        assert g.sinks() == ["T0"]
        assert set(g.predecessors("T0")) == {"T1", "T2", "T3"}

    def test_fork_join_structure(self):
        g = generators.fork_join(4, seed=3)
        assert g.n_tasks == 6
        assert g.sources() == ["src"]
        assert g.sinks() == ["snk"]

    def test_diamond_structure(self):
        g = generators.diamond(3, 4, seed=4)
        assert g.n_tasks == 12
        assert g.has_edge("T0_0", "T1_0")
        assert g.has_edge("T0_0", "T0_1")
        assert g.is_dag()

    def test_diamond_invalid_dims(self):
        with pytest.raises(InvalidGraphError):
            generators.diamond(0, 3)

    def test_random_tree_out(self):
        g = generators.random_tree(20, seed=5)
        assert g.n_tasks == 20
        assert g.n_edges == 19
        assert len(g.sources()) == 1
        assert g.is_dag()

    def test_random_tree_in(self):
        g = generators.random_tree(15, seed=6, direction="in")
        assert len(g.sinks()) == 1
        assert g.n_edges == 14

    def test_random_tree_invalid_direction(self):
        with pytest.raises(InvalidGraphError):
            generators.random_tree(5, direction="sideways")

    def test_random_tree_max_children(self):
        g = generators.random_tree(30, seed=7, max_children=2)
        assert all(g.out_degree(n) <= 2 for n in g.task_names())

    def test_random_series_parallel_is_sp(self):
        g = generators.random_series_parallel(20, seed=8)
        assert g.n_tasks == 20
        assert is_series_parallel(g)

    def test_layered_dag_connectivity(self):
        g = generators.layered_dag(30, seed=9, layers=5)
        assert g.n_tasks == 30
        assert g.is_dag()
        # every non-first-layer task has at least one predecessor
        sources = set(g.sources())
        for n in g.task_names():
            if n not in sources:
                assert g.in_degree(n) >= 1

    def test_layered_dag_single_layer(self):
        g = generators.layered_dag(5, seed=10, layers=1)
        assert g.n_edges == 0

    def test_erdos_dag_acyclic(self):
        g = generators.erdos_dag(25, seed=11, edge_probability=0.3)
        assert g.is_dag()

    def test_erdos_invalid_probability(self):
        with pytest.raises(InvalidGraphError):
            generators.erdos_dag(5, edge_probability=1.5)

    @pytest.mark.parametrize("n", [1, 2, 7, 40, 97])
    def test_batched_draws_match_one_draw_per_edge(self, n):
        import numpy as np

        # the generators before their draws were batched: any change to
        # the random stream would change every seeded instance
        def layered(n, seed, p):
            rng = np.random.default_rng(seed)
            layers = max(1, int(round(np.sqrt(n))))
            sizes = [1] * layers
            for _ in range(n - layers):
                sizes[int(rng.integers(0, layers))] += 1
            works, edges, tid, layer_tasks = [], [], 1, []
            for size in sizes:
                layer_tasks.append([f"T{tid + i}" for i in range(size)])
                works += [float(rng.uniform(1.0, 10.0)) for _ in range(size)]
                tid += size
            for prev, current in zip(layer_tasks, layer_tasks[1:]):
                for v in current:
                    forced = prev[int(rng.integers(0, len(prev)))]
                    edges.append((forced, v))
                    edges += [(u, v) for u in prev
                              if u != forced and rng.random() < p]
            return works, edges

        def erdos(n, seed, p):
            rng = np.random.default_rng(seed)
            works = [float(rng.uniform(1.0, 10.0)) for _ in range(n)]
            perm = list(rng.permutation(n))
            edges = [(f"T{perm[a] + 1}", f"T{perm[b] + 1}")
                     for a in range(n) for b in range(a + 1, n)
                     if rng.random() < p]
            return works, edges

        for seed in range(5):
            for p in (0.0, 0.3, 1.0):
                for build, reference in ((generators.layered_dag, layered),
                                         (generators.erdos_dag, erdos)):
                    g = build(n, seed=seed, edge_probability=p)
                    works, edges = reference(n, seed, p)
                    assert [g.work(t) for t in g.task_names()] == works
                    assert sorted(g.edges()) == sorted(edges)

    def test_generators_are_reproducible(self):
        a = generators.layered_dag(20, seed=42)
        b = generators.layered_dag(20, seed=42)
        assert a.edges() == b.edges()
        assert a.works() == b.works()

    def test_work_samplers(self):
        from repro.utils.rng import make_rng

        rng = make_rng(0)
        u = generators.uniform_works(2.0, 3.0)
        assert 2.0 <= u(rng) <= 3.0
        c = generators.constant_works(5.0)
        assert c(rng) == 5.0
        ln = generators.lognormal_works(1.0, 0.1)
        assert ln(rng) > 0

    def test_work_sampler_validation(self):
        with pytest.raises(InvalidGraphError):
            generators.uniform_works(0.0, 1.0)
        with pytest.raises(InvalidGraphError):
            generators.constant_works(-1.0)
        with pytest.raises(InvalidGraphError):
            generators.lognormal_works(1.0, -0.1)

    def test_graph_classes_registry(self):
        for name, builder in generators.GRAPH_CLASSES.items():
            g = builder(8, seed=1)
            assert g.n_tasks >= 1, name
            assert g.is_dag(), name

    @given(st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=25, deadline=None)
    def test_all_generated_works_positive(self, n, seed):
        g = generators.layered_dag(n, seed=seed)
        assert all(t.work > 0 for t in g.tasks())


class TestSPDecomposition:
    def test_single_task_is_leaf(self):
        g = TaskGraph(tasks=[("A", 2.0)])
        node = sp_decompose(g)
        assert isinstance(node, SPLeaf)
        assert node.work == 2.0

    def test_chain_is_series(self):
        g = generators.chain(4, works=[1.0] * 4)
        node = sp_decompose(g)
        assert isinstance(node, SPSeries)
        assert sorted(node.leaves()) == ["T1", "T2", "T3", "T4"]

    def test_independent_tasks_are_parallel(self):
        g = TaskGraph(tasks=[("A", 1.0), ("B", 1.0), ("C", 1.0)])
        node = sp_decompose(g)
        assert isinstance(node, SPParallel)
        assert len(node.children) == 3

    def test_fork_decomposition(self):
        g = generators.fork(3, source_work=1.0, works=[1.0, 2.0, 3.0])
        node = sp_decompose(g)
        assert isinstance(node, SPSeries)
        assert isinstance(node.children[0], SPLeaf)
        assert isinstance(node.children[1], SPParallel)

    def test_tree_is_sp_decomposable(self):
        g = generators.random_tree(25, seed=1)
        assert is_series_parallel(g)

    def test_fork_join_is_sp(self):
        g = generators.fork_join(5, seed=2)
        assert is_series_parallel(g)

    def test_diamond_is_not_sp(self):
        g = generators.diamond(3, 3, seed=3)
        assert not is_series_parallel(g)
        with pytest.raises(NotSeriesParallelError):
            sp_decompose(g)

    def test_leaves_cover_all_tasks(self):
        g = generators.random_series_parallel(30, seed=4)
        node = sp_decompose(g)
        assert sorted(node.leaves()) == sorted(g.task_names())
        assert node.size() == 30

    def test_iter_leaves_and_depth(self):
        g = generators.random_series_parallel(12, seed=5)
        node = sp_decompose(g)
        leaves = list(iter_leaves(node))
        assert len(leaves) == 12
        assert sp_tree_depth(node) >= 2

    def test_empty_graph_rejected(self):
        with pytest.raises(InvalidGraphError):
            sp_decompose(TaskGraph())

    @given(st.integers(min_value=1, max_value=30), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=25, deadline=None)
    def test_generator_sp_graphs_always_decompose(self, n, seed):
        g = generators.random_series_parallel(n, seed=seed)
        node = sp_decompose(g)
        assert sorted(node.leaves()) == sorted(g.task_names())

    @given(st.integers(min_value=1, max_value=30), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=25, deadline=None)
    def test_trees_always_decompose(self, n, seed):
        g = generators.random_tree(n, seed=seed)
        assert is_series_parallel(g)


class TestSerialisation:
    def test_dict_roundtrip(self):
        g = generators.layered_dag(15, seed=0)
        back = graph_from_dict(graph_to_dict(g))
        assert set(back.task_names()) == set(g.task_names())
        assert set(back.edges()) == set(g.edges())
        assert back.works() == pytest.approx(g.works())

    def test_json_roundtrip(self):
        g = generators.fork(3, seed=1)
        back = graph_from_json(graph_to_json(g))
        assert back.works() == pytest.approx(g.works())

    def test_from_dict_missing_tasks_key(self):
        with pytest.raises(InvalidGraphError):
            graph_from_dict({"edges": []})

    def test_from_dict_malformed_edge(self):
        with pytest.raises(InvalidGraphError):
            graph_from_dict({"tasks": {"A": 1.0}, "edges": [["A"]]})

    def test_from_json_invalid_text(self):
        with pytest.raises(InvalidGraphError):
            graph_from_json("not json at all {")

    def test_dot_output_mentions_every_task_and_edge(self):
        g = generators.chain(3, works=[1.0, 2.0, 3.0])
        dot = graph_to_dot(g)
        for name in g.task_names():
            assert f'"{name}"' in dot
        assert '"T1" -> "T2"' in dot
        assert dot.startswith("digraph")

    def test_dot_without_work_labels(self):
        g = generators.chain(2, works=[1.0, 2.0])
        dot = graph_to_dot(g, label_work=False)
        assert "w=" not in dot
