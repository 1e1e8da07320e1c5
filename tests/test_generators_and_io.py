"""Tests for the graph generators, SP decomposition and serialisation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.continuous.series_parallel import node_depths
from repro.graphs import (
    generators,
    graph_from_dict,
    graph_from_json,
    graph_to_dict,
    graph_to_dot,
    graph_to_json,
    is_series_parallel,
    sp_decompose,
)
from repro.graphs.sp_decomposition import NotSeriesParallelError
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

    @pytest.mark.parametrize("n", [1, 2, 7, 40, 97])
    @pytest.mark.parametrize("sampler", ["default", "custom"])
    def test_array_generators_match_one_draw_per_call(self, n, sampler):
        # the generators as they were built task by task: one draw per
        # work and per structural choice, in this order, through
        # add_task/add_edge; the array route must reproduce every stream
        from repro.utils.rng import make_rng

        def custom(rng):
            # two draws of two kinds, so any reordering shows
            return 1.0 + float(rng.integers(1, 4)) * rng.random()

        ws = None if sampler == "default" else custom
        draw = ws or generators.uniform_works()

        def build(tasks, edges):
            g = TaskGraph()
            for name, work in tasks:
                g.add_task(name, work)
            for u, v in edges:
                g.add_edge(u, v)
            return g

        def chain(seed, works=None):
            rng = make_rng(seed)
            w = works if works is not None else [draw(rng) for _ in range(n)]
            return build([(f"T{i + 1}", w[i]) for i in range(n)],
                         [(f"T{i}", f"T{i + 1}") for i in range(1, n)])

        def star(seed, reverse, works=None, hub=None):
            rng = make_rng(seed)
            leaves = works if works is not None else [draw(rng) for _ in range(n)]
            hub = hub if hub is not None else draw(rng)
            edges = [("T0", f"T{i + 1}") for i in range(n)]
            return build([("T0", hub)] + [(f"T{i + 1}", w) for i, w in enumerate(leaves)],
                         [(v, u) for u, v in edges] if reverse else edges)

        def fork_join(seed):
            rng = make_rng(seed)
            mid = [draw(rng) for _ in range(n)]
            source, sink = draw(rng), draw(rng)
            return build([("src", source), ("snk", sink)]
                         + [(f"T{i + 1}", w) for i, w in enumerate(mid)],
                         [e for i in range(n) for e in (("src", f"T{i + 1}"),
                                                         (f"T{i + 1}", "snk"))])

        def tree(seed, direction):
            rng = make_rng(seed)
            tasks, edges = [("T1", draw(rng))], []
            available, child_count = [0], [0] * n
            for i in range(1, n):
                k = int(rng.integers(0, len(available)))
                parent = available[k]
                child_count[parent] += 1
                if child_count[parent] >= 4:
                    available[k] = available[-1]
                    available.pop()
                available.append(i)
                tasks.append((f"T{i + 1}", draw(rng)))
                edge = (f"T{parent + 1}", f"T{i + 1}")
                edges.append(edge if direction == "out" else edge[::-1])
            return build(tasks, edges)

        def series_parallel(seed):
            rng = make_rng(seed)
            tasks, edges = [], []

            def split(budget):
                if budget == 1:
                    tasks.append((f"T{len(tasks) + 1}", draw(rng)))
                    return [tasks[-1][0]], [tasks[-1][0]]
                left = int(rng.integers(1, budget))
                left_src, left_snk = split(left)
                right_src, right_snk = split(budget - left)
                if rng.random() < 0.5:
                    edges.extend((u, v) for u in left_snk for v in right_src)
                    return left_src, right_snk
                return left_src + right_src, left_snk + right_snk

            split(n)
            return build(tasks, edges)

        def diamond(seed, rows, cols):
            rng = make_rng(seed)
            tasks = [(f"T{i}_{j}", draw(rng)) for i in range(rows) for j in range(cols)]
            edges = [(f"T{i}_{j}", f"T{i + di}_{j + dj}")
                     for i in range(rows) for j in range(cols)
                     for di, dj in ((1, 0), (0, 1)) if i + di < rows and j + dj < cols]
            return build(tasks, edges)

        explicit = [float(w) for w in np.linspace(1.0, 3.0, n)]
        rows, cols = max(1, n // 5), 5
        for seed in range(3):
            pairs = [
                (generators.chain(n, seed=seed, work_sampler=ws), chain(seed)),
                (generators.chain(n, works=explicit), chain(seed, explicit)),
                (generators.fork(n, seed=seed, work_sampler=ws), star(seed, False)),
                (generators.fork(n, works=explicit, source_work=2.5, seed=seed),
                 star(seed, False, explicit, 2.5)),
                (generators.join(n, seed=seed, work_sampler=ws), star(seed, True)),
                (generators.join(n, works=explicit, seed=seed, work_sampler=ws),
                 star(seed, True, explicit)),
                (generators.fork_join(n, seed=seed, work_sampler=ws), fork_join(seed)),
                (generators.random_tree(n, seed=seed, work_sampler=ws), tree(seed, "out")),
                (generators.random_tree(n, seed=seed, work_sampler=ws, direction="in"),
                 tree(seed, "in")),
                (generators.random_series_parallel(n, seed=seed, work_sampler=ws),
                 series_parallel(seed)),
                (generators.diamond(rows, cols, seed=seed, work_sampler=ws),
                 diamond(seed, rows, cols)),
            ]
            for g, reference in pairs:
                assert [(t.name, t.work) for t in g.tasks()] == \
                    [(t.name, t.work) for t in reference.tasks()]
                assert g.edges() == reference.edges()
                assert g.structure_hash() == reference.structure_hash()

    @pytest.mark.parametrize("block", [1, 7, 64])
    def test_erdos_draw_blocks_keep_the_stream(self, block, monkeypatch):
        # blocks that end mid-row draw the same stream as one call
        whole = [generators.erdos_dag(40, seed=seed, edge_probability=0.3)
                 for seed in range(3)]
        monkeypatch.setattr(generators, "_DRAW_BLOCK", block)
        for seed, g in enumerate(whole):
            again = generators.erdos_dag(40, seed=seed, edge_probability=0.3)
            assert again.structure_hash() == g.structure_hash()

    #: (class, n, seed) -> structure hash of the generated graph, as the
    #: generators drew them one task and one edge at a time
    PINNED_HASHES = {
        ("chain", 7, 0): "1ffa5309c416cbc6828fe8259ebdc0f75091d8f4d79c5fbb8f52badb56a51ba4",
        ("fork", 24, 1): "e54390e2fd86c5aa2418acbe88178e164e37b4b10b6528684767ccfd3d629bde",
        ("join", 24, 1): "24e19af9be70765400a3542726728ead0d5cc73845aa896970704c5d1dbda576",
        ("fork_join", 7, 2): "98cc6301aee5951ab177a1d67a77a6aff92c2676a675736a3802e38068def87e",
        ("tree", 96, 3): "6a96590aecc1a199ef8172cb33f0018b3baa9c1b121913cc6ddebccd6c15c467",
        ("series_parallel", 96, 0): "3b6782aa7de956897cc469f84c956ebd5460b50bd88109bf7d161b55b381d164",
        ("layered", 96, 1): "f3be79933c1211bf2b51c8b097c1bda83e4249c6216d9a7b6f75220403b26c8f",
        ("erdos", 24, 2): "ed15c7ef84dd7fa03e71069fe9dd9aa0110eadb208e20c47d5a595b09e9c049b",
        ("diamond", 24, 3): "7a39e3560f416ba0aca3fa708f00780c39d1f0fd3069679eed095aee56967616",
    }

    @pytest.mark.parametrize("key", sorted(PINNED_HASHES))
    def test_pinned_structure_hashes(self, key):
        graph_class, n, seed = key
        g = generators.GRAPH_CLASSES[graph_class](n, seed=seed)
        assert g.structure_hash() == self.PINNED_HASHES[key]

    #: (n, edge_probability) -> structure hash of layered_dag(n, seed=11),
    #: as the generator drew its edges one task at a time
    PINNED_LAYERED = {
        (1, 0.0): "8c635499a3cd792795ee5a349bb2cdabd7bd04d60da72748a5380a0712d2ae03",
        (1, 0.3): "8c635499a3cd792795ee5a349bb2cdabd7bd04d60da72748a5380a0712d2ae03",
        (1, 1.0): "8c635499a3cd792795ee5a349bb2cdabd7bd04d60da72748a5380a0712d2ae03",
        (32, 0.0): "e42887155df77eeae2c133b317ce63cbfa1f8f1b79299f8c83bbad42c056bf3b",
        (32, 0.3): "8bcc4ba8dd16fe55bc0d28dbac5cff1af7af07e47ce6ff657055a293ea4edaaf",
        (32, 1.0): "ad254df4941721bd10d4c9627a13acd797b2954079604c437246fb0899a31455",
        (96, 0.0): "fb462d8b8112003e553068971f4f2e5c2afe74d4ba67d2514bc3a62a31051d70",
        (96, 0.3): "e148a63df89fc9d4b958d5d6bcb422b69878d6c645ea7f35519cd60b8061089e",
        (96, 1.0): "757b50f86a46c0b6dfbe9ae421de0e133d557fae886f0ba89363d3baa8d6b4b7",
        (1000, 0.0): "c394e251912fd049952998a4ac00ca55664b17f3d5e0467cac684abaf8c3a589",
        (1000, 0.3): "30151dd65412259627277e30db2e38c7e8a7027555753fe2aa7a54141185f50f",
        (1000, 1.0): "5320e02eb21412508e4eba72cd829e1a2c5c05daf55ec8ec4f7d26572fa161e4",
    }

    @pytest.mark.parametrize("key", sorted(PINNED_LAYERED))
    def test_pinned_layered_hashes(self, key):
        n, p = key
        g = generators.layered_dag(n, seed=11, edge_probability=p)
        assert g.structure_hash() == self.PINNED_LAYERED[key]

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


def _independent(n, seed=0):
    return TaskGraph(tasks=[(f"T{i}", 1.0 + (seed + i) % 5) for i in range(n)])


def _children(plan, node):
    return np.flatnonzero(plan.parent == node).tolist()


class TestSPDecomposition:
    def test_single_task_is_leaf(self):
        g = TaskGraph(tasks=[("A", 2.0)])
        plan = sp_decompose(g)
        assert plan.parent.tolist() == [-1]
        assert plan.works.tolist() == [2.0]
        assert plan.task_node.tolist() == [0]

    def test_chain_is_series(self):
        g = generators.chain(4, works=[1.0] * 4)
        plan = sp_decompose(g)
        assert not plan.is_p[0]
        assert _children(plan, 0) == plan.task_node.tolist()
        assert g.index().names == ("T1", "T2", "T3", "T4")

    def test_independent_tasks_are_parallel(self):
        g = TaskGraph(tasks=[("A", 1.0), ("B", 1.0), ("C", 1.0)])
        plan = sp_decompose(g)
        assert plan.is_p[0]
        assert _children(plan, 0) == [1, 2, 3]
        assert plan.task_node.tolist() == [1, 2, 3]

    def test_fork_decomposition(self):
        # S(leaf T0, P(T1, T2, T3)), breadth-first
        g = generators.fork(3, source_work=1.0, works=[1.0, 2.0, 3.0])
        plan = sp_decompose(g)
        assert plan.works.tolist() == [0.0, 1.0, 0.0, 1.0, 2.0, 3.0]
        assert plan.is_p.tolist() == [False, True, True, True, True, True]
        assert plan.parent.tolist() == [-1, 0, 0, 2, 2, 2]
        assert plan.task_node.tolist() == [1, 3, 4, 5]
        assert [a.dtype for a in plan] == [np.float64, np.bool_, np.int64,
                                           np.int64]

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
        plan = sp_decompose(g)
        leaves = np.setdiff1d(np.arange(plan.parent.shape[0]), plan.parent)
        assert sorted(plan.task_node.tolist()) == leaves.tolist()
        assert leaves.shape[0] == 30
        assert np.array_equal(plan.works[plan.task_node], g.index().works)

    def test_iter_leaves_and_depth(self):
        g = generators.random_series_parallel(12, seed=5)
        plan = sp_decompose(g)
        assert np.unique(plan.task_node).shape[0] == 12
        depth, stuck = node_depths(plan.parent)
        assert not stuck.any()
        assert depth.max() + 1 >= 2

    def test_empty_graph_rejected(self):
        with pytest.raises(InvalidGraphError):
            sp_decompose(TaskGraph())

    @given(st.integers(min_value=1, max_value=30), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=25, deadline=None)
    def test_generator_sp_graphs_always_decompose(self, n, seed):
        g = generators.random_series_parallel(n, seed=seed)
        plan = sp_decompose(g)
        leaves = np.setdiff1d(np.arange(plan.parent.shape[0]), plan.parent)
        assert sorted(plan.task_node.tolist()) == leaves.tolist()

    @given(st.integers(min_value=1, max_value=30), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=25, deadline=None)
    def test_trees_always_decompose(self, n, seed):
        g = generators.random_tree(n, seed=seed)
        assert is_series_parallel(g)

    @given(st.sampled_from(["sp", "out-tree", "in-tree", "fork_join",
                            "independent"]),
           st.integers(min_value=1, max_value=60),
           st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=60, deadline=None)
    def test_plan_is_the_finest_decomposition(self, kind, n, seed):
        g = {"sp": lambda: generators.random_series_parallel(n, seed=seed),
             "out-tree": lambda: generators.random_tree(n, seed=seed),
             "in-tree": lambda: generators.random_tree(n, seed=seed,
                                                       direction="in"),
             "fork_join": lambda: generators.fork_join(n, seed=seed),
             "independent": lambda: _independent(n, seed)}[kind]()
        plan = sp_decompose(g)
        size = plan.parent.shape[0]
        # node 0 is the only root, and each node's children are consecutive
        assert plan.parent[0] == -1 and (plan.parent[1:] >= 0).all()
        for node in np.unique(plan.parent[1:]).tolist():
            kids = _children(plan, node)
            assert kids == list(range(kids[0], kids[0] + len(kids)))
        # the tasks map one-to-one onto the childless nodes, with their work
        n_kids = np.bincount(plan.parent[1:], minlength=size)
        assert sorted(plan.task_node.tolist()) == np.flatnonzero(
            n_kids == 0).tolist()
        assert np.array_equal(plan.works[plan.task_node], g.index().works)
        # a composition joins at least two children and carries no work
        comp = n_kids > 0
        assert (n_kids[comp] >= 2).all() and (plan.works[comp] == 0.0).all()
        assert size <= 2 * g.n_tasks - 1
        # no composition has a child of its own kind
        child = np.arange(1, size)
        nested = comp[child]
        assert (plan.is_p[child[nested]]
                != plan.is_p[plan.parent[child[nested]]]).all()


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

    @pytest.mark.parametrize("data, message", [
        ({"edges": []}, "graph dictionary is missing the 'tasks' key"),
        ({"tasks": {"A": 1.0}, "edges": [["A"]]}, "malformed edge entry: ['A']"),
        ({"tasks": {"A": 1.0}, "edges": [["A", "B"]]}, "unknown target task 'B'"),
        ({"tasks": {"A": 1.0}, "edges": [["B", "A"]]}, "unknown source task 'B'"),
        ({"tasks": {"A": 1.0}, "edges": [["A", "A"]]}, "self-loop on task 'A'"),
        ({"tasks": {"A": -1.0}},
         "task 'A' must have a finite, strictly positive work, got -1.0"),
        ({"tasks": {"A": "x"}}, "graph arrays must be numeric"),
        ({"tasks": {"": 1.0}}, "task name must be a non-empty string, got ''"),
        ({"name": "g", "tasks": {"A": 1, "B": 2}, "edges": [["A", "B"], ["B", "A"]]},
         "graph 'g' contains a cycle (2 tasks unreachable in topological sort)"),
        ({"tasks": ["A"]}, "graph 'tasks' must map task names to works, got list"),
        ({"tasks": {"A": 10 ** 400}},
         "graph arrays must be numeric: int too large to convert to float"),
    ])
    def test_from_dict_typed_errors(self, data, message):
        with pytest.raises(InvalidGraphError) as excinfo:
            graph_from_dict(data)
        assert message in str(excinfo.value)

    def test_from_dict_builds_from_arrays(self):
        g = generators.erdos_dag(20, seed=3)
        back = graph_from_dict(graph_to_dict(g))
        assert "_tasks" not in vars(back)
        assert back.name == g.name
        assert back.structure_hash() == g.structure_hash()

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
