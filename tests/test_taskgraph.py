"""Tests for the TaskGraph container and its analysis routines."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graphs import (
    Task,
    TaskGraph,
    ancestors,
    critical_path,
    descendants,
    graph_depth,
    graph_width,
    longest_path_length,
    topological_order,
    transitive_closure_pairs,
    transitive_reduction,
)
from repro.graphs.analysis import descendant_bitsets, levels
from repro.graphs import generators
from repro.utils.errors import InvalidGraphError


class TestTask:
    def test_valid_task(self):
        t = Task("T1", 2.5)
        assert t.name == "T1"
        assert t.work == 2.5

    def test_zero_work_rejected(self):
        with pytest.raises(InvalidGraphError):
            Task("T1", 0.0)

    def test_negative_work_rejected(self):
        with pytest.raises(InvalidGraphError):
            Task("T1", -1.0)

    def test_infinite_work_rejected(self):
        with pytest.raises(InvalidGraphError):
            Task("T1", float("inf"))

    def test_empty_name_rejected(self):
        with pytest.raises(InvalidGraphError):
            Task("", 1.0)


class TestTaskGraphConstruction:
    def test_add_task_and_edge(self):
        g = TaskGraph()
        g.add_task(Task("A", 1.0))
        g.add_task("B", 2.0)
        g.add_edge("A", "B")
        assert g.n_tasks == 2
        assert g.n_edges == 1
        assert g.has_edge("A", "B")
        assert not g.has_edge("B", "A")

    def test_constructor_with_tuples(self):
        g = TaskGraph(tasks=[("A", 1.0), ("B", 2.0)], edges=[("A", "B")])
        assert g.work("B") == 2.0

    def test_duplicate_task_rejected(self):
        g = TaskGraph(tasks=[("A", 1.0)])
        with pytest.raises(InvalidGraphError):
            g.add_task(Task("A", 2.0))

    def test_add_task_by_name_without_work(self):
        g = TaskGraph()
        with pytest.raises(InvalidGraphError):
            g.add_task("A")

    def test_edge_with_unknown_endpoint(self):
        g = TaskGraph(tasks=[("A", 1.0)])
        with pytest.raises(InvalidGraphError):
            g.add_edge("A", "Z")
        with pytest.raises(InvalidGraphError):
            g.add_edge("Z", "A")

    def test_self_loop_rejected(self):
        g = TaskGraph(tasks=[("A", 1.0)])
        with pytest.raises(InvalidGraphError):
            g.add_edge("A", "A")

    def test_remove_edge(self):
        g = TaskGraph(tasks=[("A", 1.0), ("B", 1.0)], edges=[("A", "B")])
        g.remove_edge("A", "B")
        assert g.n_edges == 0

    def test_remove_missing_edge(self):
        g = TaskGraph(tasks=[("A", 1.0), ("B", 1.0)])
        with pytest.raises(InvalidGraphError):
            g.remove_edge("A", "B")

    def test_unknown_task_lookup(self):
        g = TaskGraph()
        with pytest.raises(InvalidGraphError):
            g.task("missing")

    def test_contains_and_iteration(self):
        g = TaskGraph(tasks=[("A", 1.0), ("B", 1.0)])
        assert "A" in g
        assert list(g) == ["A", "B"]
        assert len(g) == 2

    def test_total_work(self):
        g = TaskGraph(tasks=[("A", 1.5), ("B", 2.5)])
        assert g.total_work() == 4.0

    def test_sources_and_sinks(self):
        g = TaskGraph(tasks=[("A", 1.0), ("B", 1.0), ("C", 1.0)],
                      edges=[("A", "B"), ("B", "C")])
        assert g.sources() == ["A"]
        assert g.sinks() == ["C"]

    def test_degrees(self):
        g = generators.fork(3, source_work=1.0, works=[1.0, 1.0, 1.0])
        assert g.out_degree("T0") == 3
        assert g.in_degree("T1") == 1

    def test_cycle_detection(self):
        g = TaskGraph(tasks=[("A", 1.0), ("B", 1.0)],
                      edges=[("A", "B"), ("B", "A")])
        assert not g.is_dag()
        with pytest.raises(InvalidGraphError):
            g.validate()

    def test_copy_is_independent(self):
        g = generators.chain(3, works=[1.0, 2.0, 3.0])
        c = g.copy()
        c.add_task(Task("X", 1.0))
        assert "X" not in g

    def test_with_scaled_work(self):
        g = generators.chain(3, works=[1.0, 2.0, 3.0])
        scaled = g.with_scaled_work(2.0)
        assert scaled.work("T2") == 4.0
        assert scaled.edges() == g.edges()

    def test_with_scaled_work_invalid_factor(self):
        g = generators.chain(2, works=[1.0, 1.0])
        with pytest.raises(InvalidGraphError):
            g.with_scaled_work(0.0)

    def test_subgraph(self):
        g = generators.chain(4, works=[1.0, 1.0, 1.0, 1.0])
        sub = g.subgraph(["T1", "T2"])
        assert sub.n_tasks == 2
        assert sub.has_edge("T1", "T2")

    def test_subgraph_unknown_task(self):
        g = generators.chain(2, works=[1.0, 1.0])
        with pytest.raises(InvalidGraphError):
            g.subgraph(["T1", "Z"])

    def test_networkx_roundtrip(self):
        g = generators.layered_dag(10, seed=0)
        nxg = g.to_networkx()
        back = TaskGraph.from_networkx(nxg)
        assert set(back.task_names()) == set(g.task_names())
        assert set(back.edges()) == set(g.edges())
        assert back.work(g.task_names()[0]) == g.work(g.task_names()[0])

    def test_from_works(self):
        g = TaskGraph.from_works({"A": 1.0, "B": 2.0}, edges=[("A", "B")])
        assert g.n_tasks == 2 and g.has_edge("A", "B")


INDEX_ARRAYS = ("works", "pred_ptr", "pred_idx", "succ_ptr", "succ_idx",
                "topo_order", "level", "order_by_level", "level_ptr",
                "edge_src", "edge_dst", "edge_level_ptr")


def _rebuilt_task_by_task(graph: TaskGraph) -> TaskGraph:
    """The same graph through add_task/add_edge, edges in reverse order
    and each added twice."""
    idx = graph.index()
    rebuilt = TaskGraph(name=graph.name)
    for name, work in zip(idx.names, idx.works.tolist()):
        rebuilt.add_task(name, work)
    pairs = list(zip(idx.edge_src.tolist(), idx.edge_dst.tolist()))[::-1]
    for u, v in pairs + pairs:
        rebuilt.add_edge(idx.names[u], idx.names[v])
    return rebuilt


class TestFromArrays:
    @pytest.mark.parametrize("graph_class", sorted(generators.GRAPH_CLASSES))
    @pytest.mark.parametrize("n", [1, 2, 30])
    def test_equals_the_task_by_task_route(self, graph_class, n):
        g = generators.GRAPH_CLASSES[graph_class](n, seed=n)
        assert "_tasks" not in vars(g)  # the generators build from arrays
        h = _rebuilt_task_by_task(g)
        gi, hi = g.index(), h.index()
        assert gi.names == hi.names
        assert dict(gi.index_of) == dict(hi.index_of)
        for field in INDEX_ARRAYS:
            a, b = getattr(gi, field), getattr(hi, field)
            assert a.dtype == b.dtype and np.array_equal(a, b), field
        assert g.structure_hash() == h.structure_hash()
        assert g.edges() == h.edges()
        assert g.sources() == h.sources() and g.sinks() == h.sinks()
        for name in gi.names:
            assert g.successors(name) == h.successors(name)
            assert g.predecessors(name) == h.predecessors(name)
            assert g.work(name) == h.work(name)

    def test_counts_do_not_build_the_dicts(self):
        g = generators.layered_dag(40, seed=3)
        assert g.n_tasks == len(g) == 40
        assert g.index().n_edges > 0
        assert "_tasks" not in vars(g)
        assert g.task_names()[:2] == ["T1", "T2"]  # the first read builds them
        assert "_tasks" in vars(g)

    def test_pickle_carries_the_arrays(self):
        import pickle

        g = generators.erdos_dag(30, seed=4)
        payload = pickle.dumps(g)
        assert b"_tasks" not in payload and b"_succ" not in payload
        back = pickle.loads(payload)
        assert "_tasks" not in vars(back)
        assert back.name == g.name and back.n_tasks == 30
        assert back.structure_hash() == g.structure_hash()
        assert back.edges() == g.edges()
        # once built, the dicts pickle like any task-by-task graph
        again = pickle.loads(pickle.dumps(back))
        assert again.edges() == g.edges()
        assert again.structure_hash() == g.structure_hash()

    def test_mutation_builds_the_dicts_then_reindexes(self):
        g = generators.chain(3, works=[1.0, 2.0, 3.0])
        before = g.structure_hash()
        g.add_task("X", 4.0)
        g.add_edge("T3", "X")
        assert g.n_tasks == 4 and g.n_edges == 3
        assert topological_order(g) == ["T1", "T2", "T3", "X"]
        assert g.structure_hash() != before
        g.remove_edge("T3", "X")
        assert g.sinks() == ["T3", "X"]
        assert g.index().n_edges == 2
        clone = g.copy()
        assert clone.edges() == g.edges()

    def test_duplicate_edges_collapse(self):
        g = TaskGraph.from_arrays(["a", "b", "c"], [1.0, 2.0, 3.0],
                                  [0, 0, 1, 0], [1, 1, 2, 2])
        h = TaskGraph(tasks=[("a", 1.0), ("b", 2.0), ("c", 3.0)],
                      edges=[("a", "b"), ("b", "c"), ("a", "c")])
        assert g.index().n_edges == 3
        assert g.structure_hash() == h.structure_hash()
        assert g.edges() == h.edges()

    def test_empty_graph(self):
        g = TaskGraph.from_arrays([], [], [], [])
        assert g.n_tasks == 0 and g.index().n_edges == 0
        assert g.structure_hash() == TaskGraph().structure_hash()

    @pytest.mark.parametrize("names, works, src, dst, message", [
        (["a", "a"], [1.0, 1.0], [], [], "duplicate task name 'a'"),
        (["a", ""], [1.0, 1.0], [], [], "non-empty string, got ''"),
        (["a", 3], [1.0, 1.0], [], [], "non-empty string, got 3"),
        (["a", "b"], [1.0, 0.0], [], [], "task 'b' must have a finite, strictly positive work"),
        (["a", "b"], [-1.0, 1.0], [], [], "task 'a' must have a finite"),
        (["a", "b"], [1.0, float("nan")], [], [], "got nan"),
        (["a", "b"], [float("inf"), 1.0], [], [], "got inf"),
        (["a", "b"], [1.0], [], [], "expected 2 works"),
        (["a", "b"], ["x", 1.0], [], [], "numeric"),
        (["a", "b"], [1.0, 1.0], [0], [2], "outside the 2 tasks"),
        (["a", "b"], [1.0, 1.0], [-1], [0], "outside the 2 tasks"),
        (["a", "b"], [1.0, 1.0], [0, 1], [1], "one length"),
        (["a", "b"], [1.0, 1.0], [0, 1], [1, 1], "self-loop on task 'b'"),
        (["a", "b", "c"], [1.0, 1.0, 1.0], [0, 1, 2], [1, 2, 1],
         "graph 'g' contains a cycle (2 tasks unreachable in topological sort)"),
    ])
    def test_typed_errors(self, names, works, src, dst, message):
        with pytest.raises(InvalidGraphError) as excinfo:
            TaskGraph.from_arrays(names, works, src, dst, name="g")
        assert message in str(excinfo.value)

    def test_cycle_message_matches_the_task_by_task_route(self):
        h = TaskGraph(tasks=[("a", 1.0), ("b", 1.0), ("c", 1.0)], name="g",
                      edges=[("a", "b"), ("b", "c"), ("c", "b")])
        with pytest.raises(InvalidGraphError) as by_dicts:
            h.validate()
        with pytest.raises(InvalidGraphError) as by_arrays:
            TaskGraph.from_arrays(["a", "b", "c"], [1.0] * 3, [0, 1, 2],
                                  [1, 2, 1], name="g")
        assert str(by_arrays.value) == str(by_dicts.value)


class TestAnalysis:
    def test_topological_order_respects_edges(self):
        g = generators.layered_dag(20, seed=1)
        order = topological_order(g)
        position = {n: i for i, n in enumerate(order)}
        assert all(position[u] < position[v] for u, v in g.edges())

    def test_topological_order_cycle_raises(self):
        g = TaskGraph(tasks=[("A", 1.0), ("B", 1.0)], edges=[("A", "B"), ("B", "A")])
        with pytest.raises(InvalidGraphError):
            topological_order(g)

    def test_longest_path_chain(self):
        g = generators.chain(4, works=[1.0, 2.0, 3.0, 4.0])
        assert longest_path_length(g) == pytest.approx(10.0)

    def test_longest_path_fork(self):
        g = generators.fork(3, source_work=2.0, works=[1.0, 5.0, 3.0])
        assert longest_path_length(g) == pytest.approx(7.0)

    def test_longest_path_custom_weight(self):
        g = generators.chain(3, works=[1.0, 1.0, 1.0])
        assert longest_path_length(g, weight=lambda _n: 2.0) == pytest.approx(6.0)

    def test_longest_path_weight_vector(self):
        g = generators.layered_dag(30, seed=5)
        vector = g.index().works / 0.7
        assert longest_path_length(g, weight=vector) == \
            longest_path_length(g, weight=lambda n: g.work(n) / 0.7)
        with pytest.raises(InvalidGraphError, match="shape"):
            longest_path_length(g, weight=vector[:-1])

    def test_longest_path_weight_mapping_missing(self):
        g = generators.chain(2, works=[1.0, 1.0])
        with pytest.raises(InvalidGraphError):
            longest_path_length(g, weight={"T1": 1.0})

    def test_critical_path_tasks_form_a_path(self):
        g = generators.layered_dag(25, seed=2)
        length, path = critical_path(g)
        assert length == pytest.approx(longest_path_length(g))
        for u, v in zip(path, path[1:]):
            assert g.has_edge(u, v)
        assert length == pytest.approx(sum(g.work(n) for n in path))

    def test_ancestors_and_descendants(self):
        g = generators.chain(4, works=[1.0] * 4)
        assert ancestors(g, "T3") == {"T1", "T2"}
        assert descendants(g, "T2") == {"T3", "T4"}
        assert ancestors(g, "T1") == set()

    @pytest.mark.parametrize("cls", sorted(generators.GRAPH_CLASSES))
    @pytest.mark.parametrize("n", [1, 63, 64, 65, 200])
    def test_descendant_bitsets_match_descendants(self, cls, n):
        graph = generators.GRAPH_CLASSES[cls](n, seed=n)
        idx = graph.index()
        closure = descendant_bitsets(graph)
        assert closure.dtype == np.uint64
        assert closure.shape == (idx.n_tasks, (idx.n_tasks + 63) // 64)
        # bit j of row i sits in word j // 64 at bit j % 64
        bits = np.unpackbits(closure.astype("<u8").view(np.uint8), axis=1,
                             bitorder="little")
        for i, name in enumerate(idx.names):
            expected = sorted(idx.index_of[d] for d in descendants(graph, name))
            assert np.flatnonzero(bits[i]).tolist() == expected, (name, i)

    def test_transitive_closure_pairs_chain(self):
        g = generators.chain(3, works=[1.0] * 3)
        assert transitive_closure_pairs(g) == {("T1", "T2"), ("T1", "T3"), ("T2", "T3")}

    def test_transitive_reduction_removes_shortcut(self):
        g = TaskGraph(tasks=[("A", 1.0), ("B", 1.0), ("C", 1.0)],
                      edges=[("A", "B"), ("B", "C"), ("A", "C")])
        reduced = transitive_reduction(g)
        assert not reduced.has_edge("A", "C")
        assert reduced.has_edge("A", "B") and reduced.has_edge("B", "C")

    def test_transitive_reduction_preserves_reachability(self):
        g = generators.erdos_dag(15, seed=3, edge_probability=0.4)
        reduced = transitive_reduction(g)
        assert transitive_closure_pairs(reduced) == transitive_closure_pairs(g)

    def test_depth_and_width_chain(self):
        g = generators.chain(5, works=[1.0] * 5)
        assert graph_depth(g) == 5
        assert graph_width(g) == 1

    def test_depth_and_width_fork(self):
        g = generators.fork(6, source_work=1.0, works=[1.0] * 6)
        assert graph_depth(g) == 2
        assert graph_width(g) == 6

    def test_levels(self):
        g = generators.fork_join(3, source_work=1.0, sink_work=1.0, works=[1.0] * 3)
        lvl = levels(g)
        assert lvl["src"] == 1
        assert lvl["snk"] == 3

    @given(st.integers(min_value=2, max_value=30), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=25, deadline=None)
    def test_critical_path_at_least_max_work(self, n, seed):
        g = generators.layered_dag(n, seed=seed)
        length, _ = critical_path(g)
        assert length >= max(g.work(t) for t in g.task_names()) - 1e-12

    @given(st.integers(min_value=1, max_value=25), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=25, deadline=None)
    def test_longest_path_bounded_by_total_work(self, n, seed):
        g = generators.erdos_dag(n, seed=seed)
        assert longest_path_length(g) <= g.total_work() + 1e-9
