"""Tests for the packed ``/v1/solve_batch`` decode and the one vector core.

Covers: a mixed request body (every route the batch can take, and every
kind of malformed row) answers each row exactly as the same payload solved
alone through ``execute_solve``, in process and over HTTP; a row does not
depend on which instances share its batch or where it sits (hypothesis);
fake trees (a tree's degree statistics around a parent cycle) take the
scalar path and the order of an edge list changes no row; a malformed
in-process graph is a typed row; an instance without tasks is one failure
row on both the batch route and a shared micro-batcher tick, never a
failed batch; and one packer fills the vector core's input for both
routes, without per-instance objects.
"""

from __future__ import annotations

import dataclasses
import json
import math
import urllib.request

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.api import (
    SCHEMA_VERSION,
    DiskTransport,
    SolveRequest,
    SolveResponse,
    decode_rows,
)
from repro.api.client import execute_solve, execute_solve_batch
from repro.batch import BatchPacker, WireInstance, solve_batch
from repro.batch.vectorized import SP_BATCH_SOLVER, TREE_BATCH_SOLVER
from repro.core.models import ContinuousModel, DiscreteModel
from repro.core.problem import MinEnergyProblem
from repro.graphs import generators
from repro.graphs.analysis import longest_path_length
from repro.graphs.io import graph_to_dict
from repro.server import SolverHTTPServer
from repro.service import MicroBatcher, SolverService
from repro.utils.errors import ReproError, TransportError

#: Relative tolerance of float fields between a batch row and its solo row.
RTOL = 1e-12

#: A work too large for a float, decoded from JSON text (so an ``int``).
HUGE_WORK = json.loads("1" + "0" * 400)


def payload(graph, *, slack=1.5, s_max=None, alpha=3.0, name="", **fields):
    """A ``SolveRequest`` wire object for ``graph`` with an absolute
    deadline ``slack`` times its critical path (at ``s_max`` if capped)."""
    pace = 1.0 if s_max is None else s_max
    deadline = slack * longest_path_length(
        graph, weight=graph.index().works / pace)
    wire = SolveRequest(graph=graph_to_dict(graph), deadline=deadline,
                        s_max=s_max, alpha=alpha, name=name).to_wire()
    wire.update(fields)
    return wire


def graph_payload(tasks, edges, **fields):
    wire = {"schema_version": SCHEMA_VERSION, "deadline": 10.0,
            "s_max": None, "graph": {"name": "g", "tasks": tasks,
                                     "edges": edges}}
    wire.update(fields)
    return wire


def mixed_body() -> list:
    """Every route a ``/v1/solve_batch`` row can take, plus malformed rows."""
    tree = generators.random_tree(9, seed=4)
    unnamed_graph = graph_to_dict(generators.random_tree(5, seed=6))
    del unnamed_graph["name"]
    layered = generators.layered_dag(10, seed=2)
    return [
        payload(tree, name="tree"),
        payload(generators.random_tree(12, seed=5), alpha=2.5),
        payload(generators.random_series_parallel(10, seed=3), name="sp"),
        payload(generators.random_series_parallel(8, seed=9), s_max=3.0),
        payload(layered, name="non-sp"),
        # uncapped speeds break the cap: the scalar path saturates it
        payload(generators.fork(5, seed=1), slack=1.05, s_max=1.0,
                name="capped"),
        payload(generators.chain(4, seed=2), model="discrete",
                modes=[0.4, 0.7, 1.0], s_max=1.0, name="discrete"),
        payload(generators.chain(4, seed=3), model="vdd",
                modes=[0.5, 1.0], s_max=1.0, name="vdd"),
        {"schema_version": SCHEMA_VERSION, "graph": graph_to_dict(tree),
         "slack": 1.5, "s_max": 1.0, "name": "slack-relative"},
        payload(layered, method="convex-sparse",
                options={"tolerance": 1e-8}, name="method-a"),
        payload(generators.layered_dag(8, seed=5), method="convex-sparse",
                options={"tolerance": 1e-8}),
        {"schema_version": SCHEMA_VERSION, "graph": unnamed_graph,
         "deadline": 9.0, "s_max": None},
        payload(generators.random_tree(7, seed=8), keep_speeds=True,
                name="own-speeds"),
        # malformed rows
        42,
        payload(tree, name="future")
        | {"schema_version": SCHEMA_VERSION + 1},
        payload(tree, name="surprise") | {"surprise": 1},
        graph_payload({"a": 1.0, "b": 2.0}, [["a", "missing"]],
                      name="bad-endpoint"),
        graph_payload({"a": "abc", "b": 2.0}, [["a", "b"]],
                      name="non-numeric"),
        graph_payload({"a": -1.0, "b": 2.0}, [["a", "b"]], name="negative"),
        graph_payload({"a": HUGE_WORK, "b": 2.0}, [["a", "b"]],
                      name="huge-work"),
        graph_payload({"a": HUGE_WORK, "b": 2.0}, [["a", "b"]],
                      model="discrete", modes=[0.5, 1.0], s_max=1.0,
                      name="huge-work-discrete"),
        graph_payload({"a": 1.0, "b": 2.0}, [["a", "b"], ["b", "a"]],
                      name="cycle"),
        graph_payload({}, [], name="empty"),
        graph_payload({"a": 1.0}, [], deadline="soon", name="bad-deadline"),
        # edges read as every route reads them: exactly two endpoints,
        # each resolved as str(endpoint)
        graph_payload({"a": 1.0, "b": 2.0}, [["a", "b", "c"]],
                      name="three-endpoints"),
        graph_payload({"1": 1.0, "2": 2.0}, [[1, 2]], name="int-endpoints"),
        payload(tree, name="last"),
    ]


def solo_row(service: SolverService, wire, keep_speeds: bool
             ) -> SolveResponse:
    """``wire`` solved alone: its typed rejection, or ``execute_solve``."""
    try:
        request = SolveRequest.from_wire(wire)
    except ReproError as exc:
        name = str(wire.get("name", "")) if isinstance(wire, dict) else ""
        return SolveResponse.from_failure(exc, name=name)
    if keep_speeds:
        request = dataclasses.replace(request, keep_speeds=True)
    return execute_solve(service, request)


def assert_same_row(row, solo, label) -> None:
    for attr in ("ok", "name", "n_tasks", "solver", "optimal", "error_type",
                 "error"):
        assert getattr(row, attr) == getattr(solo, attr), (label, attr)
    for attr in ("energy", "makespan"):
        got, want = getattr(row, attr), getattr(solo, attr)
        assert (got is None) == (want is None), (label, attr)
        if want is not None:
            assert got == pytest.approx(want, rel=RTOL, abs=0.0), (label,
                                                                    attr)
    assert (row.speeds is None) == (solo.speeds is None), label
    if solo.speeds is not None:
        assert row.speeds.keys() == solo.speeds.keys(), label
        for task, speed in solo.speeds.items():
            assert row.speeds[task] == pytest.approx(speed, rel=RTOL,
                                                     abs=0.0), (label, task)


@pytest.fixture(scope="module")
def service():
    with SolverService(workers=1, use_threads=True) as svc:
        yield svc


class TestMixedBodyParity:
    @pytest.mark.parametrize("keep_speeds", [False, True])
    def test_in_process_rows_match_solo_solves(self, service, keep_speeds):
        body = mixed_body()
        rows = execute_solve_batch(service, body, keep_speeds=keep_speeds)
        assert len(rows) == len(body)
        for i, (wire, row) in enumerate(zip(body, rows)):
            assert row.index == i
            solo = solo_row(service, wire,
                            keep_speeds or bool(isinstance(wire, dict)
                                                and wire.get("keep_speeds")))
            assert_same_row(SolveResponse.from_result(row), solo,
                            wire.get("name") if isinstance(wire, dict)
                            else wire)

    def test_the_body_takes_every_route(self, service):
        rows = execute_solve_batch(service, mixed_body())
        solvers = {row.name: row.solver for row in rows}
        assert solvers["tree"] == TREE_BATCH_SOLVER
        assert solvers["sp"] == SP_BATCH_SOLVER
        assert solvers["non-sp"] == "continuous-convex-sparse"
        assert solvers["capped"] not in (TREE_BATCH_SOLVER, SP_BATCH_SOLVER)
        assert solvers["discrete"].startswith("discrete")
        assert solvers["MinEnergy(taskgraph, D=9)"] == TREE_BATCH_SOLVER
        assert solvers["int-endpoints"] == TREE_BATCH_SOLVER
        errors = {row.name: row.error_type for row in rows if not row.ok}
        assert errors == {
            "": "TransportError",  # the bare 42
            "future": "SchemaVersionError",
            "surprise": "TransportError",
            "bad-endpoint": "InvalidGraphError",
            "non-numeric": "InvalidGraphError",
            "negative": "InvalidGraphError",
            "huge-work": "InvalidGraphError",
            "huge-work-discrete": "InvalidGraphError",
            "cycle": "InvalidGraphError",
            "empty": "InvalidGraphError",
            "bad-deadline": "TransportError",
            "three-endpoints": "InvalidGraphError",
        }

    @staticmethod
    def assert_routes_agree(service, tasks, edges):
        wire = graph_payload(tasks, edges)
        default = solo_row(service, wire, False)
        named = solo_row(service, wire | {"method": "tree"}, False)
        discrete = solo_row(service, wire | {"model": "discrete",
                                             "modes": [0.5, 1.0],
                                             "s_max": 1.0}, False)
        assert default.solver in (TREE_BATCH_SOLVER, None)
        for other in (named, discrete):
            for attr in ("ok", "error_type", "error"):
                assert getattr(default, attr) == getattr(other, attr), attr
        if default.ok:
            assert default.energy == pytest.approx(named.energy, rel=1e-9)

    @pytest.mark.parametrize("tasks, edges", [
        ({"a": 1.0, "b": 2.0}, [["a", "b", "c"]]),
        ({"1": 1.0, "2": 2.0}, [[1, 2]]),
        ({1: 1.0, 2: 2.0}, [[1, 2]]),  # in process, names as str()
        ({"a": 1.0, "b": 2.0}, [["a", "missing"]]),
        ({"a": 1.0}, 5),
    ])
    def test_edges_read_the_same_on_every_route(self, service, tasks,
                                                edges):
        self.assert_routes_agree(service, tasks, edges)

    @pytest.mark.parametrize("tasks", [
        {"a": "abc", "b": 2.0},
        {"a": HUGE_WORK, "b": 2.0},
    ])
    def test_works_read_the_same_on_every_route(self, service, tasks):
        self.assert_routes_agree(service, tasks, [["a", "b"]])

    @pytest.mark.parametrize("keep_speeds", [False, True])
    def test_http_rows_match_solo_solves(self, tmp_path, service,
                                         keep_speeds):
        body = mixed_body()
        transport = DiskTransport(tmp_path / "jobs", use_threads=True)
        with SolverHTTPServer(transport).start() as server:
            request = urllib.request.Request(
                f"{server.url}/v1/solve_batch", method="POST",
                data=json.dumps({"schema_version": SCHEMA_VERSION,
                                 "requests": body,
                                 "keep_speeds": keep_speeds}).encode(),
                headers={"Content-Type": "application/json"})
            with urllib.request.urlopen(request, timeout=60) as response:
                assert response.status == 200
                frame = json.loads(response.read())
        task_names = [list(wire["graph"]["tasks"])
                      if isinstance(wire, dict) and "graph" in wire
                      else None for wire in body]
        rows = decode_rows(frame, task_names=task_names)
        for wire, row in zip(body, rows):
            solo = solo_row(service, wire,
                            keep_speeds or bool(isinstance(wire, dict)
                                                and wire.get("keep_speeds")))
            # the frame carries no seconds; everything else must agree
            assert_same_row(row, solo, wire.get("name")
                            if isinstance(wire, dict) else wire)


# --------------------------------------------------------------------- #
# a row does not depend on its batch
# --------------------------------------------------------------------- #
#: A fake tree: a tree's degree statistics (``m = n - 1``, one root, no
#: task with two parents) around a parent cycle ``d -> e -> f -> d``.  Its
#: edges read as an out-tree; reversed, as an in-tree only (``a`` then
#: has two in-edges).
FAKE_TREE_EDGES = {
    "out": [["a", "b"], ["a", "c"], ["d", "e"], ["e", "f"], ["f", "d"]],
    "in": [["b", "a"], ["c", "a"], ["e", "d"], ["f", "e"], ["d", "f"]],
}


def fake_tree(direction: str) -> dict:
    return {"name": f"fake-{direction}",
            "tasks": {task: float(k + 1) for k, task in enumerate("abcdef")},
            "edges": FAKE_TREE_EDGES[direction]}


SHAPES = {
    "chain": lambda n, seed: generators.chain(n, seed=seed),
    "fork": lambda n, seed: generators.fork(max(n - 1, 1), seed=seed),
    "random_tree": lambda n, seed: generators.random_tree(n, seed=seed),
    "random_sp": lambda n, seed: generators.random_series_parallel(
        max(n, 2), seed=seed),
}


@st.composite
def instances(draw):
    shape = draw(st.sampled_from(sorted(SHAPES)))
    n = draw(st.integers(1, 12))
    graph = SHAPES[shape](n, draw(st.integers(0, 10_000)))
    kind = draw(st.sampled_from(["plain", "plain", "capped", "empty",
                                 "negative", "fake-tree"]))
    wire = payload(graph, slack=draw(st.floats(1.0, 3.0)),
                   s_max=1.0 if kind == "capped" else None,
                   alpha=draw(st.sampled_from([2.0, 2.5, 3.0])),
                   name=draw(st.sampled_from(["", "named"])))
    if kind == "empty":
        wire["graph"] = {"name": "void", "tasks": {}, "edges": []}
    elif kind == "negative":
        first = next(iter(wire["graph"]["tasks"]))
        wire["graph"]["tasks"][first] = -1.0
    elif kind == "fake-tree":
        wire["graph"] = fake_tree(draw(st.sampled_from(["out", "in"])))
    return wire


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(body=st.lists(instances(), min_size=1, max_size=8),
       data=st.data())
def test_a_row_does_not_depend_on_its_batch(service, body, data):
    together = execute_solve_batch(service, body)
    order = data.draw(st.permutations(range(len(body))))
    shuffled = execute_solve_batch(service, [body[k] for k in order])
    for position, k in enumerate(order):
        alone = execute_solve_batch(service, [body[k]])[0]
        for row in (together[k], shuffled[position]):
            assert_same_row(SolveResponse.from_result(row),
                            SolveResponse.from_result(alone), k)


def test_fake_trees_go_to_the_scalar_path():
    # the 256-task chain is the deepest instance the core takes: its
    # depths need the most pointer jumps
    chain = generators.chain(256, seed=3)
    tree = generators.random_tree(9, seed=4)
    items = [WireInstance(fake_tree("out"), deadline=30.0),
             WireInstance(graph_to_dict(tree), deadline=40.0),
             WireInstance(fake_tree("in"), deadline=30.0),
             WireInstance(graph_to_dict(chain),
                          deadline=1.5 * float(chain.index().works.sum()))]
    fake_out, tree_row, fake_in, chain_row = solve_batch(items)
    for row in (fake_out, fake_in):
        assert not row.ok and row.error_type == "InvalidGraphError"
        assert "contains a cycle" in row.error
    for row in (tree_row, chain_row):
        assert row.ok and row.solver == TREE_BATCH_SOLVER


@pytest.mark.parametrize("direction", ["out", "in"])
def test_edge_list_order_does_not_change_a_row(direction):
    # siblings fold in task order, whatever order their edges came in
    rng = np.random.default_rng(7)
    original, shuffled = [], []
    for seed in range(200):
        graph = graph_to_dict(generators.random_tree(30, seed=seed,
                                                     direction=direction))
        deadline = float(rng.uniform(20.0, 200.0))
        original.append(WireInstance(graph, deadline))
        edges = list(graph["edges"])
        rng.shuffle(edges)
        shuffled.append(WireInstance(graph | {"edges": edges}, deadline))
    for row, again in zip(solve_batch(original, keep_speeds=True),
                          solve_batch(shuffled, keep_speeds=True)):
        assert row.ok and row.solver == TREE_BATCH_SOLVER
        assert again.energy == row.energy
        assert again.speeds == row.speeds


# --------------------------------------------------------------------- #
# malformed in-process graphs
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("model", ["continuous", "discrete"])
@pytest.mark.parametrize("graph", [[1, 2], {"tasks": 5}],
                         ids=["list", "tasks-int"])
def test_a_malformed_in_process_graph_is_a_typed_row(service, graph, model):
    request = SolveRequest(graph=graph, deadline=1.0, model=model)
    (row,) = execute_solve_batch(service, [request])
    for answer in (execute_solve(service, request),
                   SolveResponse.from_result(row)):
        assert not answer.ok and answer.error_type == "InvalidGraphError"
        assert answer.n_tasks == 0
    # over the wire the same payload is refused before it is a request
    with pytest.raises(TransportError):
        SolveRequest.from_wire(request.to_wire())


@pytest.mark.parametrize("graph", [[1, 2], {"tasks": 5}],
                         ids=["list", "tasks-int"])
def test_a_malformed_wire_instance_is_a_typed_row(graph):
    (row,) = solve_batch([WireInstance(graph, deadline=1.0)])
    assert not row.ok and row.error_type == "InvalidGraphError"
    assert row.n_tasks == 0 and row.name == "MinEnergy(taskgraph, D=1)"


# --------------------------------------------------------------------- #
# instances without tasks
# --------------------------------------------------------------------- #
def _tree_wire(name: str = "tree") -> dict:
    return payload(generators.random_tree(6, seed=1), name=name)


def _empty_wire() -> dict:
    return graph_payload({}, [], name="empty")


class TestEmptyInstances:
    @pytest.mark.parametrize("empty_last", [True, False])
    def test_batch_route_answers_one_failure_row(self, tmp_path, empty_last):
        body = [_tree_wire(), _empty_wire()]
        if not empty_last:
            body.reverse()
        transport = DiskTransport(tmp_path / "jobs", use_threads=True)
        with SolverHTTPServer(transport).start() as server:
            request = urllib.request.Request(
                f"{server.url}/v1/solve_batch", method="POST",
                data=json.dumps({"schema_version": SCHEMA_VERSION,
                                 "requests": body}).encode(),
                headers={"Content-Type": "application/json"})
            with urllib.request.urlopen(request, timeout=60) as response:
                assert response.status == 200
                rows = {row.name: row for row
                        in decode_rows(json.loads(response.read()))}
        assert rows["tree"].ok and rows["tree"].solver == TREE_BATCH_SOLVER
        assert not rows["empty"].ok
        assert rows["empty"].error_type == "InvalidGraphError"

    def test_singles_sharing_a_tick_both_answer(self, tick_gate):
        tree = SolveRequest.from_wire(_tree_wire()).to_instance()
        empty = SolveRequest.from_wire(_empty_wire()).to_instance()
        with MicroBatcher() as batcher:
            held = tick_gate.hold(batcher, tree)
            first = batcher.submit(tree)
            second = batcher.submit(empty)
            tick_gate.release.set()
            assert held.result(timeout=10).ok
            tree_row = first.result(timeout=10)
            empty_row = second.result(timeout=10)
            # the held tick, then one tick for both
            assert batcher.stats()["ticks"] == 2
            assert tick_gate.sizes == [1, 2]
        assert tree_row.ok
        assert not empty_row.ok
        assert empty_row.error_type == "InvalidGraphError"

    def test_library_batch_with_an_empty_spec_last(self):
        empty_wire = WireInstance({"tasks": {}}, deadline=1.0)
        problem = MinEnergyProblem(graph=generators.chain(3), deadline=9.0,
                                   model=ContinuousModel())
        good, empty = solve_batch([problem, empty_wire])
        assert good.ok and good.metadata["vectorized"]
        assert not empty.ok and empty.error_type == "InvalidGraphError"


# --------------------------------------------------------------------- #
# the packers
# --------------------------------------------------------------------- #
class TestPackers:
    def test_wire_packing_matches_spec_packing(self):
        graphs = [generators.random_tree(6, seed=s) for s in range(4)]
        wires = [payload(g, name=f"t{i}") for i, g in enumerate(graphs)]
        packer = BatchPacker()
        for wire in wires:
            assert SolveRequest.from_wire(wire, pack=packer) is None
        packed = packer.build()
        problem_packer = BatchPacker()
        for graph, wire in zip(graphs, wires):
            assert problem_packer.add_problem(MinEnergyProblem(
                graph=graph, deadline=wire["deadline"],
                model=ContinuousModel(s_max=math.inf), name=wire["name"]))
        problems = problem_packer.build()
        for field in ("works", "task_off", "edge_src", "edge_dst",
                      "edge_off", "deadline", "s_max", "alpha"):
            np.testing.assert_array_equal(getattr(packed, field),
                                          getattr(problems, field))
        assert packed.names == problems.names == ["t0", "t1", "t2", "t3"]
        # the wire packer keeps the payload graphs, not per-instance objects
        assert all(source is wire["graph"]
                   for source, wire in zip(packed.sources, wires))

    def test_a_single_solve_goes_through_the_packer(self, tmp_path,
                                                    monkeypatch):
        added = []
        add = BatchPacker.add

        def counting(self, graph, **kwargs):
            added.append(graph)
            return add(self, graph, **kwargs)

        monkeypatch.setattr(BatchPacker, "add", counting)
        wire = _tree_wire()
        transport = DiskTransport(tmp_path / "jobs", use_threads=True)
        with SolverHTTPServer(transport).start() as server:
            request = urllib.request.Request(
                f"{server.url}/v1/solve", method="POST",
                data=json.dumps(wire).encode(),
                headers={"Content-Type": "application/json"})
            with urllib.request.urlopen(request, timeout=60) as response:
                row = SolveResponse.from_wire(json.loads(response.read()))
        assert row.ok and row.solver == TREE_BATCH_SOLVER
        assert added == [wire["graph"]]

    @pytest.mark.parametrize("change", [
        {"method": "tree"}, {"exact": True}, {"options": {"tolerance": 1.0}},
        {"keep_speeds": True}, {"validate": True}, {"model": "discrete"},
        {"deadline": None, "slack": 1.5, "s_max": 1.0},
    ])
    def test_requests_the_core_does_not_take_come_back(self, change):
        wire = _tree_wire() | change
        packer = BatchPacker()
        request = SolveRequest.from_wire(wire, pack=packer)
        assert isinstance(request, SolveRequest)
        assert len(packer.build()) == 0
        assert request == SolveRequest.from_wire(wire)

    @pytest.mark.parametrize("tasks, edges", [
        ({"a": "abc"}, []),
        ({"a": None}, []),
        ({"a": 10 ** 400}, []),
        ({"a": 1.0}, [["a", "missing"]]),
        ({"a": 1.0}, [["a"]]),
        ({"a": 1.0}, 5),
        ({f"t{i}": 1.0 for i in range(300)}, []),
    ])
    def test_graphs_read_differently_stay_with_the_scalar_path(self, tasks,
                                                               edges):
        packer = BatchPacker()
        assert not packer.add({"tasks": tasks, "edges": edges}, deadline=1.0,
                              s_max=None, alpha=3.0, name="")
        assert len(packer.build()) == 0

    @pytest.mark.parametrize("cap", [float("nan"), 0.0, -1.0])
    def test_a_cap_the_model_refuses_is_a_typed_row(self, cap):
        # the scalar model refuses these caps; the vector core used to
        # solve straight past a NaN one
        wire = WireInstance(graph_to_dict(generators.chain(3)), deadline=9.0,
                            s_max=cap)
        (row,) = solve_batch([wire])
        assert not row.ok and row.error_type == "InvalidModelError"

    def test_default_names_match_the_scalar_path(self):
        graph = graph_to_dict(generators.random_tree(5, seed=2))
        del graph["name"]
        wire = {"schema_version": SCHEMA_VERSION, "graph": graph,
                "deadline": 7.0, "s_max": None}
        packer = BatchPacker()
        assert SolveRequest.from_wire(wire, pack=packer) is None
        scalar = SolveRequest.from_wire(wire).build_problem()
        assert packer.build().names == [scalar.name]
        assert scalar.name == "MinEnergy(taskgraph, D=7)"
        (row,) = solve_batch([SolveRequest.from_wire(wire).to_instance()])
        assert row.name == scalar.name

    def test_specs_of_problems_pack_in_order(self):
        problems = [MinEnergyProblem(graph=generators.chain(n), deadline=9.0,
                                     model=ContinuousModel())
                    for n in (3, 1, 4)]
        packer = BatchPacker()
        assert all(packer.add_problem(p) for p in problems)
        # neither a non-Continuous nor a too large problem is appended
        assert not packer.add_problem(MinEnergyProblem(
            graph=generators.chain(3), deadline=9.0,
            model=DiscreteModel(modes=(0.5, 1.0))))
        assert not packer.add_problem(MinEnergyProblem(
            graph=generators.chain(300), deadline=900.0,
            model=ContinuousModel()))
        packed = packer.build()
        assert packed.task_off.tolist() == [0, 3, 4, 8]
        assert packed.edge_off.tolist() == [0, 2, 2, 5]
        assert packed.edge_src.tolist() == [0, 1, 4, 5, 6]
        assert [packed.problem(i) for i in range(3)] == problems
