"""Tests for the vectorized batch solve path and the solve API.

Covers: the struct-of-arrays batch solver against the scalar reference on
every closed-form graph class (energies and speeds within 1e-9 over
randomized instances, alphas and slacks), the fallback routes (convex-only
graphs, s_max saturation, infeasible instances, non-continuous models),
the micro-batcher's coalescing guarantee (N concurrent submissions cost
far fewer than N ticks), the SolveRequest/SolveResponse wire envelopes,
the binary row codec (round-trip plus malformed-frame rejection), solve /
solve_batch parity across the Local, Disk and HTTP transports,
``repro solve --url``, ``repro serve`` refusing the tick knobs it no
longer has, and a malformed option coming back as a typed row while the
fast path keeps serving.
"""

from __future__ import annotations

import base64
import json
import threading
import urllib.request

import numpy as np
import pytest

from repro.api import (
    SCHEMA_VERSION,
    DiskTransport,
    HTTPTransport,
    LocalTransport,
    SolveRequest,
    SolveResponse,
    SolverClient,
    SweepRequest,
    decode_rows,
    encode_rows,
)
from repro.api.client import execute_solve
from repro.batch import BatchPacker, WireInstance, solve_batch
from repro.cli import main
from repro.core.models import ContinuousModel, DiscreteModel
from repro.core.power import CUBIC, PowerLaw
from repro.core.problem import MinEnergyProblem
from repro.graphs import generators
from repro.graphs.analysis import longest_path_length
from repro.graphs.io import graph_to_dict, graph_to_json
from repro.reliability.policy import DEADLINE_HEADER, Deadline
from repro.server import SolverHTTPServer
from repro.service import MicroBatcher, SolverService
from repro.solve import solve as scalar_solve
from repro.utils.errors import (
    InfeasibleProblemError,
    InvalidGraphError,
    InvalidOptionError,
    TransportError,
)

GRAPH_CLASSES = {
    "chain": lambda seed: generators.chain(7, seed=seed),
    "fork": lambda seed: generators.fork(6, seed=seed),
    "join": lambda seed: generators.join(6, seed=seed),
    "fork_join": lambda seed: generators.fork_join(5, seed=seed),
    "random_tree": lambda seed: generators.random_tree(14, seed=seed),
    "random_sp": lambda seed: generators.random_series_parallel(12, seed=seed),
    "layered_dag": lambda seed: generators.layered_dag(10, seed=seed),
}


def make_problem(graph, *, slack=1.6, s_max=2.0, alpha=3.0):
    # critical path at unit speed for uncapped models, else at the cap
    pace = 1.0 if s_max == float("inf") else s_max
    deadline = slack * longest_path_length(
        graph, weight=lambda n: graph.work(n) / pace)
    power = CUBIC if alpha == 3.0 else PowerLaw(alpha=alpha)
    return MinEnergyProblem(graph=graph, deadline=deadline,
                            model=ContinuousModel(s_max=s_max), power=power)


@pytest.fixture(scope="module")
def http_server(tmp_path_factory):
    transport = DiskTransport(tmp_path_factory.mktemp("solve-server-jobs"),
                              use_threads=True)
    with SolverHTTPServer(transport).start() as server:
        yield server


class TestVectorizedVsScalar:
    @pytest.mark.parametrize("alpha", [2.0, 3.0])
    @pytest.mark.parametrize("slack", [1.25, 2.5])
    def test_matches_scalar_on_every_class(self, alpha, slack):
        problems = [make_problem(build(seed), slack=slack, alpha=alpha)
                    for build in GRAPH_CLASSES.values()
                    for seed in (3, 11)]
        rows = solve_batch(problems, keep_speeds=True)
        vectorized = 0
        for problem, row in zip(problems, rows):
            reference = scalar_solve(problem)
            assert row.ok, (problem.graph.name, row.error)
            assert row.energy == pytest.approx(reference.energy, abs=1e-9,
                                               rel=1e-9)
            for task, speed in reference.speeds().items():
                assert row.speeds[task] == pytest.approx(speed, abs=1e-9,
                                                         rel=1e-9)
            vectorized += bool(row.metadata.get("vectorized"))
        # the vector path must carry real traffic; how much depends on how
        # many instances saturate the cap (those fall back per instance,
        # and the parity checks above already proved them equal)
        assert vectorized >= 1

    def test_uncapped_model_and_wire_specs(self):
        graph = generators.random_tree(16, seed=5)
        problem = make_problem(graph, s_max=float("inf"), slack=1.0)
        wire = WireInstance(graph_to_dict(graph), deadline=problem.deadline,
                            s_max=float("inf"), alpha=3.0, name="wire")
        rows = solve_batch([problem, wire], keep_speeds=True)
        reference = scalar_solve(problem)
        for row in rows:
            assert row.ok and row.metadata.get("vectorized")
            assert row.energy == pytest.approx(reference.energy, rel=1e-9)

    def test_saturated_instances_fall_back_exactly(self):
        # slack 1.05 forces speeds at/over the cap on some instances:
        # those must fall back to the scalar solver and agree with it
        problems = [make_problem(generators.fork(5, seed=s), slack=1.05,
                                 s_max=1.0) for s in range(6)]
        rows = solve_batch(problems)
        assert any(not r.metadata.get("vectorized") for r in rows if r.ok)
        for problem, row in zip(problems, rows):
            if row.ok:
                assert row.energy == pytest.approx(
                    scalar_solve(problem).energy, rel=1e-9)

    def test_infeasible_and_invalid_are_rows_not_raises(self):
        bad = MinEnergyProblem(graph=generators.chain(4),
                               deadline=1e-4, model=ContinuousModel(s_max=1.0))
        good = make_problem(generators.chain(4))
        rows = solve_batch([bad, good])
        assert not rows[0].ok
        assert rows[0].error_type == "InfeasibleProblemError"
        assert rows[1].ok

    def test_non_continuous_models_use_the_scalar_engine(self):
        graph = generators.chain(4)
        problem = MinEnergyProblem(
            graph=graph, deadline=2.0 * longest_path_length(graph),
            model=DiscreteModel(modes=(0.4, 0.7, 1.0)))
        (row,) = solve_batch([problem])
        assert row.ok and not row.metadata.get("vectorized")
        assert row.energy == pytest.approx(scalar_solve(problem).energy)

    def test_validate_reproduces_the_deadline(self):
        problem = make_problem(generators.random_tree(12, seed=2))
        (row,) = solve_batch([problem], validate=True, keep_speeds=True)
        assert row.ok and row.makespan == pytest.approx(problem.deadline)

    def test_malformed_graph_dict_is_rejected(self):
        wire = WireInstance({"tasks": {"a": 1.0},
                             "edges": [["a", "missing"]]},
                            deadline=1.0, s_max=1.0, alpha=3.0, name="bad")
        assert not BatchPacker().add(wire.graph, deadline=wire.deadline,
                                     s_max=wire.s_max, alpha=wire.alpha,
                                     name=wire.name)
        (row,) = solve_batch([wire])
        assert not row.ok and row.name == "bad"
        assert row.error_type == InvalidGraphError.__name__
        assert row.error == "unknown target task 'missing'"

    def test_spec_from_problem_round_trips_the_name(self):
        # a problem packed by add_problem keeps its name and identity
        problem = make_problem(generators.random_tree(6, seed=9))
        packer = BatchPacker()
        assert packer.add_problem(problem)
        packed = packer.build()
        assert packed.n_tasks(0) == 6
        assert packed.names == [problem.name]
        assert packed.problem(0) is problem


class TestMicroBatcherCoalescing:
    def test_concurrent_submits_share_ticks(self, tick_gate):
        problems = [make_problem(generators.random_tree(8, seed=s))
                    for s in range(40)]
        with MicroBatcher() as batcher:
            results: list = [None] * len(problems)

            def run(i):
                results[i] = batcher.solve(problems[i])

            threads = [threading.Thread(target=run, args=(i,))
                       for i in range(len(problems))]
            for t in threads:
                t.start()
            # the first tick is held with whatever was queued when the
            # thread woke; everything submitted after it queues up
            tick_gate.wait_held()
            tick_gate.wait_submitted(batcher, len(problems))
            tick_gate.release.set()
            for t in threads:
                t.join(timeout=30.0)
                assert not t.is_alive()
            stats = batcher.stats()
        assert all(r.ok for r in results)
        assert stats["submitted"] == len(problems)
        # the whole point: far fewer ticks than submissions
        assert stats["ticks"] < len(problems) / 2
        assert stats["mean_occupancy"] > 1.0
        assert stats["ticks"] == 2
        assert sum(tick_gate.sizes) == len(problems)

    def test_cancelled_submission_leaves_the_tick_thread_serving(
            self, tick_gate):
        problem = make_problem(generators.random_tree(8, seed=1))
        with MicroBatcher() as batcher:
            first = tick_gate.hold(batcher, problem)
            cancelled = batcher.submit(problem)
            assert cancelled.cancel()
            # shares the cancelled submission's tick
            same_tick = batcher.submit(problem)
            tick_gate.release.set()
            assert first.result(timeout=5.0).ok
            assert same_tick.result(timeout=5.0).ok
            assert batcher.solve(problem, timeout=5.0).ok
            assert cancelled.cancelled()
            stats = batcher.stats()
        # the held tick, the shared one, the last solve; the cancelled
        # submission never reached solve_batch
        assert stats["occupancy"] == {1: 2, 2: 1}
        assert tick_gate.sizes == [1, 1, 1]

    def test_submissions_made_during_a_tick_ride_the_next(self, tick_gate):
        problems = [make_problem(generators.random_tree(6, seed=s))
                    for s in range(10)]
        with MicroBatcher() as batcher:
            futures = [tick_gate.hold(batcher, problems[0])]
            futures += [batcher.submit(p) for p in problems[1:]]
            tick_gate.release.set()
            rows = [f.result(timeout=5.0) for f in futures]
            stats = batcher.stats()
        assert all(row.ok for row in rows)
        # one solve_batch call per tick, each draining the whole queue
        assert tick_gate.sizes == [1, 9]
        assert stats["ticks"] == 2
        assert stats["max_occupancy"] == 9
        assert set(stats) == {"ticks", "submitted", "direct_batches",
                              "occupancy", "mean_occupancy", "max_occupancy"}
        assert [row.name for row in rows] == [p.name for p in problems]

    def test_closed_batcher_rejects_submissions(self):
        batcher = MicroBatcher()
        batcher.close()
        with pytest.raises(RuntimeError):
            batcher.submit(make_problem(generators.chain(3)))

    def test_service_solve_routes_large_instances_directly(self):
        with SolverService(workers=1, use_threads=True) as service:
            small = service.solve(make_problem(generators.chain(5)))
            big = service.solve(
                make_problem(generators.random_tree(400, seed=1)))
            assert small.ok and big.ok
            stats = service.batch_stats()
            # only the small instance went through the batcher queue
            assert stats["submitted"] >= 1


class TestSolveEnvelopes:
    def test_request_round_trip(self):
        problem = make_problem(generators.random_tree(9, seed=4))
        request = SolveRequest.from_problem(problem, keep_speeds=True)
        again = SolveRequest.from_wire(
            json.loads(json.dumps(request.to_wire())))
        assert again == request
        rebuilt = again.build_problem()
        assert rebuilt.deadline == pytest.approx(problem.deadline)

    def test_request_needs_exactly_one_deadline_form(self):
        graph = graph_to_dict(generators.chain(3))
        with pytest.raises(InvalidOptionError):
            SolveRequest(graph=graph)
        with pytest.raises(InvalidOptionError):
            SolveRequest(graph=graph, deadline=1.0, slack=1.5)

    def test_request_rejects_unknown_fields(self):
        wire = SolveRequest(graph=graph_to_dict(generators.chain(3)),
                            deadline=5.0).to_wire()
        wire["surprise"] = 1
        with pytest.raises(TransportError):
            SolveRequest.from_wire(wire)

    def test_response_round_trip_and_typed_reraise(self):
        response = SolveResponse.from_failure(
            InfeasibleProblemError("too tight"), name="x", n_tasks=3)
        again = SolveResponse.from_wire(
            json.loads(json.dumps(response.to_wire())))
        with pytest.raises(InfeasibleProblemError):
            again.raise_for_error()

    def test_codec_round_trip_with_speeds(self):
        rows = [SolveResponse(ok=True, name="a", n_tasks=2, energy=1.5,
                              makespan=2.0, solver="s1", optimal=True,
                              seconds=0.01),
                SolveResponse.from_failure(ValueError("boom"), name="b"),
                SolveResponse(ok=True, name="c", n_tasks=1, energy=0.5,
                              makespan=1.0, solver="s1", optimal=True,
                              seconds=0.02)]
        frame = encode_rows(rows, speeds_vectors=[
            np.array([1.0, 2.0]), None, np.array([0.5])])
        decoded = decode_rows(json.loads(json.dumps(frame)),
                              task_names=[["t0", "t1"], None, ["u0"]])
        assert decoded[0].speeds == {"t0": 1.0, "t1": 2.0}
        assert decoded[1].error_type == "ValueError" and not decoded[1].ok
        assert decoded[2].speeds == {"u0": 0.5}
        assert [r.energy for r in decoded] == [1.5, None, 0.5]

    def test_codec_frame_of_a_mixed_row_set(self):
        nan = float("nan")
        rows = [SolveResponse(ok=True, name="a", n_tasks=2, energy=1.5,
                              makespan=2.0, solver="s2", optimal=True,
                              seconds=0.01, speeds={"t0": 1.0, "t1": 2.0}),
                SolveResponse.from_failure(ValueError("boom"), name="b",
                                           n_tasks=3),
                SolveResponse(ok=True, name="c", n_tasks=1, energy=0.5,
                              makespan=1.0, solver="s1", optimal=False,
                              lower_bound=0.25, seconds=0.02,
                              speeds={"u0": 0.5}),
                SolveResponse(ok=True, name="d", n_tasks=4, energy=3.0,
                              makespan=4.0, seconds=0.03),
                SolveResponse(ok=True, name="e", n_tasks=1, energy=1.0,
                              makespan=1.0, solver="s2", seconds=0.0),
                SolveResponse.from_failure(InvalidGraphError("cycle"),
                                           name="f")]
        task_names = [list(r.speeds) if r.speeds else None for r in rows]
        frame = encode_rows(rows, speeds_vectors=[
            None if r.speeds is None else np.array(list(r.speeds.values()))
            for r in rows])
        # the layout the frame has always had: one row-major float64 cell
        # per (row, column), None as NaN, the solver legend in first use
        matrix = np.frombuffer(base64.b64decode(frame["data"]), dtype="<f8")
        np.testing.assert_array_equal(matrix.reshape(6, 8), [
            [1.0, 2, 1.5, 2.0, 1.0, nan, 0.01, 0],
            [0.0, 3, nan, nan, nan, nan, 0.0, nan],
            [1.0, 1, 0.5, 1.0, 0.0, 0.25, 0.02, 1],
            [1.0, 4, 3.0, 4.0, nan, nan, 0.03, nan],
            [1.0, 1, 1.0, 1.0, nan, nan, 0.0, 0],
            [0.0, 0, nan, nan, nan, nan, 0.0, nan]])
        assert frame["solvers"] == ["s2", "s1"]
        assert frame["names"] == ["a", "b", "c", "d", "e", "f"]
        assert frame["errors"] == [[1, "ValueError", "boom"],
                                   [5, "InvalidGraphError", "cycle"]]
        decoded = decode_rows(json.loads(json.dumps(frame)),
                              task_names=task_names)
        assert decoded == rows
        empty = encode_rows([])
        assert empty["count"] == 0 and decode_rows(empty) == []

    @pytest.mark.parametrize("mutate", [
        lambda f: f.update(kind="nope"),
        lambda f: f.update(columns=["ok"]),
        lambda f: f.update(data="@@@not-base64@@@"),
        lambda f: f.update(count=99),
    ])
    def test_codec_rejects_malformed_frames(self, mutate):
        frame = encode_rows([SolveResponse(ok=True, name="a", n_tasks=1,
                                           energy=1.0, makespan=1.0,
                                           solver="s", seconds=0.0)])
        mutate(frame)
        with pytest.raises(TransportError):
            decode_rows(frame)


class TestTransportParity:
    @pytest.fixture
    def make_client(self, tmp_path, http_server):
        opened = []

        def build(kind: str) -> SolverClient:
            if kind == "local":
                client = SolverClient(LocalTransport(workers=1,
                                                     use_threads=True))
            elif kind == "disk":
                client = SolverClient(DiskTransport(tmp_path / "jobs",
                                                    use_threads=True))
            else:
                client = SolverClient(HTTPTransport(http_server.url))
            opened.append(client)
            return client

        yield build
        for client in opened:
            client.close()

    @pytest.mark.parametrize("kind", ["local", "disk", "http"])
    def test_solve_matches_the_scalar_reference(self, make_client, kind):
        client = make_client(kind)
        for name in ("random_tree", "layered_dag"):  # vector + convex routes
            problem = make_problem(GRAPH_CLASSES[name](seed=8))
            response = client.solve(problem)
            reference = scalar_solve(problem)
            assert response.ok
            assert response.energy == pytest.approx(reference.energy,
                                                    rel=1e-9)
            assert response.speeds and len(response.speeds) == \
                problem.graph.n_tasks

    @pytest.mark.parametrize("kind", ["local", "disk", "http"])
    def test_solve_batch_is_transport_identical(self, make_client, kind):
        problems = [make_problem(build(seed))
                    for build in GRAPH_CLASSES.values() for seed in (1, 2)]
        client = make_client(kind)
        rows = client.solve_batch(problems, keep_speeds=True)
        assert len(rows) == len(problems)
        for problem, row in zip(problems, rows):
            reference = scalar_solve(problem)
            assert row.ok, (kind, problem.graph.name, row.error)
            assert row.energy == pytest.approx(reference.energy, rel=1e-9)
            for task, speed in reference.speeds().items():
                assert row.speeds[task] == pytest.approx(speed, abs=1e-9,
                                                         rel=1e-9)

    @pytest.mark.parametrize("kind", ["local", "disk", "http"])
    def test_batch_errors_are_rows_and_solo_errors_raise(self, make_client,
                                                         kind):
        client = make_client(kind)
        bad = MinEnergyProblem(graph=generators.chain(4), deadline=1e-4,
                               model=ContinuousModel(s_max=1.0))
        good = make_problem(generators.chain(4))
        rows = client.solve_batch([bad, good])
        assert not rows[0].ok
        assert rows[0].error_type == "InfeasibleProblemError"
        assert rows[1].ok and rows[1].speeds is None
        with pytest.raises(InfeasibleProblemError):
            client.solve(bad)

    def test_http_batch_coalesces_concurrent_singles(self, http_server):
        client = SolverClient(HTTPTransport(http_server.url))
        problems = [make_problem(generators.random_tree(8, seed=s))
                    for s in range(24)]
        before = json.loads(__import__("urllib.request", fromlist=["request"])
                            .urlopen(http_server.url + "/v1/batch_stats")
                            .read())
        results: list = [None] * len(problems)

        def run(i):
            results[i] = client.solve(problems[i])

        threads = [threading.Thread(target=run, args=(i,))
                   for i in range(len(problems))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        after = json.loads(__import__("urllib.request", fromlist=["request"])
                           .urlopen(http_server.url + "/v1/batch_stats")
                           .read())
        assert all(r.ok for r in results)
        assert after["submitted"] - before["submitted"] >= len(problems)
        assert after["ticks"] - before["ticks"] < len(problems)


# --------------------------------------------------------------------- #
# a malformed option is a typed row, never a dead tick thread
# --------------------------------------------------------------------- #
#: Option values a JSON body can carry that are not hashable.  Grouping
#: requests by such a value raises in the micro-batcher's tick thread,
#: which then strands that request and every later single solve.
MALFORMED_OPTIONS = {"json-list": {"tol": [1e-6]},
                     "json-object": {"tol": {"value": 1e-6}}}

#: Every wait below is bounded, so a stuck fast path fails the test
#: instead of hanging it; the deadline header also frees the server's
#: handler threads, so the server still shuts down.
CLIENT_TIMEOUT = 5.0
SERVER_BUDGET = "4"


def _tree_request(options=None) -> SolveRequest:
    problem = make_problem(generators.random_tree(8, seed=3),
                           s_max=float("inf"), slack=1.5)
    return SolveRequest.from_problem(problem, options=options)


def _post(url: str, path: str, body: dict) -> tuple[int, dict]:
    request = urllib.request.Request(
        f"{url}/v1{path}", data=json.dumps(body).encode("utf-8"),
        method="POST", headers={"Content-Type": "application/json",
                                DEADLINE_HEADER: SERVER_BUDGET})
    with urllib.request.urlopen(request, timeout=CLIENT_TIMEOUT) as response:
        return response.status, json.loads(response.read())


class TestMalformedOptions:
    @pytest.mark.parametrize("options", MALFORMED_OPTIONS.values(),
                             ids=MALFORMED_OPTIONS.keys())
    def test_in_process_fast_path_answers_and_survives(self, options):
        with SolverService(workers=1, use_threads=True) as service:
            bad = execute_solve(service, _tree_request(options),
                                deadline=Deadline.after(CLIENT_TIMEOUT))
            assert not bad.ok
            assert bad.error_type == "UnknownOptionError"
            for _ in range(3):
                good = execute_solve(service, _tree_request(),
                                     deadline=Deadline.after(CLIENT_TIMEOUT))
                assert good.ok, good.error
            assert service.batcher()._thread.is_alive()

    @pytest.mark.parametrize("options", MALFORMED_OPTIONS.values(),
                             ids=MALFORMED_OPTIONS.keys())
    def test_http_server_answers_and_keeps_serving(self, options):
        transport = LocalTransport(workers=1, use_threads=True)
        with SolverHTTPServer(transport, max_inflight=2).start() as server:
            status, bad = _post(server.url, "/solve",
                                _tree_request(options).to_wire())
            assert status == 200
            assert bad["ok"] is False
            assert bad["error_type"] == "UnknownOptionError"
            for _ in range(3):
                status, good = _post(server.url, "/solve",
                                     _tree_request().to_wire())
                assert status == 200 and good["ok"], good
            sweep = SweepRequest(graph_classes=("chain",), sizes=(4,),
                                 slacks=(1.5,), name="after-bad-option")
            status, record = _post(server.url, "/jobs", sweep.to_wire())
            assert status == 200 and record["job_id"]
            assert server.solver.batcher()._thread.is_alive()

    @pytest.mark.parametrize("options", MALFORMED_OPTIONS.values(),
                             ids=MALFORMED_OPTIONS.keys())
    def test_solve_batch_answers_with_a_typed_row(self, options,
                                                  http_server):
        status, frame = _post(http_server.url, "/solve_batch", {
            "schema_version": SCHEMA_VERSION,
            "requests": [_tree_request(options).to_wire(),
                         _tree_request().to_wire()],
            "keep_speeds": False})
        assert status == 200
        bad, good = decode_rows(frame)
        assert not bad.ok and bad.error_type == "UnknownOptionError"
        assert good.ok


class TestSolveCLI:
    @pytest.fixture
    def graph_file(self, tmp_path):
        path = tmp_path / "tree.json"
        path.write_text(graph_to_json(generators.random_tree(10, seed=6)))
        return path

    def test_solve_url_matches_local(self, graph_file, http_server, capsys):
        assert main(["solve", str(graph_file), "--slack", "1.5"]) == 0
        local = json.loads(capsys.readouterr().out)
        assert main(["solve", str(graph_file), "--slack", "1.5",
                     "--url", http_server.url]) == 0
        remote = json.loads(capsys.readouterr().out)
        assert remote == local
        assert remote["energy"] == pytest.approx(local["energy"])
        assert len(remote["speeds"]) == 10

    @pytest.mark.parametrize("flag", ["--batch-max", "--batch-window-ms"])
    def test_retired_serve_flags_exit_2(self, flag, capsys):
        # a tick drains the whole queue as soon as it is not empty: serve
        # has neither a tick cap nor a coalescing window to set
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", flag, "4"])
        assert exit_info.value.code == 2
        assert flag in capsys.readouterr().err
