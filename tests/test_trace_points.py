"""The entry points ``perfbench``'s traced runs patch, pinned in tier-1.

A traced benchmark run (``perfbench/run.py --trace 1``) measures each
layer by replacing an entry point where its caller looks it up: a class
attribute read through ``vars(owner)[name]`` (a classmethod is unwrapped
and re-wrapped) or a module global.  When a refactor moves one, the
patch either fails or, worse, lands on a name nothing calls any more and
the layer silently reads 0.  These tests fail first: every patch point
must resolve, and a call through each route must reach it.
"""

from __future__ import annotations

import functools
import json
import sys
import urllib.request
from collections import Counter

import pytest

import repro.batch.sweep  # noqa: F401  (repro.batch.sweep is the function)
import repro.continuous.solve  # noqa: F401
import repro.continuous.sparse  # noqa: F401
import repro.modeling.backends.mehrotra  # noqa: F401
import repro.server.http as server_http
import repro.service.batcher as batcher_module
import repro.service.service as service_module
from repro.api import SCHEMA_VERSION, LocalTransport, SolveRequest, SolveResponse
from repro.api.rowcodec import encode_rows
from repro.batch import sweep
from repro.batch.vectorized import solve_batch
from repro.cache import ResultCache, memory_cache
from repro.core.models import ContinuousModel
from repro.core.problem import MinEnergyProblem
from repro.graphs import generators
from repro.graphs.analysis import longest_path_length
from repro.graphs.io import graph_to_dict
from repro.modeling import BACKENDS
from repro.modeling.model import ConvexModel
from repro.server import SolverHTTPServer
from repro.service import MicroBatcher
from repro.solve import solve

#: (owner, attribute) of every serve-workload patch point
#: (``perfbench.serve_load.install_server_probes``).
SERVE_POINTS = [
    (server_http._Handler, "do_POST"),
    (SolveRequest, "from_wire"),
    (SolveRequest, "to_instance"),
    (SolveResponse, "from_result"),
    (server_http, "encode_rows"),
    (service_module, "solve_batch"),
    (batcher_module, "solve_batch"),
    (MicroBatcher, "submit"),
]

#: ... of the library workloads (``install_sweep_probes`` and
#: ``install_sparse_probes`` in ``perfbench.library_load``).
LIBRARY_POINTS = [
    (sys.modules["repro.batch.sweep"], "plan_sweep"),
    (ResultCache, "get"),
    (ResultCache, "put"),
    (sys.modules["repro.continuous.solve"], "solve_general_convex_sparse"),
    (sys.modules["repro.continuous.sparse"], "prune_redundant_edges"),
    (ConvexModel, "materialize"),
    (sys.modules["repro.modeling.backends.mehrotra"], "splu"),
]


def _label(point) -> str:
    owner, attr = point
    return f"{getattr(owner, '__name__', owner)}.{attr}"


@pytest.mark.parametrize("point", SERVE_POINTS + LIBRARY_POINTS, ids=_label)
def test_patch_point_resolves(point):
    owner, attr = point
    raw = vars(owner)[attr]  # defined right there, not inherited
    assert callable(raw.__func__ if isinstance(raw, classmethod) else raw)


def test_the_patched_kinds_and_module_globals():
    assert isinstance(vars(SolveRequest)["from_wire"], classmethod)
    assert isinstance(vars(SolveResponse)["from_result"], classmethod)
    # the serve layers are patched on the module that calls them
    assert server_http.encode_rows is encode_rows
    assert service_module.solve_batch is solve_batch
    assert batcher_module.solve_batch is solve_batch
    # the sparse probe re-registers the IPM from its registry entry
    entry = BACKENDS.resolve("mehrotra-ipm")
    for field in ("name", "kinds", "options", "probe", "optional", "doc",
                  "fn"):
        assert hasattr(entry, field), field


@pytest.fixture
def calls(monkeypatch):
    """Count calls through every patch point, replaced the way the traced
    run replaces them (restored afterwards)."""
    counts: Counter[str] = Counter()

    def counting(name, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    for point in SERVE_POINTS + LIBRARY_POINTS:
        owner, attr = point
        raw = vars(owner)[attr]
        if isinstance(raw, classmethod):
            replacement = classmethod(counting(_label(point), raw.__func__))
        else:
            replacement = counting(_label(point), raw)
        monkeypatch.setattr(owner, attr, replacement)
    return counts


def _tree_wire(seed: int) -> dict:
    graph = generators.random_tree(8, seed=seed)
    return SolveRequest(graph=graph_to_dict(graph),
                        deadline=2.0 * longest_path_length(graph),
                        s_max=None, name=f"tree-{seed}").to_wire()


def _post(url: str, path: str, body: dict) -> dict:
    request = urllib.request.Request(
        url + path, data=json.dumps(body).encode(), method="POST",
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(request, timeout=30) as response:
        assert response.status == 200
        return json.loads(response.read())


def test_the_serve_routes_reach_their_patch_points(calls):
    transport = LocalTransport(workers=1, use_threads=True)
    with SolverHTTPServer(transport).start() as server:
        _post(server.url, "/v1/solve_batch", {
            "schema_version": SCHEMA_VERSION,
            "requests": [_tree_wire(s) for s in range(6)]})
        batch_calls = Counter(calls)
        _post(server.url, "/v1/solve", _tree_wire(7))
    singles = calls - batch_calls
    # the batch route: one direct call of the vector core, whose rows the
    # probe reads the vectorized flag off, and one frame encode
    assert batch_calls["_Handler.do_POST"] == 1
    assert batch_calls["repro.service.service.solve_batch"] == 1
    assert batch_calls["repro.server.http.encode_rows"] == 1
    assert batch_calls["SolveRequest.from_wire"] == 6
    # the single route: queued on the micro-batcher, solved in a tick
    assert singles["MicroBatcher.submit"] == 1
    assert singles["repro.service.batcher.solve_batch"] == 1
    assert singles["SolveRequest.to_instance"] == 1
    assert singles["SolveResponse.from_result"] == 1


def test_the_library_routes_reach_their_patch_points(calls):
    sweep(graph_classes=("chain",), sizes=(6,), slacks=(1.5,),
          repetitions=2, seed=3, cache=memory_cache())
    assert calls["repro.batch.sweep.plan_sweep"] == 1
    assert calls["ResultCache.get"] >= 1 and calls["ResultCache.put"] >= 1
    graph = generators.layered_dag(40, seed=4)
    problem = MinEnergyProblem(graph=graph,
                               deadline=1.5 * longest_path_length(graph),
                               model=ContinuousModel(s_max=1.0))
    assert solve(problem).solver == "continuous-convex-sparse"
    for name in ("repro.continuous.solve.solve_general_convex_sparse",
                 "repro.continuous.sparse.prune_redundant_edges",
                 "ConvexModel.materialize",
                 "repro.modeling.backends.mehrotra.splu"):
        assert calls[name] >= 1, name
