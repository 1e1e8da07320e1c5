"""Shared pytest fixtures and an import fallback for non-installed checkouts."""

from __future__ import annotations

import pathlib
import sys
import threading
import time

# Allow running the test suite from a fresh checkout without installation
# (e.g. in offline environments where `pip install -e .` is unavailable).
_SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    try:
        import repro  # noqa: F401
    except ImportError:  # pragma: no cover - only hit without installation
        sys.path.insert(0, str(_SRC))

import pytest

from repro.core.models import ContinuousModel, DiscreteModel, IncrementalModel, VddHoppingModel
from repro.core.problem import MinEnergyProblem
from repro.graphs import generators


@pytest.fixture
def small_fork():
    """A 4-leaf fork graph with fixed weights (Theorem 1 shape)."""
    return generators.fork(4, source_work=2.0, works=[1.0, 2.0, 3.0, 4.0])


@pytest.fixture
def small_chain():
    """A 5-task chain with fixed weights."""
    return generators.chain(5, works=[1.0, 2.0, 3.0, 2.0, 1.0])


@pytest.fixture
def small_sp_graph():
    """A deterministic series-parallel graph with 10 tasks."""
    return generators.random_series_parallel(10, seed=42)


@pytest.fixture
def small_layered_dag():
    """A deterministic layered DAG with 12 tasks (not series-parallel in general)."""
    return generators.layered_dag(12, seed=7)


@pytest.fixture
def four_modes():
    """A small irregular mode set."""
    return (0.4, 0.7, 0.8, 1.0)


@pytest.fixture
def continuous_model():
    return ContinuousModel(s_max=1.0)


@pytest.fixture
def discrete_model(four_modes):
    return DiscreteModel(modes=four_modes)


@pytest.fixture
def vdd_model(four_modes):
    return VddHoppingModel(modes=four_modes)


@pytest.fixture
def incremental_model():
    return IncrementalModel.from_range(0.2, 1.0, 0.2)


@pytest.fixture
def layered_problem(small_layered_dag):
    """A Continuous problem on the layered DAG with 50% deadline slack."""
    from repro.graphs.analysis import longest_path_length

    min_makespan = longest_path_length(small_layered_dag)
    return MinEnergyProblem(graph=small_layered_dag, deadline=1.5 * min_makespan,
                            model=ContinuousModel(s_max=1.0))


class TickGate:
    """Stands in for the micro-batcher's ``solve_batch`` and holds its
    first call until :attr:`release` is set.

    While the first tick is held the tick thread cannot drain, so every
    submission made meanwhile is queued for the next tick: tests decide
    what shares a tick without depending on timing.  :attr:`sizes`
    records the instances of every ``solve_batch`` call.
    """

    def __init__(self, solve_batch) -> None:
        self._solve_batch = solve_batch
        self.held = threading.Event()
        self.release = threading.Event()
        self.sizes: list[int] = []

    def __call__(self, items, **kwargs):
        self.sizes.append(len(items))
        if len(self.sizes) == 1:
            self.held.set()
            assert self.release.wait(30.0), "the held tick was never released"
        return self._solve_batch(items, **kwargs)

    def hold(self, batcher, item):
        """Submit ``item`` and return its future once its tick is held."""
        future = batcher.submit(item)
        self.wait_held()
        return future

    def wait_held(self) -> None:
        assert self.held.wait(30.0), "no tick reached solve_batch"

    @staticmethod
    def wait_submitted(batcher, count: int) -> None:
        """Block until ``batcher`` has taken ``count`` submissions."""
        give_up = time.monotonic() + 30.0
        while batcher.stats()["submitted"] < count:
            assert time.monotonic() < give_up, "submissions never arrived"
            time.sleep(0.001)


@pytest.fixture
def tick_gate(monkeypatch):
    """A :class:`TickGate` patched in where the tick thread looks up
    ``solve_batch``; released at teardown so no tick thread stays held."""
    import repro.service.batcher as batcher

    gate = TickGate(batcher.solve_batch)
    monkeypatch.setattr(batcher, "solve_batch", gate)
    yield gate
    gate.release.set()
