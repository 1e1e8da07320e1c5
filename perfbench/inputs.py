"""Every input the benchmark sends, derived from the workload seed.

Each generator takes ``(seed, stream, index)``: the *stream* keeps the timed
instances, the warm-up and the check sample apart, so no instance repeats
within a run even when a workload seed equals :data:`CHECK_SEED`.  The
check sample always uses :data:`CHECK_SEED`, so every run solves the same
check instances and ``energy_ratio`` repeats exactly.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
from repro.api.protocol import SCHEMA_VERSION

#: Streams of :func:`derive` / :func:`tree_block`.
TIMED, WARMUP, CHECK = 0, 1, 2

#: Seed of the fixed check sample every run solves.
CHECK_SEED = 2011

#: Relative tolerance of every answer check: the floating-point slack of
#: the lower-bound test and the vector core's parity with the scalar path.
RTOL = 1e-9

#: Tasks per serve instance: small trees, the vector core's fast path.
TREE_TASKS = 8

#: Instances per ``/v1/solve_batch`` request.
BATCH_SIZE = 512

#: ``large_dag``'s shapes, solved alternately: (graph class, tasks).  At
#: twice these sizes a run holds only 3-4 pairs, and its rate spread about
#: twice as much from run to run on the same host.
LARGE_SHAPES = (("layered", 1000), ("erdos", 500))

#: ``large_dag``'s check sample: the same shapes at half size.
LARGE_CHECK_SHAPES = (("layered", 500), ("erdos", 250))

LARGE_SLACK = 1.5
LARGE_S_MAX = 1.0

#: ``sweep_grid``'s grid: both sizes straddle the 64-task dense/sparse
#: dispatch threshold of ``solve_continuous``, so Erdős graphs take the dense
#: route at 24 tasks and ``convex-sparse`` at 96.  240 instances per pass.
#: A benchmark run must not fail, and ``convex-sparse``'s KKT factor comes
#: out singular for about one uncapped 96-task layered graph in a thousand
#: (and, under ``s_max`` 1.0, for a tight 96-task tree that falls back to
#: it), so the grid is uncapped and has no layered graphs.
SWEEP_GRID = dict(
    graph_classes=("chain", "fork", "tree", "series_parallel", "erdos"),
    sizes=(24, 96), slacks=(1.2, 2.0), repetitions=12, s_max=float("inf"))


def derive(seed: int, stream: int, index: int) -> int:
    """A 31-bit seed for item ``index`` of ``stream`` under ``seed``."""
    return int(np.random.default_rng([seed, stream, index])
               .integers(0, 2**31 - 1))


class TreeBlock(NamedTuple):
    """``count`` random out-trees of :data:`TREE_TASKS` tasks, as arrays."""

    names: list[str]
    works: np.ndarray  # (count, TREE_TASKS)
    parents: np.ndarray  # (count, TREE_TASKS); parents[:, 0] == -1
    deadlines: np.ndarray  # (count,)


def tree_block(seed: int, stream: int, index: int, count: int) -> TreeBlock:
    """Block ``index`` of ``stream``: uncapped trees with distinct works.

    Task ``i`` hangs under a uniformly drawn earlier task, works are
    uniform in [1, 10) and each deadline is a uniform [1.2, 2) slack times
    the instance's unit-speed critical path.
    """
    rng = np.random.default_rng([seed, stream, index])
    works = rng.uniform(1.0, 10.0, size=(count, TREE_TASKS))
    parents = np.full((count, TREE_TASKS), -1, dtype=np.int64)
    for i in range(1, TREE_TASKS):
        parents[:, i] = rng.integers(0, i, size=count)
    slack = rng.uniform(1.2, 2.0, size=count)
    deadlines = slack * _finish_times(works, parents).max(axis=1)
    names = [f"s{stream}b{index}i{j}" for j in range(count)]
    return TreeBlock(names, works, parents, deadlines)


def _finish_times(works: np.ndarray, parents: np.ndarray) -> np.ndarray:
    """Unit-speed finish time of every task (parents precede children)."""
    rows = np.arange(works.shape[0])
    finish = works.copy()
    for i in range(1, works.shape[1]):
        finish[:, i] += finish[rows, parents[:, i]]
    return finish


def tree_lower_bounds(block: TreeBlock) -> np.ndarray:
    """``critical_path_lower_bound`` of every instance (alpha = 3).

    The heaviest path of work ``L`` costs at least ``L**3 / D**2`` and
    every task off it at least ``w**3 / D**2``.  Vectorised so every answer
    of a run can be checked; the check sample compares it with
    :func:`repro.continuous.bounds.critical_path_lower_bound`.
    """
    works, parents = block.works, block.parents
    rows = np.arange(works.shape[0])
    finish = _finish_times(works, parents)
    node = finish.argmax(axis=1)
    length = finish[rows, node]
    on_path = np.zeros(works.shape, dtype=bool)
    for _ in range(works.shape[1]):
        live = node >= 0
        on_path[rows[live], node[live]] = True
        node[live] = parents[rows[live], node[live]]
    off_path = np.where(on_path, 0.0, works ** 3).sum(axis=1)
    return (length ** 3 + off_path) / block.deadlines ** 2


_TASK_FIELDS = ",".join(f'"T{i + 1}":%r' for i in range(TREE_TASKS))
_EDGE_FIELDS = ",".join(f'["T%d","T{i + 1}"]' for i in range(1, TREE_TASKS))
_INSTANCE = ('{"schema_version":%d,"name":"%%s","model":"continuous",'
             '"s_max":null,"alpha":3.0,"deadline":%%r,"graph":{"name":"tree",'
             '"tasks":{' % SCHEMA_VERSION
             + _TASK_FIELDS + '},"edges":[' + _EDGE_FIELDS + ']}}')


def instance_payloads(block: TreeBlock) -> list[str]:
    """One ``SolveRequest`` wire object (JSON text) per instance."""
    works = block.works.tolist()
    parents = (block.parents[:, 1:] + 1).tolist()
    return [_INSTANCE % (name, deadline, *w, *p) for name, deadline, w, p
            in zip(block.names, block.deadlines.tolist(), works, parents)]


def batch_body(block: TreeBlock) -> bytes:
    """A ``/v1/solve_batch`` request body holding the whole block."""
    return ('{"schema_version":%d,"keep_speeds":false,"requests":['
            % SCHEMA_VERSION + ",".join(instance_payloads(block))
            + "]}").encode()


def large_problem(graph_class: str, n_tasks: int, seed: int):
    """A general DAG at ``large_dag``'s slack and speed cap."""
    from repro.core.models import ContinuousModel
    from repro.experiments.workloads import WorkloadSpec, make_workload

    spec = WorkloadSpec(graph_class=graph_class, n_tasks=n_tasks,
                        n_processors=0, mapping="none", slack=LARGE_SLACK,
                        s_max=LARGE_S_MAX, seed=seed)
    return make_workload(spec, model=ContinuousModel(s_max=LARGE_S_MAX))
