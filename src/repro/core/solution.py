"""Speed assignments, schedules and solver results.

Two kinds of assignments exist:

* :class:`SpeedAssignment` — one constant speed per task, used by the
  Continuous, Discrete and Incremental models;
* :class:`HoppingAssignment` — an ordered list of ``(speed, duration)``
  segments per task, used by the Vdd-Hopping model where the speed may
  change during a task.

Both expose the same interface (per-task duration, per-task energy, total
energy), so the schedule construction, validation and simulation layers do
not care which model produced them.  A :class:`Solution` bundles an
assignment with the problem it solves, the resulting schedule (ASAP start
and finish times), the energy value and solver metadata.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

import numpy as np

from repro.core.power import PowerLaw, CUBIC
from repro.core.problem import MinEnergyProblem
from repro.graphs.taskgraph import GraphIndex, TaskGraph
from repro.utils.errors import InvalidSolutionError
from repro.utils.numerics import is_close


@dataclass(frozen=True)
class SpeedAssignment:
    """A constant speed for every task.

    Attributes
    ----------
    speeds:
        Mapping from task name to its (strictly positive) execution speed.
    """

    speeds: Mapping[str, float]

    def __post_init__(self) -> None:
        for name, s in self.speeds.items():
            if not s > 0:
                raise InvalidSolutionError(
                    f"task {name!r} has non-positive speed {s}"
                )

    def speed(self, task: str) -> float:
        """Speed of ``task``."""
        return self.speeds[task]

    def duration(self, task: str, work: float) -> float:
        """Execution time of ``task`` given its ``work``."""
        return work / self.speeds[task]

    def speeds_vector(self, graph: TaskGraph) -> np.ndarray:
        """Dense speed vector aligned with ``graph.index().names``."""
        return graph.index().vector_of(self.speeds)

    def durations_vector(self, graph: TaskGraph) -> np.ndarray:
        """Dense duration vector (``work / speed``) aligned with the index."""
        idx = graph.index()
        return idx.works / idx.vector_of(self.speeds)

    def durations(self, graph: TaskGraph) -> dict[str, float]:
        """Per-task execution times for the given graph."""
        return graph.index().mapping_of(self.durations_vector(graph))

    def energy(self, graph: TaskGraph, power: PowerLaw = CUBIC) -> float:
        """Total dynamic energy of the assignment on ``graph``.

        Vectorized over the graph index: ``sum_i w_i * s_i**(alpha - 1)``
        (speeds are validated strictly positive at construction, so the
        closed form matches :meth:`PowerLaw.energy_for_work` task by task).
        """
        idx = graph.index()
        speeds = idx.vector_of(self.speeds)
        return float(np.dot(idx.works, speeds ** (power.alpha - 1.0)))

    def task_energy(self, task: str, work: float, power: PowerLaw = CUBIC) -> float:
        """Energy of a single task."""
        return power.energy_for_work(work, self.speeds[task])

    def tasks(self) -> list[str]:
        """Names of the tasks covered by the assignment."""
        return list(self.speeds.keys())

    def scaled(self, factor: float) -> "SpeedAssignment":
        """Return a new assignment with every speed multiplied by ``factor``."""
        if factor <= 0:
            raise InvalidSolutionError("scaling factor must be strictly positive")
        return SpeedAssignment({n: s * factor for n, s in self.speeds.items()})


@dataclass(frozen=True)
class HoppingAssignment:
    """A per-task sequence of ``(speed, time)`` execution segments.

    Used by the Vdd-Hopping model: a task may run part of its work at one
    mode and the rest at another.  Each segment is a pair
    ``(speed, duration)`` with a strictly positive speed and non-negative
    duration; the work executed by a segment is ``speed * duration``.
    """

    segments: Mapping[str, Sequence[tuple[float, float]]]

    def __post_init__(self) -> None:
        for name, segs in self.segments.items():
            if not segs:
                raise InvalidSolutionError(f"task {name!r} has no execution segment")
            for speed, time in segs:
                if not speed > 0:
                    raise InvalidSolutionError(
                        f"task {name!r} has a segment with non-positive speed {speed}"
                    )
                if time < 0:
                    raise InvalidSolutionError(
                        f"task {name!r} has a segment with negative duration {time}"
                    )

    def duration(self, task: str, work: float | None = None) -> float:
        """Total execution time of ``task`` (sum of its segment durations)."""
        return sum(t for _s, t in self.segments[task])

    def executed_work(self, task: str) -> float:
        """Work executed by the segments of ``task``."""
        return sum(s * t for s, t in self.segments[task])

    def durations(self, graph: TaskGraph) -> dict[str, float]:
        """Per-task execution times."""
        return {n: self.duration(n) for n in graph.task_names()}

    def energy(self, graph: TaskGraph, power: PowerLaw = CUBIC) -> float:
        """Total dynamic energy: sum over segments of ``P(s) * t``."""
        total = 0.0
        for n in graph.task_names():
            for s, t in self.segments[n]:
                total += power.energy(s, t)
        return total

    def task_energy(self, task: str, work: float | None = None,
                    power: PowerLaw = CUBIC) -> float:
        """Energy of a single task."""
        return sum(power.energy(s, t) for s, t in self.segments[task])

    def tasks(self) -> list[str]:
        """Names of the tasks covered by the assignment."""
        return list(self.segments.keys())

    def average_speeds(self) -> dict[str, float]:
        """Work-weighted average speed of every task (``work / duration``)."""
        out: dict[str, float] = {}
        for n, segs in self.segments.items():
            total_time = sum(t for _s, t in segs)
            total_work = sum(s * t for s, t in segs)
            out[n] = total_work / total_time if total_time > 0 else float("inf")
        return out

    @classmethod
    def from_constant_speeds(cls, assignment: SpeedAssignment,
                             graph: TaskGraph) -> "HoppingAssignment":
        """Lift a constant-speed assignment into the hopping representation."""
        segments = {
            n: [(assignment.speed(n), assignment.duration(n, graph.work(n)))]
            for n in graph.task_names()
        }
        return cls(segments=segments)


Assignment = SpeedAssignment | HoppingAssignment


@dataclass(frozen=True)
class Schedule:
    """Start and finish times of every task (as-soon-as-possible execution)."""

    start: Mapping[str, float]
    finish: Mapping[str, float]

    @property
    def makespan(self) -> float:
        """Latest finish time (0 for an empty schedule)."""
        return max(self.finish.values(), default=0.0)

    def task_interval(self, task: str) -> tuple[float, float]:
        """``(start, finish)`` of a task."""
        return self.start[task], self.finish[task]


def asap_times(idx: GraphIndex, durations: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized ASAP start/finish times over a graph index.

    Wide graphs are processed one whole level at a time with
    ``np.maximum.at`` over the level's incoming edges; for deep, narrow
    graphs (many levels relative to the task count) the per-level NumPy
    dispatch overhead would dominate, so a flat pass over the CSR arrays is
    used instead.  Both paths are O(n + m) and recursion-free.
    """
    n = idx.n_tasks
    start = np.zeros(n)
    finish = np.zeros(n)
    if n == 0:
        return start, finish
    n_levels = idx.n_levels
    if n_levels * 4 <= n:
        # level-batched: every task of a level starts after the max finish
        # of its in-edges, all applied in one scatter per level
        order_by_level, level_ptr = idx.order_by_level, idx.level_ptr
        edge_src, edge_dst, edge_level_ptr = idx.edge_src, idx.edge_dst, idx.edge_level_ptr
        first = order_by_level[level_ptr[0]:level_ptr[1]]
        finish[first] = durations[first]
        for lv in range(1, n_levels):
            e0, e1 = edge_level_ptr[lv], edge_level_ptr[lv + 1]
            np.maximum.at(start, edge_dst[e0:e1], finish[edge_src[e0:e1]])
            nodes = order_by_level[level_ptr[lv]:level_ptr[lv + 1]]
            finish[nodes] = start[nodes] + durations[nodes]
        return start, finish
    # deep graph: flat CSR pass on Python lists (no per-step NumPy dispatch)
    pred_ptr = idx.pred_ptr.tolist()
    pred_idx = idx.pred_idx.tolist()
    dur = durations.tolist()
    s_list = [0.0] * n
    f_list = [0.0] * n
    for u in idx.topo_order.tolist():
        lo, hi = pred_ptr[u], pred_ptr[u + 1]
        s = 0.0
        for p in pred_idx[lo:hi]:
            fp = f_list[p]
            if fp > s:
                s = fp
        s_list[u] = s
        f_list[u] = s + dur[u]
    return np.asarray(s_list), np.asarray(f_list)


def tail_times(idx: GraphIndex, durations: np.ndarray) -> np.ndarray:
    """Longest duration path from each task to a sink, *excluding* itself.

    The backward mirror of the ASAP start times: ``start[i] + durations[i]
    + tail[i]`` is the longest schedule path through task ``i``, so the
    makespan after changing only ``durations[i]`` is
    ``max(old makespan, start[i] + new_duration + tail[i])`` — an O(1)
    feasibility probe.  One flat reverse pass over the CSR arrays.
    """
    n = idx.n_tasks
    succ_ptr = idx.succ_ptr.tolist()
    succ_idx = idx.succ_idx.tolist()
    dur = durations.tolist()
    tail = [0.0] * n
    for u in reversed(idx.topo_order.tolist()):
        best = 0.0
        for v in succ_idx[succ_ptr[u]:succ_ptr[u + 1]]:
            candidate = dur[v] + tail[v]
            if candidate > best:
                best = candidate
        tail[u] = best
    return np.asarray(tail)


def compute_makespan(graph: TaskGraph, durations: Mapping[str, float] | np.ndarray) -> float:
    """Makespan of the ASAP schedule without materialising per-task dicts.

    ``durations`` may be a per-task mapping or a dense vector in the order
    of ``graph.index().names``.  This is the fast path used by feasibility
    probes that only need the latest finish time (convex-solver line
    searches, greedy reclamation, batch sweeps).
    """
    idx = graph.index()
    if not isinstance(durations, np.ndarray):
        durations = idx.vector_of(durations)
    _start, finish = asap_times(idx, durations)
    return float(finish.max()) if idx.n_tasks else 0.0


def compute_schedule(graph: TaskGraph, durations: Mapping[str, float] | np.ndarray) -> Schedule:
    """ASAP schedule of ``graph`` for the given per-task durations.

    Every task starts as soon as all of its predecessors have finished; the
    result is the canonical schedule used for feasibility checking (it
    minimises every completion time simultaneously, so if it misses the
    deadline no other schedule with the same durations can meet it).

    ``durations`` may be a mapping or a dense vector aligned with
    ``graph.index().names``; the propagation itself runs on the graph's
    integer index (see :func:`asap_times`) rather than per-task dicts.
    """
    idx = graph.index()
    if not isinstance(durations, np.ndarray):
        durations = idx.vector_of(durations)
    start_v, finish_v = asap_times(idx, durations)
    start = {name: float(start_v[i]) for i, name in enumerate(idx.names)}
    finish = {name: float(finish_v[i]) for i, name in enumerate(idx.names)}
    return Schedule(start=start, finish=finish)


@dataclass
class Solution:
    """The result of a solver run.

    Attributes
    ----------
    problem:
        The instance that was solved.
    assignment:
        The speed (or hopping) assignment.
    energy:
        Total dynamic energy of the assignment (cached; recomputable from
        the assignment).
    schedule:
        ASAP schedule induced by the assignment's durations.
    solver:
        Name of the algorithm that produced the solution.
    lower_bound:
        Optional lower bound on the optimal energy certified by the solver
        (e.g. the Continuous relaxation); ``None`` when not available.
    optimal:
        Whether the solver guarantees optimality for its model.
    metadata:
        Free-form solver diagnostics (iterations, LP size, gap, ...).
    """

    problem: MinEnergyProblem
    assignment: Assignment
    energy: float
    schedule: Schedule
    solver: str
    lower_bound: float | None = None
    optimal: bool = False
    metadata: dict[str, Any] = field(default_factory=dict)

    @property
    def makespan(self) -> float:
        """Makespan of the ASAP schedule."""
        return self.schedule.makespan

    def energy_ratio(self, reference_energy: float) -> float:
        """Ratio of this solution's energy to a reference value."""
        if reference_energy <= 0:
            raise InvalidSolutionError("reference energy must be strictly positive")
        return self.energy / reference_energy

    def gap_to_lower_bound(self) -> float | None:
        """Relative gap ``(energy - lb) / lb`` when a lower bound is attached."""
        if self.lower_bound is None or self.lower_bound <= 0:
            return None
        return (self.energy - self.lower_bound) / self.lower_bound

    def speeds(self) -> dict[str, float]:
        """Per-task (average) speeds, regardless of the assignment kind."""
        if isinstance(self.assignment, SpeedAssignment):
            return dict(self.assignment.speeds)
        return self.assignment.average_speeds()

    def summary(self) -> str:
        """One-line human-readable summary."""
        gap = self.gap_to_lower_bound()
        gap_text = f", gap={gap:.2%}" if gap is not None else ""
        return (
            f"[{self.solver}] {self.problem.name}: energy={self.energy:.6g}, "
            f"makespan={self.makespan:.6g} (D={self.problem.deadline:g})"
            f"{', optimal' if self.optimal else ''}{gap_text}"
        )


def make_solution(problem: MinEnergyProblem, assignment: Assignment, *,
                  solver: str, lower_bound: float | None = None,
                  optimal: bool = False,
                  metadata: dict[str, Any] | None = None) -> Solution:
    """Assemble a :class:`Solution` (computes energy and schedule).

    The energy is recomputed from the assignment with the problem's power
    law, so solvers cannot accidentally report an energy inconsistent with
    their own assignment.
    """
    if isinstance(assignment, SpeedAssignment):
        durations: Mapping[str, float] | np.ndarray = assignment.durations_vector(problem.graph)
    else:
        durations = assignment.durations(problem.graph)
    schedule = compute_schedule(problem.graph, durations)
    energy = assignment.energy(problem.graph, problem.power)
    return Solution(
        problem=problem,
        assignment=assignment,
        energy=energy,
        schedule=schedule,
        solver=solver,
        lower_bound=lower_bound,
        optimal=optimal,
        metadata=metadata or {},
    )


def assignments_close(a: SpeedAssignment, b: SpeedAssignment, *,
                      rel_tol: float = 1e-6) -> bool:
    """Whether two constant-speed assignments agree task-by-task."""
    if set(a.speeds) != set(b.speeds):
        return False
    return all(is_close(a.speeds[n], b.speeds[n], rel_tol=rel_tol) for n in a.speeds)
