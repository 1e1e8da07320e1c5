"""The ``MinEnergy(G, D)`` optimisation problem.

A problem instance bundles the execution graph (the task graph augmented
with the ordering edges of a fixed mapping), the deadline ``D``, the energy
model and the power law.  It also provides the feasibility primitives every
solver needs: the minimum achievable makespan (critical path at maximum
speed) and per-task maximum-speed release/latest times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.models import ContinuousModel, EnergyModel
from repro.core.power import CUBIC, PowerLaw
from repro.graphs.analysis import longest_path_length, topological_order
from repro.graphs.taskgraph import TaskGraph
from repro.utils.errors import InfeasibleProblemError, InvalidGraphError, InvalidModelError
from repro.utils.numerics import leq_with_tol

if TYPE_CHECKING:  # pragma: no cover - import cycle avoidance
    from repro.mapping.execution_graph import ExecutionGraph


def default_problem_name(graph_name: str, deadline: float) -> str:
    """The name of a problem built without one."""
    return f"MinEnergy({graph_name}, D={deadline:g})"


@dataclass
class MinEnergyProblem:
    """An instance of ``MinEnergy(G, D)``.

    Parameters
    ----------
    graph:
        The execution graph 𝒢: a :class:`TaskGraph` whose edges contain the
        original precedence constraints *and* the ordering edges between
        consecutive tasks mapped to the same processor.  Building 𝒢 from a
        mapping is the job of :class:`repro.mapping.ExecutionGraph`; a plain
        task graph is also accepted (each task on its own processor).
    deadline:
        The bound ``D`` on the completion time of every task.
    model:
        The energy model constraining admissible speeds.
    power:
        The power law (cubic by default, as in the paper).
    name:
        Optional label used in experiment reports.
    """

    graph: TaskGraph
    deadline: float
    model: EnergyModel = field(default_factory=ContinuousModel)
    power: PowerLaw = CUBIC
    name: str = ""

    def __post_init__(self) -> None:
        if isinstance(self.graph, TaskGraph):
            pass
        else:
            # Accept an ExecutionGraph transparently.
            combined = getattr(self.graph, "combined_graph", None)
            if combined is None:
                raise InvalidGraphError(
                    "graph must be a TaskGraph or an ExecutionGraph, "
                    f"got {type(self.graph).__name__}"
                )
            self.graph = combined()
        if not (self.deadline > 0 and math.isfinite(self.deadline)):
            raise InvalidModelError(f"deadline must be finite and positive, got {self.deadline}")
        if not isinstance(self.model, EnergyModel):
            raise InvalidModelError(f"model must be an EnergyModel, got {type(self.model).__name__}")
        self.graph.validate()
        if not self.name:
            self.name = default_problem_name(self.graph.name, self.deadline)

    # ------------------------------------------------------------------ #
    # feasibility primitives
    # ------------------------------------------------------------------ #
    @property
    def n_tasks(self) -> int:
        """Number of tasks of the execution graph."""
        return self.graph.n_tasks

    def min_makespan(self) -> float:
        """Smallest achievable makespan: critical path at the maximum speed.

        Under every model the fastest execution runs each task at the
        model's maximum speed, so the minimum makespan is the longest path
        of the execution graph weighted by ``w_i / s_max``.

        Returns ``inf`` when the model has no finite maximum speed and the
        graph is non-empty only in the degenerate sense that the makespan
        can be made arbitrarily small (returns 0.0 in that case).
        """
        s_max = self.model.max_speed
        if math.isinf(s_max):
            return 0.0
        return longest_path_length(self.graph,
                                   weight=self.graph.index().works / s_max)

    def is_feasible(self) -> bool:
        """Whether the deadline can be met at all (at maximum speed)."""
        return leq_with_tol(self.min_makespan(), self.deadline)

    def ensure_feasible(self) -> None:
        """Raise :class:`InfeasibleProblemError` when the deadline is unreachable."""
        makespan = self.min_makespan()
        if not leq_with_tol(makespan, self.deadline):
            raise InfeasibleProblemError(
                f"{self.name}: minimum makespan {makespan:g} (all tasks at the maximum "
                f"speed {self.model.max_speed:g}) exceeds the deadline {self.deadline:g}"
            )

    def slack_factor(self) -> float:
        """Ratio ``D / min_makespan`` (``inf`` for an unbounded-speed model).

        A slack factor of 1 means the deadline is tight; larger values leave
        room for energy reclamation.  This is the "deadline tightness"
        parameter swept by experiments E7/E9.
        """
        makespan = self.min_makespan()
        if makespan == 0.0:
            return math.inf
        return self.deadline / makespan

    # ------------------------------------------------------------------ #
    # per-task timing windows at maximum speed
    # ------------------------------------------------------------------ #
    def earliest_completion_times(self, speeds: dict[str, float] | None = None) -> dict[str, float]:
        """ASAP completion time of every task.

        Parameters
        ----------
        speeds:
            Per-task speeds; defaults to the model's maximum speed for every
            task (which must then be finite).
        """
        durations = self._durations(speeds)
        order = topological_order(self.graph)
        completion: dict[str, float] = {}
        for n in order:
            start = max((completion[p] for p in self.graph.predecessors(n)), default=0.0)
            completion[n] = start + durations[n]
        return completion

    def latest_completion_times(self, speeds: dict[str, float] | None = None) -> dict[str, float]:
        """ALAP completion time of every task with respect to the deadline."""
        durations = self._durations(speeds)
        order = topological_order(self.graph)
        latest: dict[str, float] = {}
        for n in reversed(order):
            succs = self.graph.successors(n)
            if succs:
                latest[n] = min(latest[s] - durations[s] for s in succs)
            else:
                latest[n] = self.deadline
        return latest

    def _durations(self, speeds: dict[str, float] | None) -> dict[str, float]:
        if speeds is None:
            s_max = self.model.max_speed
            if math.isinf(s_max):
                raise InvalidModelError(
                    "per-task speeds are required when the model has no finite maximum speed"
                )
            return {n: self.graph.work(n) / s_max for n in self.graph.task_names()}
        missing = set(self.graph.task_names()) - set(speeds)
        if missing:
            raise InvalidModelError(f"speeds missing for tasks: {sorted(missing)}")
        return {n: self.graph.work(n) / speeds[n] for n in self.graph.task_names()}

    # ------------------------------------------------------------------ #
    # content addressing
    # ------------------------------------------------------------------ #
    def cache_key(self, *, method: str | None = None,
                  options: "dict | None" = None,
                  exact: bool | None = None) -> str:
        """Stable content hash identifying this solve request (hex SHA-256).

        The key covers everything that determines the solver's answer: the
        graph structure hash (names, weights, edges — see
        :meth:`repro.graphs.taskgraph.TaskGraph.structure_hash`), the
        deadline, the energy model's full parameterisation, the power-law
        exponent, and the resolved solver ``(method, options, exact)``
        triple.  The display ``name`` of the problem/graph is deliberately
        excluded: two identically-posed instances share a key.

        Mutating the graph invalidates its cached index, so a later
        ``cache_key()`` on the same problem object reflects the new
        structure — stale cache hits cannot happen.
        """
        import hashlib
        import json

        payload = {
            "graph": self.graph.structure_hash(),
            "deadline": float(self.deadline).hex(),
            "model": self.model.cache_token(),
            "alpha": float(self.power.alpha).hex(),
            "method": method,
            "options": sorted((options or {}).items()),
            "exact": exact,
        }
        blob = json.dumps(payload, sort_keys=True, default=repr)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    # ------------------------------------------------------------------ #
    # derived instances
    # ------------------------------------------------------------------ #
    def with_model(self, model: EnergyModel) -> "MinEnergyProblem":
        """Same graph and deadline under a different energy model."""
        return MinEnergyProblem(graph=self.graph, deadline=self.deadline,
                                model=model, power=self.power)

    def with_deadline(self, deadline: float) -> "MinEnergyProblem":
        """Same graph and model with a different deadline."""
        return MinEnergyProblem(graph=self.graph, deadline=deadline,
                                model=self.model, power=self.power)

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return (
            f"MinEnergyProblem(graph={self.graph.name!r}, n={self.n_tasks}, "
            f"D={self.deadline:g}, model={self.model.name})"
        )
