"""Workload construction for the experiment harness.

A *workload* is a ``MinEnergyProblem`` ready to be handed to the solvers:
a synthetic task graph, a mapping (which turns it into an execution graph),
an energy model, and a deadline expressed as a multiple of the minimum
achievable makespan (the deadline "slack factor").  Centralising the
construction here keeps every experiment comparable and reproducible (all
randomness flows from explicit seeds).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.core.models import (
    ContinuousModel,
    DiscreteModel,
    EnergyModel,
    IncrementalModel,
    VddHoppingModel,
)
from repro.core.problem import MinEnergyProblem
from repro.graphs import generators
from repro.graphs.analysis import longest_path_length
from repro.graphs.taskgraph import TaskGraph
from repro.mapping.execution_graph import ExecutionGraph
from repro.mapping.list_scheduling import (
    list_schedule,
    load_balance_mapping,
    round_robin_mapping,
    single_processor_mapping,
)
from repro.utils.errors import InvalidModelError
from repro.utils.rng import spawn_rngs


def standard_mode_sets(s_max: float = 1.0) -> dict[int, tuple[float, ...]]:
    """Reference Discrete mode sets with 2..16 modes, normalised to ``s_max``.

    The modes are spread over ``[0.15 * s_max, s_max]`` with mild
    irregularity (denser near the top), mimicking published DVFS tables
    where high frequencies are closer together than low ones.
    """
    out: dict[int, tuple[float, ...]] = {}
    lo = 0.15 * s_max
    for m in (2, 3, 4, 5, 6, 8, 10, 12, 16):
        # quadratic spacing: denser near s_max
        modes = tuple(lo + (s_max - lo) * ((i / (m - 1)) ** 0.7) for i in range(m))
        out[m] = modes
    return out


@dataclass(frozen=True)
class WorkloadSpec:
    """Declarative description of one workload.

    Attributes
    ----------
    graph_class:
        One of the keys of :data:`repro.graphs.generators.GRAPH_CLASSES`
        (``"chain"``, ``"fork"``, ``"tree"``, ``"series_parallel"``,
        ``"layered"``, ...).
    n_tasks:
        Number of tasks requested from the generator.
    n_processors:
        Number of processors for the mapping (``0`` means one task per
        processor — the execution graph equals the task graph).
    mapping:
        ``"list"``, ``"round_robin"``, ``"load_balance"``, ``"single"`` or
        ``"none"`` (one task per processor).
    slack:
        Deadline expressed as ``slack * minimum_makespan`` where the minimum
        makespan is the critical path at the reference maximum speed.
    s_max:
        Reference maximum speed used to compute the minimum makespan.
    seed:
        Seed of the generator.
    """

    graph_class: str = "layered"
    n_tasks: int = 30
    n_processors: int = 4
    mapping: str = "list"
    slack: float = 2.0
    s_max: float = 1.0
    seed: int = 0


def _build_graph(spec: WorkloadSpec) -> TaskGraph:
    builder = generators.GRAPH_CLASSES.get(spec.graph_class)
    if builder is None:
        raise InvalidModelError(
            f"unknown graph class {spec.graph_class!r}; "
            f"choose from {sorted(generators.GRAPH_CLASSES)}"
        )
    return builder(spec.n_tasks, seed=spec.seed)


def _build_execution(spec: WorkloadSpec, graph: TaskGraph) -> TaskGraph:
    if spec.mapping == "none" or spec.n_processors <= 0:
        return graph
    if spec.mapping == "list":
        execution = list_schedule(graph, spec.n_processors)
    elif spec.mapping == "round_robin":
        execution = round_robin_mapping(graph, spec.n_processors)
    elif spec.mapping == "load_balance":
        execution = load_balance_mapping(graph, spec.n_processors)
    elif spec.mapping == "single":
        execution = single_processor_mapping(graph)
    else:
        raise InvalidModelError(f"unknown mapping strategy {spec.mapping!r}")
    return execution.combined_graph()


def make_workload(spec: WorkloadSpec, model: EnergyModel | None = None) -> MinEnergyProblem:
    """Instantiate the ``MinEnergyProblem`` described by ``spec``.

    Parameters
    ----------
    spec:
        The workload description.
    model:
        Energy model of the problem; defaults to a Continuous model capped
        at ``spec.s_max``.  The deadline is ``spec.slack`` times the
        critical path of the *execution* graph at ``spec.s_max`` so that
        every model sharing that maximum speed gets the same absolute
        deadline.
    """
    graph = _build_graph(spec)
    execution_graph = _build_execution(spec, graph)
    model = model or ContinuousModel(s_max=spec.s_max)
    min_makespan = longest_path_length(
        execution_graph, weight=execution_graph.index().works / spec.s_max)
    deadline = spec.slack * min_makespan
    return MinEnergyProblem(
        graph=execution_graph, deadline=deadline, model=model,
        name=f"{spec.graph_class}(n={spec.n_tasks}, p={spec.n_processors}, "
             f"slack={spec.slack:g}, seed={spec.seed})",
    )


def workload_ensemble(base: WorkloadSpec, *, repetitions: int,
                      model: EnergyModel | None = None) -> list[MinEnergyProblem]:
    """A list of workloads differing only by their seed.

    Seeds are derived deterministically from ``base.seed`` so that an
    ensemble is reproducible from a single number.
    """
    rngs = spawn_rngs(base.seed, repetitions)
    problems = []
    for i, rng in enumerate(rngs):
        seed = int(rng.integers(0, 2**31 - 1))
        spec = WorkloadSpec(
            graph_class=base.graph_class, n_tasks=base.n_tasks,
            n_processors=base.n_processors, mapping=base.mapping,
            slack=base.slack, s_max=base.s_max, seed=seed,
        )
        problems.append(make_workload(spec, model=model))
    return problems


def matching_models(s_max: float, n_modes: int, *,
                    mode_sets: dict[int, tuple[float, ...]] | None = None
                    ) -> dict[str, EnergyModel]:
    """The four paper models sharing the same maximum speed.

    Returns a dictionary with keys ``"continuous"``, ``"discrete"``,
    ``"vdd"`` and ``"incremental"``; the Discrete and Vdd-Hopping models
    share the same (irregular) mode set and the Incremental model spans the
    same range with a regular grid of the same cardinality.
    """
    mode_sets = mode_sets or standard_mode_sets(s_max)
    if n_modes not in mode_sets:
        raise InvalidModelError(
            f"no standard mode set with {n_modes} modes; available: {sorted(mode_sets)}"
        )
    modes = mode_sets[n_modes]
    incremental = IncrementalModel.from_range(
        modes[0], modes[-1],
        (modes[-1] - modes[0]) / (n_modes - 1) if n_modes > 1 else modes[0],
    )
    return {
        "continuous": ContinuousModel(s_max=s_max),
        "discrete": DiscreteModel(modes=modes),
        "vdd": VddHoppingModel(modes=modes),
        "incremental": incremental,
    }
