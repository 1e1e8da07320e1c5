"""Grid sweeps over deadline slack, power exponent and graph size.

:func:`sweep` expands a Cartesian grid of workload parameters into concrete
``MinEnergy(G, D)`` instances, fans them out through
:func:`repro.batch.engine.solve_many`, and returns one table row per
instance (failures included, with the error recorded) so trajectories can
be compared across runs or dumped to CSV/JSON.

The grid axes mirror the experiment harness: graph class and size (the
generators of :mod:`repro.graphs.generators`), deadline slack (``D`` as a
multiple of the minimum makespan), power exponent ``alpha`` and the energy
model.  Repetitions re-draw the random graph with per-cell derived seeds,
so a sweep is reproducible from its base seed alone — and every row records
its own instance seed and ``cache_hit`` flag, so a single row is too.

Passing a :class:`repro.cache.ResultCache` makes repeated sweeps
near-free: a second identical run is served entirely from the cache (the
``cache_hit`` column reports it per row, :func:`sweep_cache_stats`
aggregates the hit rate).

Sharding: passing ``shard=`` (a :class:`repro.batch.shard.ShardSpec` or its
``"I/N"`` CLI spelling) solves only that shard's deterministic slice of the
grid.  Coordinate enumeration is separate from problem materialisation, so
a shard leg derives the *full* grid (cheap) but only builds and solves its
own instances; every emitted row is tagged with ``shard_index`` /
``shard_count`` / ``grid_fingerprint`` and the per-shard dumps reassemble
through :mod:`repro.batch.merge`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping, Sequence

from repro.core.models import ContinuousModel
from repro.core.power import PowerLaw
from repro.core.problem import MinEnergyProblem
from repro.experiments.workloads import WorkloadSpec, make_workload, matching_models
from repro.utils.errors import (
    InvalidArgumentTypeError,
    InvalidModelError,
    InvalidParameterError,
)
from repro.utils.rng import spawn_rngs
from repro.utils.tables import Table
from repro.batch.engine import BatchResult, solve_many
from repro.batch.shard import ShardSpec, grid_fingerprint

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cache import ResultCache

#: Columns of the table returned by :func:`sweep`, one row per instance.
SWEEP_COLUMNS = (
    "graph_class", "n_tasks", "slack", "alpha", "seed", "ok", "solver",
    "energy", "makespan", "seconds", "build_seconds", "solve_seconds",
    "cache_hit", "error",
    "shard_index", "shard_count", "grid_fingerprint",
)

#: Leading columns identifying an instance; merge keys rows on these.
COORD_COLUMNS = ("graph_class", "n_tasks", "slack", "alpha", "seed")

#: ``build_sweep_problems`` keyword defaults, applied when fingerprinting a
#: grid so an implicit and an explicit default produce the same fingerprint.
GRID_DEFAULTS: dict[str, Any] = dict(
    graph_classes=("chain", "tree", "layered"), sizes=(32,), slacks=(1.5,),
    alphas=(3.0,), model="continuous", n_modes=5, s_max=1.0,
    n_processors=0, mapping="none", repetitions=1, seed=0,
)


def build_sweep_coords(*, graph_classes: Sequence[str] = ("chain", "tree", "layered"),
                       sizes: Sequence[int] = (32,),
                       slacks: Sequence[float] = (1.5,),
                       alphas: Sequence[float] = (3.0,),
                       model: str = "continuous",
                       repetitions: int = 1, seed: int = 0) -> list[tuple]:
    """Enumerate the full grid coordinates of a sweep (no graphs built).

    Returns ``(graph_class, n_tasks, slack, alpha, instance_seed)`` per
    instance, in canonical grid order.  This is the cheap half of
    :func:`build_sweep_problems`: instance seeds derive from the base seed
    alone, so every shard of a distributed sweep re-derives the identical
    list and partitions it identically.
    """
    if model not in ("continuous", "discrete", "vdd", "incremental"):
        raise InvalidModelError(
            f"unknown sweep model {model!r}; choose continuous, discrete, "
            "vdd or incremental"
        )
    cells = [(cls, int(n), float(slack), float(alpha))
             for cls in graph_classes
             for n in sizes
             for slack in slacks
             for alpha in alphas]
    rngs = spawn_rngs(seed, len(cells) * repetitions)
    coords: list[tuple] = []
    for c, (cls, n, slack, alpha) in enumerate(cells):
        for rep in range(repetitions):
            instance_seed = int(rngs[c * repetitions + rep].integers(0, 2**31 - 1))
            coords.append((cls, n, slack, alpha, instance_seed))
    return coords


def build_sweep_problems(*, graph_classes: Sequence[str] = ("chain", "tree", "layered"),
                         sizes: Sequence[int] = (32,),
                         slacks: Sequence[float] = (1.5,),
                         alphas: Sequence[float] = (3.0,),
                         model: str = "continuous", n_modes: int = 5,
                         s_max: float = 1.0,
                         n_processors: int = 0, mapping: str = "none",
                         repetitions: int = 1, seed: int = 0,
                         positions: Sequence[int] | None = None,
                         grid: Sequence[tuple] | None = None,
                         ) -> tuple[list[MinEnergyProblem], list[tuple]]:
    """Materialise the problem grid of a sweep.

    Returns the problem list and, aligned with it, the grid coordinates
    ``(graph_class, n_tasks, slack, alpha, instance_seed)`` of every
    instance.  ``positions`` restricts materialisation to those indices of
    the full grid (the sharding fast path: coordinates are always derived
    for the whole grid, but graphs are only generated for the selected
    slice), and ``grid`` supplies pre-enumerated full-grid coordinates
    (from :func:`build_sweep_coords` with the same axes) so callers that
    already derived them do not pay the enumeration twice.

    ``s_max`` only applies to the Continuous model; pass ``float("inf")``
    for the uncapped Theorem-2 regime, where deep trees and chains stay on
    the O(n) structured solvers instead of falling back to the numerical
    one when the closed form exceeds the cap.  (The deadline is always
    measured against the reference speed 1.0, so rows stay comparable
    across caps.)
    """
    if grid is None:
        grid = build_sweep_coords(graph_classes=graph_classes, sizes=sizes,
                                  slacks=slacks, alphas=alphas, model=model,
                                  repetitions=repetitions, seed=seed)
    if positions is None:
        selected = list(range(len(grid)))
    else:
        selected = list(positions)
        out_of_range = [p for p in selected if not 0 <= p < len(grid)]
        if out_of_range:
            raise InvalidParameterError(
                f"positions out of range for a {len(grid)}-instance grid: "
                f"{out_of_range}"
            )
    models = matching_models(1.0, n_modes)
    if model == "continuous":
        models = dict(models, continuous=ContinuousModel(s_max=float(s_max)))
    problems: list[MinEnergyProblem] = []
    coords: list[tuple] = []
    for p in selected:
        cls, n, slack, alpha, instance_seed = grid[p]
        spec = WorkloadSpec(graph_class=cls, n_tasks=n,
                            n_processors=n_processors, mapping=mapping,
                            slack=slack, seed=instance_seed)
        base = make_workload(spec, model=models[model])
        problem = MinEnergyProblem(
            graph=base.graph, deadline=base.deadline, model=base.model,
            power=PowerLaw(alpha=alpha), name=base.name,
        )
        problems.append(problem)
        coords.append(grid[p])
    return problems, coords


def grid_identity(*, method: str | None = None, exact: bool | None = None,
                  **grid_kwargs: Any
                  ) -> tuple[list[tuple], str, dict[str, Any]]:
    """The cheap half of :func:`plan_sweep`: coordinates + fingerprint.

    Returns ``(grid, fingerprint, params)`` without materialising a single
    graph, so callers that only need the grid's identity — fleet shard
    submission stamping N records with one fingerprint, pre-flight
    validation — do not pay for problem construction.  This is the single
    definition of the fingerprint recipe; :func:`plan_sweep` (and through
    it every sweep run) uses it, which is what guarantees a fingerprint
    stamped at submit time matches the one the runner computes.
    """
    unknown = set(grid_kwargs) - set(GRID_DEFAULTS)
    if unknown:
        raise InvalidArgumentTypeError(f"unknown sweep grid arguments: {sorted(unknown)}")
    params = {**GRID_DEFAULTS, **grid_kwargs}
    grid = build_sweep_coords(
        graph_classes=params["graph_classes"], sizes=params["sizes"],
        slacks=params["slacks"], alphas=params["alphas"],
        model=params["model"], repetitions=params["repetitions"],
        seed=params["seed"])
    fingerprint = grid_fingerprint(grid, {
        "model": params["model"], "n_modes": params["n_modes"],
        "s_max": float(params["s_max"]),
        "n_processors": int(params["n_processors"]),
        "mapping": params["mapping"], "method": method, "exact": exact,
    })
    return grid, fingerprint, params


@dataclass
class SweepPlan:
    """A fully resolved sweep: instances, grid identity and shard slice.

    ``grid`` always holds the *full* grid coordinates (what a merge must
    cover); ``problems``/``coords`` hold only this plan's slice — the whole
    grid when ``shard`` is ``None``.  ``fingerprint`` identifies the grid
    plus the result-shaping parameters, and is what the merge layer
    validates across shard dumps.
    """

    problems: list[MinEnergyProblem]
    coords: list[tuple]
    grid: list[tuple]
    fingerprint: str
    shard: ShardSpec | None = None
    params: dict[str, Any] = field(default_factory=dict)

    def manifest(self) -> dict[str, Any]:
        """JSON-able shard-dump header (see :mod:`repro.batch.merge`)."""
        return {
            "fingerprint": self.fingerprint,
            "shard_index": self.shard.index if self.shard else 0,
            "shard_count": self.shard.count if self.shard else 1,
            "strategy": self.shard.strategy if self.shard else "unsharded",
            "params": {k: (list(v) if isinstance(v, tuple) else v)
                       for k, v in self.params.items()},
            "grid": [list(coord) for coord in self.grid],
        }


def plan_sweep(*, shard: "ShardSpec | str | None" = None,
               method: str | None = None, exact: bool | None = None,
               priors: Mapping[str, tuple[float, float]] | None = None,
               **grid_kwargs: Any) -> SweepPlan:
    """Resolve a (possibly sharded) sweep grid into a :class:`SweepPlan`.

    ``grid_kwargs`` are the keyword arguments of
    :func:`build_sweep_problems`; unspecified axes take the same defaults.
    The fingerprint hashes the *normalised* grid coordinates (so an axis
    spelled ``2`` vs ``2.0``, or a default spelled out explicitly, does not
    change the grid identity) plus the parameters that shape results
    without appearing in the coordinates: the model knobs (``n_modes``,
    ``s_max``, ``n_processors``, ``mapping``) and ``method``/``exact`` —
    shards solved with different solver methods refuse to merge.
    """
    grid, fingerprint, params = grid_identity(method=method, exact=exact,
                                              **grid_kwargs)
    spec = ShardSpec.parse(shard) if shard is not None else None
    positions = (spec.select(grid, model=params["model"], priors=priors)
                 if spec is not None else None)
    problems, coords = build_sweep_problems(**params, positions=positions,
                                            grid=grid)
    return SweepPlan(problems=problems, coords=coords, grid=grid,
                     fingerprint=fingerprint, shard=spec,
                     params={**params, "method": method, "exact": exact})


def sweep_table(coords: Sequence[tuple], results: Sequence[BatchResult], *,
                title: str = "batch sweep", shard: ShardSpec | None = None,
                fingerprint: str = "") -> Table:
    """Assemble the one-row-per-instance sweep table.

    Shared by :func:`sweep` and the :class:`repro.service.SolverService`
    job front-end, so CLI sweeps and submitted jobs emit identical rows.
    Every row is tagged with its shard identity (``0``/``1`` for an
    unsharded run) and the grid fingerprint, which is what lets the merge
    layer validate per-shard dumps against each other.

    The leading cells are the *grid coordinates* verbatim — in particular
    ``n_tasks`` is the requested size, not the generated graph's task
    count (a ``fork(n)`` has ``n + 1`` tasks, mappings can reshape the
    graph) — so every row keys back to exactly one grid coordinate and
    shard dumps merge for every graph class.
    """
    shard_index = shard.index if shard is not None else 0
    shard_count = shard.count if shard is not None else 1
    table = Table(columns=list(SWEEP_COLUMNS), title=title)
    for coord, result in zip(coords, results):
        cls, n, slack, alpha, instance_seed = coord
        table.add_row(cls, n, slack, alpha, instance_seed,
                      result.ok, result.solver, result.energy,
                      result.makespan, result.seconds,
                      result.build_seconds, result.solve_seconds,
                      result.cache_hit,
                      result.error, shard_index, shard_count, fingerprint)
    return table


def sweep(*, graph_classes: Sequence[str] = ("chain", "tree", "layered"),
          sizes: Sequence[int] = (32,),
          slacks: Sequence[float] = (1.5,),
          alphas: Sequence[float] = (3.0,),
          model: str = "continuous", n_modes: int = 5,
          s_max: float = 1.0,
          n_processors: int = 0, mapping: str = "none",
          repetitions: int = 1, seed: int = 0,
          workers: int | None = None,
          method: str | None = None,
          exact: bool | None = None, validate: bool = True,
          cache: "ResultCache | None" = None,
          shard: "ShardSpec | str | None" = None,
          priors: Mapping[str, tuple[float, float]] | None = None,
          title: str = "batch sweep") -> Table:
    """Run a deadline/alpha/graph-size grid and return one row per instance.

    Parameters mirror :func:`build_sweep_problems` plus the fan-out knobs of
    :func:`repro.batch.engine.solve_many` (``workers``, ``method``,
    ``exact``, ``validate``, ``cache``).  Failed instances
    appear as rows with ``ok=False`` and the error recorded, so a sweep
    never dies half way through a grid.

    ``shard`` (a :class:`ShardSpec` or the 1-based ``"I/N"`` CLI spelling)
    restricts the run to one deterministic slice of the grid; the returned
    table then holds only that shard's rows, tagged accordingly.  The
    table's ``manifest`` attribute carries the full-grid coordinates,
    fingerprint and parameters needed to write a mergeable shard dump (see
    :func:`repro.batch.merge.write_shard_dump`).

    ``priors`` overrides the static per-graph-class timing priors of the
    cost-weighted partitioner — typically the output of
    :func:`repro.batch.shard.priors_from_rows` fitted on a previous run's
    measured ``seconds`` (the ``repro sweep --priors-from`` hook).  Every
    shard leg must pass the same priors or the partitions will disagree.
    """
    plan = plan_sweep(
        shard=shard, method=method, exact=exact, priors=priors,
        graph_classes=graph_classes, sizes=sizes, slacks=slacks, alphas=alphas,
        model=model, n_modes=n_modes, s_max=s_max, n_processors=n_processors,
        mapping=mapping, repetitions=repetitions, seed=seed,
    )
    results = solve_many(plan.problems, workers=workers,
                         method=method, exact=exact, validate=validate,
                         cache=cache, seeds=[coord[-1] for coord in plan.coords])
    if plan.shard is not None:
        title = f"{title} [shard {plan.shard.spelling}]"
    table = sweep_table(plan.coords, results, title=title, shard=plan.shard,
                        fingerprint=plan.fingerprint)
    table.manifest = plan.manifest()
    return table


def sweep_failures(table: Table) -> list[str]:
    """Error messages of the failed rows of a sweep table."""
    errors = table.column("error")
    return [e for ok, e in zip(table.column("ok"), errors) if not ok]


def sweep_cache_stats(table: Table) -> dict[str, float | int]:
    """Cache counters of a sweep table: hits, misses and the hit rate."""
    hits = sum(1 for h in table.column("cache_hit") if h)
    total = len(table)
    return {
        "hits": hits,
        "misses": total - hits,
        "hit_rate": hits / total if total else 0.0,
    }
