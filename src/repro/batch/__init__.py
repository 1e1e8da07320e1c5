"""Batch solving: process-pool fan-out and parameter-grid sweeps.

This subsystem turns the single-instance solvers into a throughput engine:
:func:`solve_many` maps :func:`repro.solve.solve` over many instances with
per-instance error capture (serially or across worker processes), and
:func:`sweep` expands deadline/alpha/graph-size grids into instances and
returns one table row per solve.  It is the layer the scalability
experiments (E7/E10), the ``repro sweep`` CLI subcommand and the
:class:`repro.service.SolverService` job front-end build on; pass a
:class:`repro.cache.ResultCache` to any of them and repeated instances are
answered from the content-addressed cache instead of the pool.

Quickstart
----------
Solve a grid of chains and trees over two deadline slacks on 4 workers::

    from repro.batch import sweep

    table = sweep(
        graph_classes=("chain", "tree"),
        sizes=(100, 1000),
        slacks=(1.2, 2.0),
        model="continuous",
        repetitions=3,
        seed=7,
        workers=4,
    )
    print(table.to_ascii())      # or table.to_csv()

Fan out hand-built problems and inspect failures::

    from repro.batch import solve_many, failed

    results = solve_many(problems, workers=8)
    for r in failed(results):
        print(f"{r.name}: {r.error_type}: {r.error}")

Every result is a :class:`~repro.batch.engine.BatchResult` with the energy,
makespan, solver name and wall-clock seconds of its instance; a failing
instance (infeasible deadline, solver blow-up) is captured as ``ok=False``
instead of aborting the batch.

From the command line::

    python -m repro sweep --classes chain,tree --sizes 100,1000 \\
        --slacks 1.2,2.0 --workers 4 --csv

Sharded sweeps split one grid across machines with no coordinator: every
leg re-derives the full grid from the base seed and solves only its
deterministic slice (:class:`~repro.batch.shard.ShardSpec`), writes a
fingerprinted JSON dump, and :func:`~repro.batch.merge.merge_shard_dumps`
reassembles the dumps into the exact unsharded table — refusing mismatched
grids, gaps and overlaps::

    shard = sweep(sizes=(100, 1000), shard="2/3", seed=7)   # leg 2 of 3
    merged = merge_shard_dumps(["s1.json", "s2.json", "s3.json"])
"""

from repro.batch.engine import BatchResult, failed, solve_many, summarize
from repro.batch.vectorized import (
    VECTORIZE_MAX_TASKS,
    BatchPacker,
    PackedBatch,
    WireInstance,
    solve_batch,
)
from repro.batch.merge import (
    ShardDump,
    dump_payload,
    load_shard_dump,
    merge_report,
    merge_shard_dumps,
    rows_signature,
    write_shard_dump,
)
from repro.batch.shard import (
    SHARD_STRATEGIES,
    ShardSpec,
    assign_shards,
    estimate_cost,
    priors_from_rows,
    grid_fingerprint,
)
from repro.batch.sweep import (
    COORD_COLUMNS,
    SWEEP_COLUMNS,
    SweepPlan,
    build_sweep_coords,
    build_sweep_problems,
    grid_identity,
    plan_sweep,
    sweep,
    sweep_cache_stats,
    sweep_failures,
    sweep_table,
)

__all__ = [
    "BatchPacker",
    "BatchResult",
    "COORD_COLUMNS",
    "PackedBatch",
    "SHARD_STRATEGIES",
    "SWEEP_COLUMNS",
    "ShardDump",
    "ShardSpec",
    "SweepPlan",
    "VECTORIZE_MAX_TASKS",
    "WireInstance",
    "assign_shards",
    "priors_from_rows",
    "build_sweep_coords",
    "build_sweep_problems",
    "dump_payload",
    "estimate_cost",
    "failed",
    "grid_fingerprint",
    "grid_identity",
    "load_shard_dump",
    "merge_report",
    "merge_shard_dumps",
    "plan_sweep",
    "rows_signature",
    "solve_batch",
    "solve_many",
    "summarize",
    "sweep",
    "sweep_cache_stats",
    "sweep_failures",
    "sweep_table",
]
