"""E10 — solver scalability.

Regenerates DESIGN.md experiment E10: wall-clock solver time as a function
of the instance size for each model's default algorithm.  Expected shape:
the Vdd-Hopping LP stays fast (HiGHS scales well on these LPs), while the
general convex solver and the greedy slack-reclamation heuristic dominate
the cost on larger non-series-parallel graphs.

A second case exercises the batch engine on the structured classes the
array-based core makes cheap: deep chains and trees up to 10,000 tasks
solved through the iterative Theorem-2 paths (these used to blow the
recursion limit around 1,000 tasks).

A third case runs the same grid twice through a shared result cache: the
emitted rows are the warm pass, so the ``cache_hit`` column (and the solve
times collapsing to lookups) records the cache's effect in the BENCH JSON.

A fourth case shards one grid three ways (cost-weighted partitioning),
merges the per-shard tables, and records per-shard and merged wall time
against the unsharded baseline — the single-machine proxy for the CI
shard matrix: the slowest shard bounds the distributed wall time, and the
merge itself must cost (near) nothing.
"""

import time

from conftest import run_once

from repro.experiments.drivers import (
    experiment_batch_sweep,
    experiment_e10_scalability,
    experiment_e10_sparse_scaling,
)
from repro.utils.tables import Table


def test_e10_scalability(benchmark):
    table = run_once(benchmark, experiment_e10_scalability,
                     sizes=(10, 20, 40), n_modes=5, slack=1.5, seed=10)
    for column in ("continuous_seconds", "vdd_lp_seconds",
                   "discrete_heuristic_seconds", "incremental_seconds"):
        assert all(v > 0 for v in table.column(column))
    assert table.column("n_tasks") == [10, 20, 40]


def test_e10_deep_graph_batch(benchmark):
    table = run_once(benchmark, experiment_batch_sweep, case="e10_deep_graph_batch",
                     graph_classes=("chain", "tree"), sizes=(1000, 10_000),
                     slacks=(2.0,), alphas=(3.0,), model="continuous",
                     s_max=float("inf"), repetitions=1, seed=10)
    assert all(table.column("ok"))
    # deep graphs must route through the O(n) structured solvers
    assert set(table.column("solver")) <= {"continuous-chain", "continuous-tree"}


def test_e10_sparse_scaling(benchmark):
    """Sparse solver paths at 1k/5k/10k-task general DAGs."""
    table = run_once(benchmark, experiment_e10_sparse_scaling,
                     sizes=(1000, 5000, 10_000), n_modes=5, slack=1.5, seed=10)
    assert table.column("n_tasks") == [1000, 5000, 10_000]
    assert all(v > 0 for v in table.column("convex_sparse_seconds"))
    assert all(v > 0 for v in table.column("discrete_heuristic_seconds"))


def test_e10_sparse_smoke(benchmark):
    """CI-sized variant of the sparse scaling case (sub-second sizes)."""
    table = run_once(benchmark, experiment_e10_sparse_scaling,
                     case="e10_sparse_smoke",
                     sizes=(40, 80, 500), n_modes=5, slack=1.5, seed=10)
    assert table.column("n_tasks") == [40, 80, 500]
    assert all(v > 0 for v in table.column("convex_sparse_seconds"))


def _cached_resweep(**kwargs):
    """Run the same sweep grid cold then warm through one result cache."""
    from repro.cache import memory_cache

    cache = memory_cache()
    start = time.perf_counter()
    experiment_batch_sweep(cache=cache, **kwargs)           # cold: fills
    cold_seconds = time.perf_counter() - start
    start = time.perf_counter()
    warm = experiment_batch_sweep(cache=cache, **kwargs)    # warm: all hits
    warm_seconds = time.perf_counter() - start
    from repro.batch import sweep_cache_stats

    stats = sweep_cache_stats(warm)
    warm.title += (f" [cold {cold_seconds:.3f}s -> warm {warm_seconds:.3f}s, "
                   f"warm hit rate {stats['hit_rate']:.0%}]")
    return warm


def test_e10_cached_resweep(benchmark):
    table = run_once(benchmark, _cached_resweep, case="e10_cached_resweep",
                     graph_classes=("layered",), sizes=(24, 48),
                     slacks=(1.2, 2.0), alphas=(3.0,), model="continuous",
                     repetitions=2, seed=10)
    assert all(table.column("ok"))
    assert all(table.column("cache_hit"))  # the emitted pass is fully warm


def _sharded_sweep(*, shards=3, **kwargs):
    """One grid: unsharded baseline, then N shard legs, then the merge."""
    from repro.batch import (ShardDump, dump_payload, merge_shard_dumps,
                             rows_signature)

    table = Table(
        columns=["stage", "shard", "rows", "seconds", "vs_unsharded"],
        title="E10 sharded sweep - per-shard and merged wall time",
    )
    start = time.perf_counter()
    full = experiment_batch_sweep(**kwargs)
    baseline = time.perf_counter() - start
    table.add_row("unsharded", "-", len(full), baseline, 1.0)

    dumps = []
    slowest = 0.0
    for i in range(1, shards + 1):
        start = time.perf_counter()
        leg = experiment_batch_sweep(shard=f"{i}/{shards}", **kwargs)
        seconds = time.perf_counter() - start
        slowest = max(slowest, seconds)
        table.add_row("shard", f"{i}/{shards}", len(leg), seconds,
                      seconds / baseline)
        dumps.append(ShardDump.from_payload(dump_payload(leg),
                                            path=f"<shard {i}/{shards}>"))
    start = time.perf_counter()
    merged = merge_shard_dumps(dumps)
    merge_seconds = time.perf_counter() - start
    table.add_row("merge", "-", len(merged), merge_seconds,
                  merge_seconds / baseline)
    assert rows_signature(merged) == rows_signature(full)
    table.title += (f" [slowest shard {slowest:.3f}s vs unsharded "
                    f"{baseline:.3f}s]")
    return table


def test_e10_sharded_sweep(benchmark):
    table = run_once(benchmark, _sharded_sweep, case="e10_sharded_sweep",
                     graph_classes=("chain", "tree", "layered"),
                     sizes=(16, 48), slacks=(1.2, 2.0), alphas=(3.0,),
                     model="continuous", repetitions=2, seed=10)
    rows = {r[0]: r for r in table.rows if r[0] != "shard"}
    shard_rows = [r for r in table.rows if r[0] == "shard"]
    assert len(shard_rows) == 3
    # shards partition the grid exactly
    assert sum(r[2] for r in shard_rows) == rows["unsharded"][2]
    assert rows["merge"][2] == rows["unsharded"][2]
    # the merge is bookkeeping, not solving
    assert rows["merge"][3] < rows["unsharded"][3]
