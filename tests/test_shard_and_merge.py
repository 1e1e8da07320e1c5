"""Tests for the sharded-sweep subsystem (shard partitioning + dump merge).

Covers: ShardSpec parsing/validation, determinism of both partitioning
strategies (including across processes), union/disjointness against the
unsharded grid, cost-weighted balance, the sweep/service/CLI wiring of
``shard=``, dump writing/loading, and every merge failure mode
(fingerprint mismatch, gaps, overlaps, corrupt dumps, mixed strategies).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro.batch import (
    ShardDump,
    ShardSpec,
    assign_shards,
    build_sweep_coords,
    dump_payload,
    estimate_cost,
    grid_fingerprint,
    load_shard_dump,
    merge_shard_dumps,
    plan_sweep,
    rows_signature,
    sweep,
    sweep_cache_stats,
    write_shard_dump,
)
from repro.cache import disk_cache
from repro.utils.errors import (
    FingerprintMismatchError,
    MergeError,
    ShardError,
    ShardGapError,
    ShardOverlapError,
)

GRID = dict(graph_classes=("chain", "tree", "layered"), sizes=(8, 16),
            slacks=(1.2, 2.0), repetitions=2, seed=7)


def _shard_tables(n=3, *, strategy="cost-weighted", grid=GRID, **kwargs):
    return [sweep(**grid, shard=ShardSpec(i, n, strategy=strategy), **kwargs)
            for i in range(n)]


def _dumps(tables):
    return [ShardDump.from_payload(dump_payload(t), path=f"<shard{i}>")
            for i, t in enumerate(tables)]


class TestShardSpec:
    def test_parse_is_one_based(self):
        assert ShardSpec.parse("1/3") == ShardSpec(0, 3)
        assert ShardSpec.parse("3/3") == ShardSpec(2, 3)
        assert ShardSpec.parse(" 2 / 4 ") == ShardSpec(1, 4)
        assert ShardSpec.parse("1/1") == ShardSpec(0, 1)

    def test_parse_passes_specs_through(self):
        spec = ShardSpec(1, 3, strategy="round-robin")
        assert ShardSpec.parse(spec) is spec

    def test_spelling_round_trips(self):
        for spec in (ShardSpec(0, 3), ShardSpec(2, 3), ShardSpec(4, 5)):
            assert ShardSpec.parse(spec.spelling) == spec

    @pytest.mark.parametrize("text", ["0/3", "4/3", "-1/3", "1/0", "a/b",
                                      "1", "1/3/5", ""])
    def test_parse_rejects_bad_spellings(self, text):
        with pytest.raises(ShardError):
            ShardSpec.parse(text)

    def test_constructor_validation(self):
        with pytest.raises(ShardError):
            ShardSpec(3, 3)
        with pytest.raises(ShardError):
            ShardSpec(-1, 3)
        with pytest.raises(ShardError):
            ShardSpec(0, 0)
        with pytest.raises(ShardError):
            ShardSpec(0, 2, strategy="random")


class TestPartitioning:
    @pytest.mark.parametrize("strategy", ["round-robin", "cost-weighted"])
    def test_union_is_grid_and_shards_are_disjoint(self, strategy):
        coords = build_sweep_coords(**GRID)
        selections = [ShardSpec(i, 3, strategy=strategy).select(coords)
                      for i in range(3)]
        flat = [p for sel in selections for p in sel]
        assert sorted(flat) == list(range(len(coords)))  # union, no overlap

    @pytest.mark.parametrize("strategy", ["round-robin", "cost-weighted"])
    def test_assignment_is_deterministic_in_process(self, strategy):
        coords = build_sweep_coords(**GRID)
        first = assign_shards(coords, 4, strategy=strategy)
        assert all(assign_shards(coords, 4, strategy=strategy) == first
                   for _ in range(3))

    def test_assignment_is_deterministic_across_processes(self):
        """Same seed + grid => identical assignment in a fresh interpreter."""
        coords = build_sweep_coords(**GRID)
        here = {s: assign_shards(coords, 3, strategy=s)
                for s in ("round-robin", "cost-weighted")}
        src = os.path.dirname(os.path.dirname(os.path.abspath(
            sys.modules["repro"].__file__)))
        code = (
            "import json\n"
            "from repro.batch import assign_shards, build_sweep_coords\n"
            f"coords = build_sweep_coords(**{GRID!r})\n"
            "print(json.dumps({s: assign_shards(coords, 3, strategy=s)\n"
            "    for s in ('round-robin', 'cost-weighted')}))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert json.loads(out.stdout) == here

    def test_round_robin_is_positional(self):
        coords = build_sweep_coords(**GRID)
        assert assign_shards(coords, 3, strategy="round-robin") == \
            [i % 3 for i in range(len(coords))]

    def test_cost_weighted_balances_estimated_load(self):
        coords = build_sweep_coords(graph_classes=("chain", "layered"),
                                    sizes=(16, 64, 256), slacks=(1.5,),
                                    repetitions=4, seed=3)
        assignment = assign_shards(coords, 3, strategy="cost-weighted")
        costs = [estimate_cost(c[0], c[1]) for c in coords]
        loads = [0.0, 0.0, 0.0]
        for cost, shard in zip(costs, assignment):
            loads[shard] += cost
        # the LPT invariant: remove the heaviest item and no shard dominates
        assert max(loads) - max(costs) <= min(loads) + 1e-12
        assert all(s in assignment for s in range(3))  # no empty shard here
        # and it beats round-robin's worst shard on this lopsided grid
        rr_loads = [0.0, 0.0, 0.0]
        for i, cost in enumerate(costs):
            rr_loads[i % 3] += cost
        assert max(loads) <= max(rr_loads)

    def test_unknown_strategy_and_bad_count(self):
        coords = build_sweep_coords(**GRID)
        with pytest.raises(ShardError):
            assign_shards(coords, 3, strategy="alphabetical")
        with pytest.raises(ShardError):
            assign_shards(coords, 0)

    def test_priors_override_steers_the_packing(self):
        coords = [("chain", 10, 1.5, 3.0, 1), ("layered", 10, 1.5, 3.0, 2)]
        flipped = {"chain": (100.0, 1.0), "layered": (0.001, 1.0), None: (0.001, 1.0)}
        default = assign_shards(coords, 2, strategy="cost-weighted")
        steered = assign_shards(coords, 2, strategy="cost-weighted",
                                priors=flipped)
        # heaviest item always lands on shard 0; the priors decide which
        assert default[1] == 0 and steered[0] == 0

    def test_estimate_cost_grows_with_size(self):
        assert estimate_cost("layered", 200) > estimate_cost("layered", 50)
        assert estimate_cost("layered", 64) > estimate_cost("chain", 64)


class TestFingerprint:
    def test_same_grid_same_fingerprint(self):
        a = plan_sweep(**GRID)
        b = plan_sweep(**GRID, shard="2/3")
        assert a.fingerprint == b.fingerprint  # sharding doesn't change identity

    def test_defaults_are_folded_in(self):
        explicit = plan_sweep(**GRID, model="continuous", s_max=1.0)
        assert explicit.fingerprint == plan_sweep(**GRID).fingerprint

    @pytest.mark.parametrize("change", [dict(seed=8), dict(sizes=(8, 17)),
                                        dict(slacks=(1.2,)),
                                        dict(model="discrete")])
    def test_grid_changes_change_the_fingerprint(self, change):
        assert plan_sweep(**{**GRID, **change}).fingerprint != \
            plan_sweep(**GRID).fingerprint

    def test_method_shapes_the_fingerprint(self):
        # shards solved with different methods must refuse to merge
        assert plan_sweep(**GRID, method="convex-sparse").fingerprint != \
            plan_sweep(**GRID).fingerprint

    def test_int_and_float_axis_spellings_agree(self):
        # one leg driven from the API with slacks=(1.2, 2), another from the
        # CLI (always floats): identical grids must merge
        a = plan_sweep(**{**GRID, "slacks": (1.2, 2)}, shard="1/3")
        b = plan_sweep(**{**GRID, "slacks": (1.2, 2.0)}, shard="2/3")
        assert a.grid == b.grid
        assert a.fingerprint == b.fingerprint

    def test_fingerprint_is_stable_across_calls(self):
        coords = build_sweep_coords(**GRID)
        assert grid_fingerprint(coords, GRID) == grid_fingerprint(coords, GRID)

    def test_unknown_grid_kwarg_is_rejected(self):
        with pytest.raises(TypeError):
            plan_sweep(**GRID, sizez=(8,))


class TestShardedSweep:
    def test_rows_are_tagged(self):
        table = sweep(**GRID, shard="2/3")
        assert set(table.column("shard_index")) == {1}
        assert set(table.column("shard_count")) == {3}
        fingerprint = table.manifest["fingerprint"]
        assert set(table.column("grid_fingerprint")) == {fingerprint}
        assert "shard 2/3" in table.title

    def test_unsharded_rows_are_tagged_zero_of_one(self):
        table = sweep(**GRID)
        assert set(table.column("shard_index")) == {0}
        assert set(table.column("shard_count")) == {1}
        assert table.manifest["strategy"] == "unsharded"

    def test_shards_cover_the_unsharded_grid(self):
        full = sweep(**GRID)
        tables = _shard_tables(3)
        assert sum(len(t) for t in tables) == len(full)
        merged = merge_shard_dumps(_dumps(tables))
        assert rows_signature(merged) == rows_signature(full)
        # canonical order: merged rows carry the exact unsharded coords order
        coords = [tuple(r[:5]) for r in merged.rows]
        assert coords == [tuple(r[:5]) for r in full.rows]

    def test_shard_only_materialises_its_slice(self):
        plan = plan_sweep(**GRID, shard="1/3")
        assert len(plan.grid) == 24
        assert len(plan.problems) == len(plan.coords) < len(plan.grid)
        assert all(coord in plan.grid for coord in plan.coords)

    def test_classes_with_extra_tasks_still_merge(self):
        # fork(n) generates n+1 tasks; rows must key on the *grid* size so
        # the dumps still cover the grid exactly
        grid = dict(graph_classes=("fork", "series_parallel"), sizes=(8,),
                    slacks=(1.5,), repetitions=2, seed=3)
        tables = [sweep(**grid, shard=ShardSpec(i, 2)) for i in range(2)]
        merged = merge_shard_dumps(
            [ShardDump.from_payload(dump_payload(t), path=f"<s{i}>")
             for i, t in enumerate(tables)])
        full = sweep(**grid)
        assert rows_signature(merged) == rows_signature(full)
        assert set(merged.column("n_tasks")) == {8}

    def test_shards_share_a_disk_cache(self, tmp_path):
        """A merged warm re-run is served by the cache, not the pool."""
        for i in range(1, 4):
            table = sweep(**GRID, shard=f"{i}/3",
                          cache=disk_cache(tmp_path / "cache"))
            assert sweep_cache_stats(table)["hits"] == 0  # cold legs
        warm = sweep(**GRID, cache=disk_cache(tmp_path / "cache"))
        assert sweep_cache_stats(warm)["hit_rate"] == 1.0
        assert all(warm.column("cache_hit"))


class TestMerge:
    def test_merge_rejects_mismatched_grids(self):
        tables = _shard_tables(3)
        other = sweep(**{**GRID, "seed": 8}, shard=ShardSpec(0, 3))
        bad = _dumps([other] + tables[1:])
        with pytest.raises(FingerprintMismatchError):
            merge_shard_dumps(bad)

    def test_merge_detects_gaps(self):
        tables = _shard_tables(3)
        with pytest.raises(ShardGapError) as err:
            merge_shard_dumps(_dumps(tables)[:2])
        assert "uncovered" in str(err.value)

    def test_merge_detects_truncated_shard_rows(self):
        dumps = _dumps(_shard_tables(3))
        dumps[1].rows = dumps[1].rows[:-1]
        with pytest.raises(ShardGapError):
            merge_shard_dumps(dumps)

    def test_merge_detects_duplicate_shards(self):
        dumps = _dumps(_shard_tables(3))
        with pytest.raises(ShardOverlapError):
            merge_shard_dumps(dumps + [dumps[0]])

    def test_merge_detects_foreign_rows(self):
        dumps = _dumps(_shard_tables(3))
        foreign = list(dumps[0].rows[0])
        foreign[4] = 123456789  # a seed not in the grid
        dumps[1].rows.append(foreign)
        with pytest.raises(ShardOverlapError):
            merge_shard_dumps(dumps)

    def test_merge_rejects_mixed_strategies(self):
        rr = sweep(**GRID, shard=ShardSpec(0, 3, strategy="round-robin"))
        cw = _shard_tables(3)[1:]
        with pytest.raises(MergeError, match="strategy"):
            merge_shard_dumps(_dumps([rr] + cw))

    def test_merge_rejects_inconsistent_shard_counts(self):
        two = sweep(**GRID, shard=ShardSpec(0, 2))
        three = _shard_tables(3)[1:]
        with pytest.raises(MergeError, match="shard_count"):
            merge_shard_dumps(_dumps([two] + three))

    def test_merge_of_a_single_full_dump_is_identity(self):
        full = sweep(**GRID)
        merged = merge_shard_dumps(_dumps([full]))
        assert rows_signature(merged) == rows_signature(full)

    def test_merge_requires_dumps(self):
        with pytest.raises(MergeError):
            merge_shard_dumps([])


class TestDumpFiles:
    def test_write_and_load_round_trip(self, tmp_path):
        table = sweep(**GRID, shard="1/3")
        path = write_shard_dump(tmp_path / "s1.json", table)
        dump = load_shard_dump(path)
        assert dump.fingerprint == table.manifest["fingerprint"]
        assert dump.shard_index == 0 and dump.shard_count == 3
        assert len(dump.rows) == len(table)
        assert dump.grid == [tuple(c) for c in table.manifest["grid"]]

    def test_merge_accepts_paths_and_dumps_mixed(self, tmp_path):
        tables = _shard_tables(3)
        paths = [write_shard_dump(tmp_path / f"s{i}.json", t)
                 for i, t in enumerate(tables)]
        merged = merge_shard_dumps([paths[0], load_shard_dump(paths[1]),
                                    paths[2]])
        assert rows_signature(merged) == rows_signature(sweep(**GRID))

    def test_corrupt_dump_is_a_merge_error(self, tmp_path):
        path = tmp_path / "corrupt.json"
        path.write_text('{"kind": "repro-sweep-shard", "trunc')
        with pytest.raises(MergeError, match="corrupt"):
            load_shard_dump(path)

    def test_wrong_kind_is_a_merge_error(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"kind": "something-else"}))
        with pytest.raises(MergeError, match="kind"):
            load_shard_dump(path)

    def test_missing_header_fields_are_a_merge_error(self, tmp_path):
        path = tmp_path / "partial.json"
        path.write_text(json.dumps({"kind": "repro-sweep-shard",
                                    "fingerprint": "abc"}))
        with pytest.raises(MergeError, match="missing"):
            load_shard_dump(path)

    def test_dump_requires_a_sweep_manifest(self):
        from repro.utils.tables import Table

        with pytest.raises(MergeError, match="manifest"):
            dump_payload(Table(columns=["a"]))


class TestServiceSharding:
    def test_submit_sweep_shard_tags_the_job_table(self):
        from repro.service import SolverService

        with SolverService(workers=2, use_threads=True) as service:
            handles = [service.submit_sweep(**GRID, shard=f"{i}/3")
                       for i in range(1, 4)]
            tables = [service.job_table(h.job_id, timeout=120)
                      for h in handles]
        assert sum(len(t) for t in tables) == 24
        fingerprints = {t.column("grid_fingerprint")[0] for t in tables}
        assert len(fingerprints) == 1
        assert [t.column("shard_index")[0] for t in tables] == [0, 1, 2]
        record = handles[0].describe()
        assert record["shard"] == "1/3"
        assert record["grid_fingerprint"] == fingerprints.pop()

    def test_service_shards_merge_like_cli_shards(self):
        from repro.service import SolverService

        with SolverService(workers=2, use_threads=True) as service:
            tables = [service.job_table(
                service.submit_sweep(**GRID, shard=f"{i}/3").job_id,
                timeout=120) for i in range(1, 4)]
        merged = merge_shard_dumps(_dumps(_shard_tables(3)))
        service_rows = sorted(
            tuple(r[:5]) for t in tables for r in t.rows)
        assert service_rows == sorted(tuple(r[:5]) for r in merged.rows)


class TestCLI:
    def test_sweep_shard_out_and_merge(self, tmp_path, capsys):
        from repro.cli import main

        args = ["--classes", "chain,tree", "--sizes", "8", "--slacks",
                "1.3,2.0", "--repetitions", "2", "--seed", "5"]
        for i in range(1, 4):
            code = main(["sweep", *args, "--shard", f"{i}/3",
                         "--out", str(tmp_path / f"s{i}.json"), "--csv"])
            assert code == 0
        capsys.readouterr()
        code = main(["merge", *(str(tmp_path / f"s{i}.json")
                                for i in range(1, 4)),
                     "--out", str(tmp_path / "merged.json"), "--csv"])
        assert code == 0
        captured = capsys.readouterr()
        assert "merged 3 shard dump(s) -> 8 rows" in captured.err
        merged = load_shard_dump(tmp_path / "merged.json")
        assert len(merged.rows) == 8

    def test_merge_gap_exits_nonzero(self, tmp_path, capsys):
        from repro.cli import main

        args = ["--classes", "chain,tree", "--sizes", "8", "--slacks",
                "1.3,2.0", "--repetitions", "2", "--seed", "5"]
        for i in range(1, 4):
            main(["sweep", *args, "--shard", f"{i}/3",
                  "--out", str(tmp_path / f"s{i}.json"), "--csv"])
        capsys.readouterr()
        dumps = {i: load_shard_dump(tmp_path / f"s{i}.json")
                 for i in range(1, 4)}
        dropped = next(i for i, d in dumps.items() if d.rows)
        kept = [str(tmp_path / f"s{i}.json") for i in dumps if i != dropped]
        code = main(["merge", *kept])
        assert code == 2
        assert "uncovered" in capsys.readouterr().err

    def test_bad_shard_spelling_exits_nonzero(self, capsys):
        from repro.cli import main

        code = main(["sweep", "--classes", "chain", "--sizes", "8",
                     "--shard", "0/3"])
        assert code == 2
        assert "1-based" in capsys.readouterr().err
