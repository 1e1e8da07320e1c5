"""Tests for the async solver-service front-end.

Covers: submitting problem lists and sweep grids, polling status/progress,
blocking and awaited completion, per-instance failure capture inside a job,
cache-backed submissions resolving without touching the pool, job tables,
cancellation/shutdown, and the interrupt/worker-death hardening of the
underlying ``solve_many`` fan-out.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import sys
import time
from concurrent.futures import FIRST_COMPLETED

import pytest

import repro.batch.engine as engine
from repro.batch import WireInstance, failed, solve_batch, solve_many, summarize
from repro.cache import memory_cache
from repro.core.models import ContinuousModel, DiscreteModel
from repro.core.problem import MinEnergyProblem
from repro.graphs import generators
from repro.service import JobStatus, SolverService
from repro.solve import cache_key_for
from repro.utils.errors import ShutdownError

MODES = (0.4, 0.6, 0.8, 1.0)


def _problem(n: int = 10, *, slack: float = 1.5, seed: int = 1,
             model=None) -> MinEnergyProblem:
    graph = generators.layered_dag(n, seed=seed)
    return MinEnergyProblem(graph=graph, deadline=slack * graph.total_work(),
                            model=model or ContinuousModel(s_max=1.0))


def _infeasible(seed: int = 2) -> MinEnergyProblem:
    graph = generators.chain(6, seed=seed)
    return MinEnergyProblem(graph=graph, deadline=0.4 * graph.total_work(),
                            model=ContinuousModel(s_max=1.0))


@pytest.fixture
def service():
    with SolverService(workers=2, use_threads=True) as svc:
        yield svc


class TestSubmission:
    def test_submit_problem_list_and_poll_to_completion(self, service):
        handle = service.submit([_problem(seed=s) for s in range(3)],
                                name="triple")
        assert handle.total == 3
        results = handle.results(timeout=60)
        assert handle.status() is JobStatus.DONE
        assert [r.ok for r in results] == [True] * 3
        assert [r.index for r in results] == [0, 1, 2]
        progress = handle.progress()
        assert progress.done == 3 and progress.failed == 0
        assert progress.fraction == 1.0

    def test_submit_sweep_grid(self, service):
        handle = service.submit_sweep(graph_classes=("chain", "tree"),
                                      sizes=(8,), slacks=(1.5,),
                                      repetitions=2, seed=5)
        results = handle.results(timeout=60)
        assert len(results) == 4
        assert all(r.ok for r in results)
        # grid coordinates survive into the job table
        table = service.job_table(handle.job_id)
        assert set(table.column("graph_class")) == {"chain", "tree"}
        assert all(isinstance(s, int) for s in table.column("seed"))

    def test_submit_mapping_is_a_sweep(self, service):
        handle = service.submit({"graph_classes": ("chain",), "sizes": (6,),
                                 "slacks": (1.5,), "repetitions": 1, "seed": 3})
        assert handle.total == 1
        assert handle.results(timeout=60)[0].ok

    def test_per_instance_failures_are_captured_not_fatal(self, service):
        handle = service.submit([_problem(seed=1), _infeasible(), _problem(seed=3)])
        results = handle.results(timeout=60)
        assert handle.status() is JobStatus.DONE
        assert [r.ok for r in results] == [True, False, True]
        assert results[1].error_type == "InfeasibleProblemError"
        assert handle.progress().failed == 1

    def test_seeds_recorded_in_metadata(self, service):
        handle = service.submit([_problem(seed=9)], seeds=[1234])
        [result] = handle.results(timeout=60)
        assert result.metadata["seed"] == 1234
        assert result.metadata["cache_hit"] is False

    def test_submit_mapping_rejects_seeds_and_reserved_keys(self, service):
        with pytest.raises(ValueError, match="seeds"):
            service.submit({"graph_classes": ("chain",), "sizes": (6,)},
                           seeds=[7])
        with pytest.raises(ValueError, match="keyword arguments"):
            service.submit({"graph_classes": ("chain",), "sizes": (6,),
                            "name": "collides"})

    def test_submit_after_shutdown_raises(self):
        svc = SolverService(workers=1, use_threads=True)
        svc.shutdown()
        with pytest.raises(RuntimeError):
            svc.submit([_problem()])

    def test_shutdown_during_submit_raises_shutdown_error(self):
        # the cache pre-pass runs before the pool sees any work: a shutdown
        # landing inside it must surface typed, not as the executor's bare
        # "cannot schedule new futures after shutdown"
        cache = memory_cache()
        svc = SolverService(workers=1, use_threads=True, cache=cache)
        lookup = cache.get

        def get_then_shut_down(key):
            svc.shutdown()
            return lookup(key)

        cache.get = get_then_shut_down
        with pytest.raises(ShutdownError):
            svc.submit([_problem()])


class TestAsyncCompletion:
    def test_await_handle_returns_results(self, service):
        async def run():
            handle = service.submit([_problem(seed=s) for s in range(3)])
            return await handle

        results = asyncio.run(run())
        assert [r.ok for r in results] == [True] * 3

    def test_gather_many_jobs(self, service):
        async def run():
            handles = [service.submit([_problem(seed=s)]) for s in range(3)]
            return await asyncio.gather(*(h.wait() for h in handles))

        batches = asyncio.run(run())
        assert [len(b) for b in batches] == [1, 1, 1]
        assert all(b[0].ok for b in batches)


class TestServiceCache:
    def test_warm_cache_resolves_without_touching_the_pool(self):
        cache = memory_cache()
        with SolverService(workers=1, use_threads=True, cache=cache) as svc:
            first = svc.submit([_problem(seed=s) for s in range(2)])
            first.results(timeout=60)
            second = svc.submit([_problem(seed=s) for s in range(2)])
            # every instance pre-resolved: no futures, job born DONE
            assert second.status() is JobStatus.DONE
            results = second.results(timeout=0)
            assert all(r.cache_hit for r in results)
            assert all(r.seconds > 0 for r in results)  # the measured lookup
            assert second.progress().cache_hits == 2

    def test_mixed_hit_miss_submission(self):
        cache = memory_cache()
        with SolverService(workers=1, use_threads=True, cache=cache) as svc:
            svc.submit([_problem(seed=1)]).results(timeout=60)
            handle = svc.submit([_problem(seed=1), _problem(seed=2)])
            results = handle.results(timeout=60)
            assert [r.cache_hit for r in results] == [True, False]


class TestJobBookkeeping:
    def test_jobs_listing_and_lookup(self, service):
        h1 = service.submit([_problem(seed=1)], name="first")
        h2 = service.submit([_problem(seed=2)], name="second")
        assert [h.name for h in service.jobs()] == ["first", "second"]
        assert service.job(h1.job_id) is h1
        with pytest.raises(KeyError):
            service.job("job-unknown")
        h1.results(timeout=60)
        h2.results(timeout=60)

    def test_cancelled_rows_keep_instance_identity(self):
        from concurrent.futures import Future

        from repro.service.jobs import JobHandle

        never_ran = Future()
        assert never_ran.cancel()
        handle = JobHandle("job-x", futures=[never_ran], future_indices=[0],
                           total=1, instance_meta=[("my-problem", 7)])
        [row] = handle.results(timeout=0)
        assert not row.ok and row.error_type == "CancelledError"
        assert row.name == "my-problem" and row.n_tasks == 7

    def test_describe_is_jsonable(self, service):
        import json

        handle = service.submit([_problem(seed=4)], name="desc")
        handle.results(timeout=60)
        record = handle.describe()
        assert record["status"] == "done"
        assert record["total"] == 1
        json.dumps(record)  # must not raise


class TestFanOutHardening:
    """Satellite: solve_many survives interrupts and worker death."""

    def test_serial_keyboard_interrupt_returns_partial_results(self, monkeypatch):
        import repro.batch.engine as engine

        problems = [_problem(seed=s) for s in range(3)]
        real = engine._solve_one
        calls = {"n": 0}

        def interrupting(item):
            calls["n"] += 1
            if calls["n"] == 2:
                raise KeyboardInterrupt
            return real(item)

        monkeypatch.setattr(engine, "_solve_one", interrupting)
        results = engine.solve_many(problems, workers=None)
        assert len(results) == 3
        assert results[0].ok
        assert not results[1].ok and results[1].error_type == "KeyboardInterrupt"
        assert not results[2].ok and results[2].error_type == "KeyboardInterrupt"
        assert len(failed(results)) == 2

    @pytest.mark.skipif(sys.platform != "linux", reason="fork start method")
    def test_pool_worker_death_recorded_not_leaked(self):
        problems = [_problem(seed=1), _problem(seed=2, model=_LethalModel()),
                    _problem(seed=3)]
        results = solve_many(problems, workers=2)
        assert len(results) == 3
        stats = summarize(results)
        assert stats["n_failed"] >= 1
        dead = [r for r in results if r.error_type == "BrokenProcessPool"]
        assert dead, [r.error_type for r in results]

    def test_summarize_reports_cache_hits_field(self):
        results = solve_many([_problem(seed=1)])
        assert summarize(results)["cache_hits"] == 0

    @pytest.mark.skipif(sys.platform != "linux", reason="fork start method")
    def test_pooled_interrupt_returns_every_row_and_leaves_no_worker(
            self, monkeypatch):
        problems = [_problem(seed=s) for s in range(12)]
        seeds = list(range(100, 112))
        reference = solve_many(problems, seeds=seeds)
        real_wait = engine.wait

        def interrupted_wait(futures):
            real_wait(futures, return_when=FIRST_COMPLETED)
            raise KeyboardInterrupt

        before = set(multiprocessing.active_children())
        monkeypatch.setattr(engine, "wait", interrupted_wait)
        results = solve_many(problems, workers=2, seeds=seeds)
        assert [r.index for r in results] == list(range(12))
        assert any(r.ok for r in results)
        assert any(not r.ok for r in results)
        for row, ref in zip(results, reference):
            assert row.metadata["seed"] == ref.metadata["seed"]
            if row.ok:  # finished instances are intact
                assert row.energy == pytest.approx(ref.energy, rel=1e-12)
                assert row.solver == ref.solver
            else:
                assert row.error_type == "KeyboardInterrupt"
        give_up = time.monotonic() + 10.0
        while set(multiprocessing.active_children()) - before \
                and time.monotonic() < give_up:
            time.sleep(0.05)
        assert not set(multiprocessing.active_children()) - before

    def test_pooled_cache_holds_every_envelope_when_rows_return(self):
        problems = [_problem(seed=s) for s in range(24)]
        cache = memory_cache()
        cold = solve_many(problems, workers=2, cache=cache)
        assert all(r.ok for r in cold)
        assert all(cache.get(cache_key_for(p)) is not None for p in problems)
        warm = solve_many(problems, workers=2, cache=cache)
        assert all(r.cache_hit for r in warm)
        assert [r.energy for r in warm] == [r.energy for r in cold]


def _serial_capture(monkeypatch):
    return solve_many([_infeasible()], seeds=[41])[0], \
        "InfeasibleProblemError", 41


def _serial_interrupt(monkeypatch):
    def interrupting(item):
        raise KeyboardInterrupt

    monkeypatch.setattr(engine, "_solve_one", interrupting)
    return solve_many([_problem()], seeds=[42])[0], "KeyboardInterrupt", 42


def _cancelled_job_future(monkeypatch):
    with SolverService(workers=1, use_threads=True) as svc:
        handle = svc.submit([_problem(seed=s) for s in range(6)],
                            seeds=[43 + s for s in range(6)])
        handle.cancel()
        rows = handle.results(timeout=60)
    cancelled = [r for r in rows if r.error_type == "CancelledError"]
    assert cancelled, [r.error_type for r in rows]
    return cancelled[0], "CancelledError", 43 + cancelled[0].index


def _unmaterialisable_spec(monkeypatch):
    # a graph dict without tasks, so the scalar path cannot build a problem
    wire = WireInstance({"name": "g", "edges": [["a", "b"], ["b", "c"]]},
                        deadline=6.0, name="unbuildable")
    return solve_batch([wire], method="convex")[0], "InvalidGraphError", None


@pytest.mark.parametrize("site", [_serial_capture, _serial_interrupt,
                                  _cancelled_job_future,
                                  _unmaterialisable_spec],
                         ids=lambda site: site.__name__.strip("_"))
def test_every_failure_site_builds_the_same_row(site, monkeypatch):
    row, error_type, seed = site(monkeypatch)
    assert row.ok is False
    assert row.error_type == error_type
    assert row.error
    assert row.cache_hit is False
    assert row.metadata.get("seed") == seed
    assert row.energy is None and row.solver is None


class TestCliSubmitAndJobs:
    def test_submit_writes_record_and_jobs_lists_it(self, tmp_path, capsys):
        from repro.cli import main

        code = main(["submit", "--classes", "chain", "--sizes", "6,8",
                     "--slacks", "1.5", "--workers", "2", "--poll", "0.05",
                     "--jobs-dir", str(tmp_path), "--name", "smoke", "--csv"])
        captured = capsys.readouterr()
        assert code == 0
        lines = [l for l in captured.out.strip().splitlines() if l]
        assert lines[0].startswith("graph_class,")
        assert len(lines) == 3  # header + 2 rows
        assert "record:" in captured.err
        records = list(tmp_path.glob("*.json"))
        assert len(records) == 1

        code = main(["jobs", "--jobs-dir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "smoke" in out and "done" in out

    def test_jobs_empty_dir(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["jobs", "--jobs-dir", str(tmp_path / "nope")]) == 0
        assert "no job records" in capsys.readouterr().out


class _LethalModel(ContinuousModel):
    """A model whose feasibility probe kills the worker process outright.

    ``SystemExit``/``os._exit`` bypass the per-instance ``except Exception``
    capture, so the pool sees a dead worker — exactly the failure mode the
    graceful-shutdown path must absorb.
    """

    @property
    def max_speed(self) -> float:
        os._exit(13)
