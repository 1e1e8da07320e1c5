"""The benchmark's own arithmetic: percentiles, self time, answer checks."""

from __future__ import annotations

import json
import os
import sys

import pytest

from perfbench import inputs, library_load, serve_load
from perfbench.benchstats import covered_length, percentile
from perfbench.spans import Span, SpanRecorder, self_times


class TestPercentile:
    def test_refuses_fewer_than_ten_samples_beyond(self):
        with pytest.raises(ValueError, match="9 beyond"):
            percentile(range(99), 90)
        with pytest.raises(ValueError):
            percentile(range(19), 50)

    def test_nearest_rank_with_ten_beyond(self):
        assert percentile(range(100), 90) == 89
        assert percentile(range(20), 50) == 9


class TestCpuRotation:
    def test_pins_one_cpu_per_turn_and_gives_them_back(self):
        allowed = os.sched_getaffinity(0)
        for turn in range(len(allowed) + 1):
            with library_load.on_cpu(turn):
                (cpu,) = os.sched_getaffinity(0)
                assert cpu in allowed
            assert os.sched_getaffinity(0) == allowed


class TestSelfTime:
    def test_subtracts_nested_and_back_to_back_children(self):
        spans = [
            Span(1, 0, "outer", 0.0, 10.0, 0.0, 8.0, None),
            Span(2, 1, "a", 1.0, 4.0, 1.0, 3.0, None),
            Span(3, 2, "a.inner", 2.0, 3.0, 1.5, 2.0, None),  # nested in a
            Span(4, 1, "b", 4.0, 6.0, 3.0, 4.5, None),  # right after a
        ]
        own = self_times(spans)
        assert own[1] == pytest.approx((5.0, 4.5))
        assert own[2] == pytest.approx((2.0, 1.5))
        assert own[3] == pytest.approx((1.0, 0.5))
        assert own[4] == pytest.approx((2.0, 1.5))

    def test_overlapping_intervals_count_once(self):
        assert covered_length(0.0, 10.0, [(1, 4), (3, 6), (6, 7), (9, 12)]) \
            == pytest.approx(7.0)

    def test_recorder_links_spans_to_the_open_span(self):
        recorder = SpanRecorder()
        inner = recorder.wrap("inner", lambda: None)
        middle = recorder.wrap("middle", lambda: inner())
        outer = recorder.wrap("outer", lambda: (middle(), inner()),
                              measure=lambda _args, result: len(result))
        outer()
        by_name = {}
        for span in recorder.spans:
            by_name.setdefault(span.name, []).append(span)
        (top,) = by_name["outer"]
        (mid,) = by_name["middle"]
        assert top.parent == 0 and top.value == 2
        assert mid.parent == top.id
        assert sorted(s.parent for s in by_name["inner"]) == \
            sorted([mid.id, top.id])


class TestAnswerChecks:
    SEED = 5

    def _solved(self):
        from repro.api.protocol import SolveRequest, SolveResponse

        block = inputs.tree_block(self.SEED, inputs.TIMED, 0, 1)
        (payload,) = inputs.instance_payloads(block)
        problem = SolveRequest.from_wire(json.loads(payload)).build_problem()
        solution = sys.modules["repro.solve"].solve(problem)
        row = SolveResponse(ok=True, name=block.names[0], n_tasks=8,
                            energy=solution.energy, solver=solution.solver)
        return block, payload, row

    def _reply(self, row) -> serve_load.Reply:
        return serve_load.Reply(0, 200, json.dumps(row.to_wire()).encode(),
                                0.001)

    def test_vectorised_bound_matches_the_library(self):
        from repro.api.protocol import SolveRequest
        from repro.continuous.bounds import critical_path_lower_bound

        block = inputs.tree_block(self.SEED, inputs.CHECK, 0, 32)
        for payload, fast in zip(inputs.instance_payloads(block),
                                 inputs.tree_lower_bounds(block)):
            problem = SolveRequest.from_wire(json.loads(payload)) \
                .build_problem()
            assert fast == pytest.approx(critical_path_lower_bound(problem),
                                         rel=1e-12)

    def test_flags_energy_below_the_lower_bound(self):
        import dataclasses

        block, _payload, row = self._solved()
        bound = float(inputs.tree_lower_bounds(block)[0])
        assert serve_load.check_replies(
            "serve_singles", self.SEED, [self._reply(row)]) == (1, 1)
        low = dataclasses.replace(row, energy=0.9 * bound)
        assert serve_load.check_replies(
            "serve_singles", self.SEED, [self._reply(low)]) == (0, 1)

    def test_flags_a_perturbed_row_of_a_batch_frame(self, monkeypatch):
        import dataclasses

        from repro.api.protocol import SolveRequest, SolveResponse
        from repro.api.rowcodec import encode_rows

        monkeypatch.setattr(inputs, "BATCH_SIZE", 4)
        block = inputs.tree_block(self.SEED, inputs.TIMED, 0, 4)
        rows = []
        for name, payload in zip(block.names,
                                 inputs.instance_payloads(block)):
            problem = SolveRequest.from_wire(json.loads(payload)) \
                .build_problem()
            solution = sys.modules["repro.solve"].solve(problem)
            rows.append(SolveResponse(ok=True, name=name, n_tasks=8,
                                      energy=solution.energy,
                                      solver=solution.solver))

        def reply(frame_rows) -> serve_load.Reply:
            return serve_load.Reply(
                0, 200, json.dumps(encode_rows(frame_rows)).encode(), 0.1)

        assert serve_load.check_replies(
            "serve_batch", self.SEED, [reply(rows)]) == (4, 4)
        bound = float(inputs.tree_lower_bounds(block)[2])
        rows[2] = dataclasses.replace(rows[2], energy=0.5 * bound)
        assert serve_load.check_replies(
            "serve_batch", self.SEED, [reply(rows)]) == (3, 4)
        # rows out of request order are wrong too
        assert serve_load.check_replies(
            "serve_batch", self.SEED, [reply(rows[::-1])]) == (0, 4)

    def test_flags_energy_off_the_scalar_path(self):
        import dataclasses

        block, payload, row = self._solved()
        bound = float(inputs.tree_lower_bounds(block)[0])
        ratio = serve_load.sample_ratio(row, row.name, payload, bound)
        assert ratio == pytest.approx(row.energy / bound)
        perturbed = dataclasses.replace(row, energy=row.energy * (1 + 1e-7))
        assert serve_load.sample_ratio(perturbed, row.name, payload,
                                       bound) is None
        assert serve_load.sample_ratio(None, row.name, payload, bound) is None


class TestSweepChecks:
    GRID = dict(graph_classes=("tree", "erdos"), sizes=(24,),
                slacks=(1.5,), repetitions=2, s_max=float("inf"))

    def test_flags_perturbed_cold_and_warm_rows(self, monkeypatch, tmp_path):
        from repro.cache import disk_cache

        monkeypatch.setattr(inputs, "SWEEP_GRID", self.GRID)
        sweep = library_load._sweep_fn()
        cache = disk_cache(tmp_path)
        cold = sweep(**self.GRID, seed=3, cache=cache)
        warm = sweep(**self.GRID, seed=3, cache=cache)
        assert library_load._check_cold(cold, 3) == 4
        assert library_load._check_cold(warm, 3) == 0  # read from the cache
        assert library_load._check_warm(cold, warm) == 4
        assert library_load._check_warm(cold, cold) == 0  # not cache hits

        energy = cold.columns.index("energy")
        warm.rows[1][energy] *= 1 + 1e-12
        assert library_load._check_warm(cold, warm) == 3
        cold.rows[2][energy] = 0.5 * library_load._grid_bounds(
            3, **self.GRID)[2]
        assert library_load._check_cold(cold, 3) == 3
