"""Tests for the command-line interface (``python -m repro``)."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main
from repro.graphs import generators, graph_to_json


@pytest.fixture
def graph_file(tmp_path):
    graph = generators.layered_dag(12, seed=3)
    path = tmp_path / "graph.json"
    path.write_text(graph_to_json(graph))
    return path


class TestSolveCommand:
    def test_continuous_solve(self, graph_file, capsys):
        code = main(["solve", str(graph_file), "--model", "continuous", "--slack", "1.5"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["model"] == "continuous"
        assert payload["energy"] > 0
        assert payload["makespan"] <= payload["deadline"] * (1 + 1e-6)
        assert len(payload["speeds"]) == 12

    def test_discrete_solve_with_modes(self, graph_file, capsys):
        code = main(["solve", str(graph_file), "--model", "discrete",
                     "--modes", "0.5,1.0", "--slack", "1.6"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload["speeds"].values()) <= {0.5, 1.0}

    def test_vdd_solve_with_absolute_deadline(self, graph_file, capsys):
        graph = generators.layered_dag(12, seed=3)
        deadline = 1.5 * sum(graph.works().values())
        code = main(["solve", str(graph_file), "--model", "vdd",
                     "--modes", "0.4,0.7,1.0", "--deadline", str(deadline)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["solver"].startswith("vdd")

    def test_incremental_solve_default_grid(self, graph_file, capsys):
        code = main(["solve", str(graph_file), "--model", "incremental", "--slack", "1.5"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["model"] == "incremental"

    def test_bad_modes_reported(self, graph_file, capsys):
        code = main(["solve", str(graph_file), "--model", "discrete", "--modes", "a,b"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_missing_graph_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            main(["solve", str(tmp_path / "missing.json")])

    def test_infeasible_reported_as_error(self, graph_file, capsys):
        code = main(["solve", str(graph_file), "--model", "discrete",
                     "--modes", "0.5,1.0", "--deadline", "0.001"])
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestExperimentCommand:
    def test_list_experiments(self, capsys):
        code = main(["experiment", "--list"])
        assert code == 0
        out = capsys.readouterr().out
        for key in ("E1", "E5", "E10"):
            assert key in out

    def test_no_id_lists_experiments(self, capsys):
        assert main(["experiment"]) == 0
        assert "E1" in capsys.readouterr().out

    def test_unknown_experiment(self, capsys):
        code = main(["experiment", "E99"])
        assert code == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_parser_structure(self):
        parser = build_parser()
        args = parser.parse_args(["solve", "g.json", "--model", "vdd"])
        assert args.command == "solve"
        assert args.model == "vdd"
        args = parser.parse_args(["experiment", "E3", "--csv"])
        assert args.experiment_id == "E3"
        assert args.csv
        args = parser.parse_args(["sweep", "--shard", "2/3", "--out", "s.json"])
        assert args.shard == "2/3" and args.out == "s.json"
        args = parser.parse_args(["merge", "a.json", "b.json", "--csv"])
        assert args.dumps == ["a.json", "b.json"]
        args = parser.parse_args(["solve", "g.json", "--backend", "highs"])
        assert args.backend == "highs"
        args = parser.parse_args(["backends", "--json"])
        assert args.command == "backends" and args.json


class TestBackendsCommand:
    def test_lists_registered_backends_with_availability(self, capsys):
        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        for name in ("highs", "mehrotra-ipm", "cvxpy"):
            assert name in out
        assert not any(line.startswith("simplex ")
                       for line in out.splitlines())
        assert "registered backend(s)" in out
        # the probe-gated optional entries always appear, marked either way
        assert "optional" in out

    def test_json_output_matches_the_live_registry(self, capsys):
        from repro.modeling import BACKENDS

        assert main(["backends", "--json"]) == 0
        entries = json.loads(capsys.readouterr().out)
        assert {e["name"] for e in entries} == set(BACKENDS.names())
        assert len(entries) >= 4
        highs = next(e for e in entries if e["name"] == "highs")
        assert highs["available"] and "vdd-hopping/lp" in highs["routes"]

    def test_solve_backend_flag_routes_to_the_registry(self, graph_file, capsys):
        code = main(["solve", str(graph_file), "--model", "vdd",
                     "--backend", "highs"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["solver"] == "vdd-lp-highs"
        # the certified bound rides along with the optimum
        assert payload["lower_bound"] == pytest.approx(payload["energy"],
                                                       rel=1e-6)

    def test_solve_unknown_backend_names_the_available_set(self, graph_file,
                                                           capsys):
        for backend in ("cplex", "simplex"):
            code = main(["solve", str(graph_file), "--model", "vdd",
                         "--backend", backend])
            assert code == 2
            err = capsys.readouterr().err
            assert f"unknown backend {backend!r}" in err
            # the registered LP backends, not the convex-only ones
            assert "for 'lp' models:" in err and "highs" in err
            assert "mehrotra-ipm" not in err


class TestJobsCommand:
    def _record(self, jobs_dir, job_id, **extra):
        record = {"job_id": job_id, "status": "done", "created_at": 1.0,
                  "total": 2, "done": 2, "failed": 0, "cache_hits": 0,
                  "name": job_id, **extra}
        (jobs_dir / f"{job_id}.json").write_text(json.dumps(record))

    def test_listing_survives_truncated_and_corrupt_records(self, tmp_path, capsys):
        jobs_dir = tmp_path / "jobs"
        jobs_dir.mkdir()
        self._record(jobs_dir, "job-good")
        (jobs_dir / "truncated.json").write_text('{"job_id": "job-tr')
        (jobs_dir / "not-a-record.json").write_text("[1, 2, 3]")
        code = main(["jobs", "--jobs-dir", str(jobs_dir)])
        captured = capsys.readouterr()
        assert code == 0
        assert "job-good" in captured.out
        assert captured.err.count("warning: skipping") == 2
        assert "truncated.json" in captured.err
        assert "not-a-record.json" in captured.err

    def test_listing_survives_badly_typed_fields(self, tmp_path, capsys):
        jobs_dir = tmp_path / "jobs"
        jobs_dir.mkdir()
        self._record(jobs_dir, "job-good")
        self._record(jobs_dir, "job-bad", created_at="not-a-number",
                     failed=None, cache_hits=None, name=None)
        code = main(["jobs", "--jobs-dir", str(jobs_dir)])
        captured = capsys.readouterr()
        assert code == 0
        assert "job-good" in captured.out and "job-bad" in captured.out

    def test_empty_dir_reports_no_records(self, tmp_path, capsys):
        code = main(["jobs", "--jobs-dir", str(tmp_path / "missing")])
        assert code == 0
        assert "no job records" in capsys.readouterr().out
