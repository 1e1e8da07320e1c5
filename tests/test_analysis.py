"""Tests for the AST invariant checker (``repro lint``).

Each rule gets a true-positive, a true-negative, and (via the runner) a
suppression fixture; the meta-test at the end asserts the shipped
package itself lints clean, which is what keeps the baseline empty.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

import repro
from repro.analysis import (ALL_RULES, Finding, ProjectModel, run_lint,
                            rules_by_name)
from repro.analysis.baseline import load_baseline, save_baseline
from repro.analysis.rules.assembly import ModelingOnlyAssemblyRule
from repro.analysis.rules.atomic_writes import AtomicWritesRule
from repro.analysis.rules.failpoint_registry import FailpointRegistryRule
from repro.analysis.rules.locks import LockDisciplineRule
from repro.analysis.rules.retry_safety import RetrySafetyRule
from repro.analysis.rules.schema_drift import SchemaDriftRule
from repro.analysis.rules.typed_errors import TypedErrorsRule
from repro.cli import main
from repro.utils.errors import InvalidParameterError


def make_project(tmp_path, files: dict) -> Path:
    root = tmp_path / "pkg"
    for rel, src in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(src))
    return root


def findings_of(rule, root: Path) -> list[Finding]:
    return sorted(rule.check(ProjectModel(root, package="repro")))


ERRORS_MODULE = """\
    class ReproError(Exception):
        pass

    class GoodError(ReproError):
        pass
    """


# --------------------------------------------------------------------- #
# typed-errors
# --------------------------------------------------------------------- #
class TestTypedErrorsRule:
    def test_flags_builtin_and_untyped_raises(self, tmp_path):
        root = make_project(tmp_path, {
            "utils/errors.py": ERRORS_MODULE,
            "api/thing.py": """\
                class Oops(Exception):
                    pass

                def f(x):
                    if x < 0:
                        raise ValueError("negative")
                    raise Oops("untyped")
                """,
        })
        found = findings_of(TypedErrorsRule(), root)
        assert [(f.file, f.line) for f in found] == [
            ("api/thing.py", 6), ("api/thing.py", 7)]
        assert "ValueError" in found[0].message
        assert "Oops" in found[1].message

    def test_accepts_typed_raises_and_control_flow(self, tmp_path):
        root = make_project(tmp_path, {
            "utils/errors.py": ERRORS_MODULE,
            "api/thing.py": """\
                from repro.utils.errors import GoodError

                def f(x):
                    if x < 0:
                        raise GoodError("negative")
                    if x == 0:
                        raise NotImplementedError
                    raise  # bare re-raise is fine
                """,
        })
        assert findings_of(TypedErrorsRule(), root) == []

    def test_flags_subclass_missing_from_wire_table(self, tmp_path):
        root = make_project(tmp_path, {
            "utils/errors.py": ERRORS_MODULE + """\

    class ForgottenError(ReproError):
        pass
    """,
            "api/protocol.py": """\
                from repro.utils.errors import GoodError, ReproError

                WIRE_ERROR_TYPES: tuple = (GoodError, ReproError)
                """,
        })
        found = findings_of(TypedErrorsRule(), root)
        assert len(found) == 1
        assert found[0].file == "utils/errors.py"
        assert "ForgottenError" in found[0].message
        assert "WIRE_ERROR_TYPES" in found[0].message

    def test_suppression_comment(self, tmp_path):
        root = make_project(tmp_path, {
            "utils/errors.py": ERRORS_MODULE,
            "api/thing.py": """\
                def f():
                    raise ValueError("x")  # repro-lint: disable=typed-errors
                """,
        })
        report = run_lint(root, rules=[TypedErrorsRule()])
        assert report.findings == []
        assert report.suppressed == 1


# --------------------------------------------------------------------- #
# modeling-only-assembly
# --------------------------------------------------------------------- #
class TestModelingOnlyAssemblyRule:
    def test_flags_assembly_outside_modeling(self, tmp_path):
        root = make_project(tmp_path, {
            "batch/build.py": """\
                import scipy.sparse as sp

                def f(rows):
                    return sp.coo_matrix(rows)
                """,
        })
        found = findings_of(ModelingOnlyAssemblyRule(), root)
        assert [(f.file, f.line) for f in found] == [("batch/build.py", 4)]
        assert "coo_matrix" in found[0].message

    def test_allows_modeling_predicates_and_linalg(self, tmp_path):
        root = make_project(tmp_path, {
            "modeling/build.py": """\
                from scipy.sparse import csr_matrix

                def f(rows):
                    return csr_matrix(rows)
                """,
            "batch/solve.py": """\
                import scipy.sparse as sp
                import scipy.sparse.linalg as spla

                def f(mat, b):
                    assert sp.issparse(mat)
                    return spla.spsolve(mat, b)
                """,
        })
        assert findings_of(ModelingOnlyAssemblyRule(), root) == []

    def test_suppression_comment(self, tmp_path):
        root = make_project(tmp_path, {
            "batch/build.py": """\
                import scipy.sparse as sp

                def f(rows):
                    return sp.coo_matrix(rows)  # repro-lint: disable=modeling-only-assembly
                """,
        })
        report = run_lint(root, rules=[ModelingOnlyAssemblyRule()])
        assert report.findings == []
        assert report.suppressed == 1


# --------------------------------------------------------------------- #
# atomic-writes
# --------------------------------------------------------------------- #
class TestAtomicWritesRule:
    def test_flags_bare_writes_in_durable_paths(self, tmp_path):
        root = make_project(tmp_path, {
            "api/store.py": """\
                def save(path, data):
                    path.write_text(data)

                def dump(path, data):
                    with open(path, "w") as fh:
                        fh.write(data)
                """,
        })
        found = findings_of(AtomicWritesRule(), root)
        assert [(f.file, f.line) for f in found] == [
            ("api/store.py", 2), ("api/store.py", 5)]

    def test_allows_atomic_functions_and_non_durable_paths(self, tmp_path):
        root = make_project(tmp_path, {
            "api/store.py": """\
                import os

                def save(path, data):
                    tmp = path.with_name(path.name + ".tmp")
                    tmp.write_text(data)
                    os.replace(tmp, path)

                def helper_save(path, data):
                    from repro.utils.atomicio import atomic_write_text

                    atomic_write_text(path, data)

                def load(path):
                    with open(path) as fh:
                        return fh.read()
                """,
            "utils/report.py": """\
                def save(path, data):
                    path.write_text(data)
                """,
        })
        assert findings_of(AtomicWritesRule(), root) == []

    def test_suppression_comment(self, tmp_path):
        root = make_project(tmp_path, {
            "api/store.py": """\
                def save(path, data):
                    path.write_text(data)  # repro-lint: disable=atomic-writes
                """,
        })
        report = run_lint(root, rules=[AtomicWritesRule()])
        assert report.findings == []
        assert report.suppressed == 1


# --------------------------------------------------------------------- #
# lock-discipline
# --------------------------------------------------------------------- #
class TestLockDisciplineRule:
    def test_flags_unguarded_write_of_guarded_attribute(self, tmp_path):
        root = make_project(tmp_path, {
            "service/svc.py": """\
                import threading

                class Service:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self._count = 0

                    def bump(self):
                        with self._lock:
                            self._count += 1

                    def reset(self):
                        self._count = 0
                """,
        })
        found = findings_of(LockDisciplineRule(), root)
        assert [(f.file, f.line) for f in found] == [("service/svc.py", 13)]
        assert "reset" in found[0].message
        assert "_count" in found[0].message

    def test_flags_blocking_call_under_lock(self, tmp_path):
        root = make_project(tmp_path, {
            "service/svc.py": """\
                import threading
                import time

                class Service:
                    def __init__(self):
                        self._lock = threading.Lock()

                    def tick(self):
                        with self._lock:
                            time.sleep(0.1)
                """,
        })
        found = findings_of(LockDisciplineRule(), root)
        assert len(found) == 1
        assert "time.sleep" in found[0].message

    def test_flags_thread_shared_attribute_without_lock(self, tmp_path):
        root = make_project(tmp_path, {
            "service/svc.py": """\
                import threading

                class Pump:
                    def __init__(self):
                        self._stop = False
                        self._thread = threading.Thread(target=self._run)

                    def _run(self):
                        self._stop = False

                    def stop(self):
                        self._stop = True
                """,
        })
        found = findings_of(LockDisciplineRule(), root)
        assert {f.line for f in found} == {9, 12}
        assert all("_run" in f.message for f in found)

    def test_accepts_guarded_writes_and_init(self, tmp_path):
        root = make_project(tmp_path, {
            "service/svc.py": """\
                import threading

                class Service:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self._count = 0

                    def bump(self):
                        with self._lock:
                            self._count += 1

                    def reset(self):
                        with self._lock:
                            self._count = 0
                """,
        })
        assert findings_of(LockDisciplineRule(), root) == []

    def test_suppression_comment(self, tmp_path):
        root = make_project(tmp_path, {
            "service/svc.py": """\
                import threading

                class Service:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self._count = 0

                    def bump(self):
                        with self._lock:
                            self._count += 1

                    def reset(self):
                        self._count = 0  # repro-lint: disable=lock-discipline
                """,
        })
        report = run_lint(root, rules=[LockDisciplineRule()])
        assert report.findings == []
        assert report.suppressed == 1


# --------------------------------------------------------------------- #
# failpoint-registry
# --------------------------------------------------------------------- #
FAILPOINTS_MODULE = """\
    SITES = frozenset({"jobstore.write", "http.request"})

    def fire(site):
        pass
    """


class TestFailpointRegistryRule:
    def test_flags_unknown_and_unreferenced_sites(self, tmp_path):
        root = make_project(tmp_path, {
            "reliability/failpoints.py": FAILPOINTS_MODULE,
            "api/store.py": """\
                from repro.reliability.failpoints import fire

                def write():
                    fire("jobstore.wirte")
                """,
        })
        found = findings_of(FailpointRegistryRule(), root)
        messages = [f.message for f in found]
        assert len(found) == 3
        assert any("jobstore.wirte" in m and "not registered" in m
                   for m in messages)
        # neither registered site is fired -> both reported at the registry
        assert sum("no fire() call" in m for m in messages) == 2

    def test_accepts_matching_registry(self, tmp_path):
        root = make_project(tmp_path, {
            "reliability/failpoints.py": FAILPOINTS_MODULE,
            "api/store.py": """\
                from repro.reliability.failpoints import fire

                def write():
                    fire("jobstore.write")

                def request():
                    fire("http.request")
                """,
        })
        assert findings_of(FailpointRegistryRule(), root) == []

    def test_suppression_comment(self, tmp_path):
        root = make_project(tmp_path, {
            "reliability/failpoints.py": """\
                SITES = frozenset({"a.b"})

                def fire(site):
                    pass
                """,
            "api/store.py": """\
                from repro.reliability.failpoints import fire

                def write():
                    fire("a.b")
                    fire("a.c")  # repro-lint: disable=failpoint-registry
                """,
        })
        report = run_lint(root, rules=[FailpointRegistryRule()])
        assert report.findings == []
        assert report.suppressed == 1


# --------------------------------------------------------------------- #
# retry-safety
# --------------------------------------------------------------------- #
POLICY_MODULE = """\
    class RetryPolicy:
        def call(self, fn, **kwargs):
            return fn()
    """


class TestRetrySafetyRule:
    def test_flags_mutating_call_without_idempotent(self, tmp_path):
        root = make_project(tmp_path, {
            "reliability/policy.py": POLICY_MODULE,
            "api/client.py": """\
                from repro.reliability.policy import RetryPolicy

                class Client:
                    def __init__(self, store):
                        self._store_retry = RetryPolicy()
                        self.store = store

                    def submit(self, req):
                        return self._store_retry.call(
                            lambda: self.store.create(req))
                """,
        })
        found = findings_of(RetrySafetyRule(), root)
        assert len(found) == 1
        assert "create" in found[0].message
        assert "idempotent" in found[0].message

    def test_accepts_declared_idempotency_and_read_verbs(self, tmp_path):
        root = make_project(tmp_path, {
            "reliability/policy.py": POLICY_MODULE,
            "api/client.py": """\
                from repro.reliability.policy import RetryPolicy

                class Client:
                    def __init__(self, store):
                        self._store_retry = RetryPolicy()
                        self.store = store

                    def submit(self, req):
                        return self._store_retry.call(
                            lambda: self.store.create(req), idempotent=True)

                    def status(self, job_id):
                        return self._store_retry.call(
                            lambda: self.store.read(job_id))
                """,
        })
        assert findings_of(RetrySafetyRule(), root) == []

    def test_suppression_comment(self, tmp_path):
        root = make_project(tmp_path, {
            "reliability/policy.py": POLICY_MODULE,
            "api/client.py": """\
                from repro.reliability.policy import RetryPolicy

                retry_policy = RetryPolicy()

                def submit(store, req):
                    return retry_policy.call(lambda: store.submit(req))  # repro-lint: disable=retry-safety
                """,
        })
        report = run_lint(root, rules=[RetrySafetyRule()])
        assert report.findings == []
        assert report.suppressed == 1


# --------------------------------------------------------------------- #
# schema-drift
# --------------------------------------------------------------------- #
class TestSchemaDriftRule:
    def test_flags_asymmetric_wire_keys(self, tmp_path):
        root = make_project(tmp_path, {
            "api/protocol.py": """\
                class Envelope:
                    def to_wire(self):
                        return {"a": self.a, "b": self.b}

                    @classmethod
                    def from_wire(cls, payload):
                        return cls(a=payload.get("a"),
                                   c=payload.get("c"))
                """,
        })
        found = findings_of(SchemaDriftRule(), root)
        messages = [f.message for f in found]
        assert len(found) == 2
        assert any('"b"' in m and "never reads" in m for m in messages)
        assert any('"c"' in m and "never writes" in m for m in messages)

    def test_accepts_symmetric_envelope_modulo_bookkeeping(self, tmp_path):
        root = make_project(tmp_path, {
            "api/protocol.py": """\
                class Envelope:
                    def to_wire(self):
                        return {"schema_version": 1, "a": self.a}

                    @classmethod
                    def from_wire(cls, payload):
                        return cls(a=payload.get("a"))
                """,
        })
        assert findings_of(SchemaDriftRule(), root) == []

    def test_reads_dataclass_envelopes_written_field_by_field(self,
                                                             tmp_path):
        root = make_project(tmp_path, {
            "api/protocol.py": """\
                from dataclasses import dataclass, fields

                @dataclass
                class Envelope:
                    a: int = 0
                    b: int = 0

                    def to_wire(self):
                        payload = {"schema_version": 1}
                        for f in fields(self):
                            payload[f.name] = getattr(self, f.name)
                        return payload

                    @classmethod
                    def from_wire(cls, payload):
                        return cls(a=payload.get("a"), c=payload.get("c"))
                """,
        })
        messages = [f.message for f in findings_of(SchemaDriftRule(), root)]
        assert len(messages) == 2
        assert any('"b"' in m and "never reads" in m for m in messages)
        assert any('"c"' in m and "never writes" in m for m in messages)

    def test_flags_add_row_arity_and_unknown_columns(self, tmp_path):
        root = make_project(tmp_path, {
            "batch/sweep.py": """\
                COORD_COLUMNS = ("graph", "zeed")
                SWEEP_COLUMNS = ("graph", "seed", "ok", "energy")

                def build(table, graph, seed, ok):
                    table.add_row(graph, seed, ok)
                """,
            "batch/merge.py": """\
                from repro.batch.sweep import COORD_COLUMNS

                def signature_columns():
                    return list(COORD_COLUMNS) + ["ok", "wattage"]
                """,
        })
        found = findings_of(SchemaDriftRule(), root)
        messages = [f.message for f in found]
        assert len(found) == 3
        assert any("passes 3 values" in m and "4 columns" in m
                   for m in messages)
        assert any('"zeed"' in m and "COORD_COLUMNS" in m for m in messages)
        assert any('"wattage"' in m for m in messages)

    def test_accepts_consistent_columns(self, tmp_path):
        root = make_project(tmp_path, {
            "batch/sweep.py": """\
                COORD_COLUMNS = ("graph", "seed")
                SWEEP_COLUMNS = ("graph", "seed", "ok", "energy")

                def build(table, graph, seed, ok, energy):
                    table.add_row(graph, seed, ok, energy)
                """,
            "batch/merge.py": """\
                from repro.batch.sweep import COORD_COLUMNS

                def signature_columns():
                    return list(COORD_COLUMNS) + ["ok", "energy"]
                """,
        })
        assert findings_of(SchemaDriftRule(), root) == []

    def test_suppression_comment(self, tmp_path):
        root = make_project(tmp_path, {
            "api/protocol.py": """\
                class Envelope:
                    def to_wire(self):  # repro-lint: disable=schema-drift
                        return {"a": self.a, "b": self.b}

                    @classmethod
                    def from_wire(cls, payload):  # repro-lint: disable=schema-drift
                        return cls(a=payload.get("a"))
                """,
        })
        report = run_lint(root, rules=[SchemaDriftRule()])
        assert report.findings == []
        assert report.suppressed == 1


# --------------------------------------------------------------------- #
# baseline ratchet
# --------------------------------------------------------------------- #
class TestBaseline:
    def test_baselined_findings_do_not_fail(self, tmp_path):
        root = make_project(tmp_path, {
            "api/store.py": """\
                def save(path, data):
                    path.write_text(data)
                """,
        })
        dirty = run_lint(root, rules=[AtomicWritesRule()])
        assert dirty.exit_code == 1
        baseline = tmp_path / "baseline.json"
        save_baseline(baseline, dirty.findings)
        accepted = run_lint(root, rules=[AtomicWritesRule()],
                            baseline_path=baseline)
        assert accepted.exit_code == 0
        assert len(accepted.baselined) == 1

    def test_stale_baseline_entries_fail(self, tmp_path):
        root = make_project(tmp_path, {
            "api/store.py": """\
                def load(path):
                    return path.read_text()
                """,
        })
        baseline = tmp_path / "baseline.json"
        stale = Finding(file="api/store.py", line=2, rule="atomic-writes",
                        message="gone")
        save_baseline(baseline, [stale])
        report = run_lint(root, rules=[AtomicWritesRule()],
                          baseline_path=baseline)
        assert report.findings == []
        assert report.stale_baseline == {stale.key}
        assert report.exit_code == 1

    def test_baseline_round_trip_and_validation(self, tmp_path):
        path = tmp_path / "baseline.json"
        finding = Finding(file="a.py", line=1, rule="r", message="m")
        save_baseline(path, [finding])
        assert load_baseline(path) == {finding.key}
        path.write_text("[]")
        with pytest.raises(InvalidParameterError):
            load_baseline(path)
        with pytest.raises(InvalidParameterError):
            load_baseline(tmp_path / "missing.json")


# --------------------------------------------------------------------- #
# CLI and meta
# --------------------------------------------------------------------- #
class TestLintCli:
    def test_json_reporter_and_exit_code(self, tmp_path, capsys):
        root = make_project(tmp_path, {
            "api/store.py": """\
                def save(path, data):
                    path.write_text(data)
                """,
        })
        code = main(["lint", "--root", str(root), "--no-baseline", "--json",
                     "--rule", "atomic-writes"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["exit_code"] == 1
        assert payload["rules"] == ["atomic-writes"]
        assert [f["rule"] for f in payload["findings"]] == ["atomic-writes"]
        assert payload["findings"][0]["file"] == "api/store.py"

    def test_unknown_rule_is_a_usage_error(self, tmp_path, capsys):
        root = make_project(tmp_path, {"api/x.py": "x = 1\n"})
        code = main(["lint", "--root", str(root), "--no-baseline",
                     "--rule", "no-such-rule"])
        assert code == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_unparseable_source_is_a_lint_failure(self, tmp_path, capsys):
        root = make_project(tmp_path, {"api/x.py": "def broken(:\n"})
        code = main(["lint", "--root", str(root), "--no-baseline"])
        assert code == 2
        assert "cannot lint" in capsys.readouterr().err

    def test_update_baseline_writes_and_accepts(self, tmp_path, capsys):
        root = make_project(tmp_path, {
            "api/store.py": """\
                def save(path, data):
                    path.write_text(data)
                """,
        })
        baseline = tmp_path / "baseline.json"
        assert main(["lint", "--root", str(root), "--baseline",
                     str(baseline), "--update-baseline"]) == 0
        assert main(["lint", "--root", str(root), "--baseline",
                     str(baseline)]) == 0
        capsys.readouterr()

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in ALL_RULES:
            assert rule.name in out


class TestTypeChecking:
    def test_mypy_strict_subset(self):
        mypy_api = pytest.importorskip(
            "mypy.api", reason="mypy is not installed in this environment")
        config = Path(__file__).resolve().parents[1] / "mypy.ini"
        out, err, code = mypy_api.run(["--config-file", str(config)])
        assert code == 0, f"mypy strict subset failed:\n{out}\n{err}"


class TestRepoInvariants:
    def test_rule_registry_is_complete(self):
        names = {rule.name for rule in ALL_RULES}
        assert names == {
            "typed-errors", "modeling-only-assembly", "atomic-writes",
            "lock-discipline", "failpoint-registry", "retry-safety",
            "schema-drift",
        }
        assert rules_by_name().keys() == names

    def test_shipped_package_lints_clean(self):
        root = Path(repro.__file__).resolve().parent
        report = run_lint(root)
        rendered = "\n".join(f.render() for f in report.findings)
        assert report.findings == [], f"repro lint found:\n{rendered}"
        assert report.files_checked > 100

    def test_checked_in_baseline_is_empty(self):
        baseline = Path(__file__).resolve().parents[1] / "lint-baseline.json"
        assert baseline.is_file()
        assert load_baseline(baseline) == set()
