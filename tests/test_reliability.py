"""Chaos and reliability tests (:mod:`repro.reliability` + wiring).

Covers: the failpoint registry (arming, spec grammar, deterministic
firing, env arming), the policy layer (retries, deadlines, circuit
breaking), torn-write semantics against the job store's atomic-replace
contract, the lease-expiry race (a frozen ex-owner can never overwrite
the reclaiming worker), server overload shedding (typed 503 +
``Retry-After``), graceful drain of live event streams, fleet-worker
crash-loop strikes, the CLI reliability flags — and the flagship chaos
parity suite: the same sweep, submitted through Local, Disk and HTTP
transports with faults injected at every instrumented site, produces a
result table bit-identical (``rows_signature``) to the fault-free run.
"""

from __future__ import annotations

import json
import random
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.api import (
    DiskTransport,
    HTTPTransport,
    JobStore,
    LocalTransport,
    SolverClient,
    SweepRequest,
)
from repro.api.protocol import SolveRequest
from repro.batch import rows_signature, sweep
from repro.cli import _reliability_kwargs, build_parser
from repro.cli import main as cli_main
from repro.core.models import ContinuousModel
from repro.core.problem import MinEnergyProblem
from repro.fleet.worker import FleetWorker, WorkerCrashLoopError
from repro.graphs import generators
from repro.reliability import failpoints
from repro.reliability.failpoints import FailPlan, FailpointSpecError
from repro.reliability.policy import (
    DEADLINE_HEADER,
    CircuitBreaker,
    Deadline,
    RetryPolicy,
    current_deadline,
    deadline_scope,
    is_retryable,
)
from repro.server import SolverHTTPServer
from repro.service.batcher import MicroBatcher
from repro.utils.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    InjectedFaultError,
    JobStateError,
    OverloadedError,
    ReproError,
    ServerShutdownError,
    TransientTransportError,
)

REQUEST = SweepRequest(graph_classes=("chain",), sizes=(6, 8),
                       slacks=(1.5,), repetitions=1, seed=7, name="chaos")

#: A fast, fully deterministic retry policy for the chaos runs.
FAST_RETRIES = dict(initial=0.01, maximum=0.05, jitter=0.0)

_REFERENCE: list[str] = []


def reference_signature() -> str:
    """The fault-free signature of ``REQUEST``'s sweep (memoised)."""
    if not _REFERENCE:
        table = sweep(graph_classes=("chain",), sizes=(6, 8), slacks=(1.5,),
                      repetitions=1, seed=7)
        _REFERENCE.append(rows_signature(table))
    return _REFERENCE[0]


def _problem(n: int = 10, *, seed: int = 1) -> MinEnergyProblem:
    graph = generators.layered_dag(n, seed=seed)
    return MinEnergyProblem(graph=graph, deadline=1.5 * graph.total_work(),
                            model=ContinuousModel(s_max=1.0))


@pytest.fixture(autouse=True)
def clean_failpoints():
    """No fault plan ever leaks from one test into the next."""
    failpoints.reset()
    yield
    failpoints.reset()


# --------------------------------------------------------------------- #
# the failpoint registry
# --------------------------------------------------------------------- #
class TestFailpoints:
    def test_disarmed_fire_is_a_no_op(self):
        assert not failpoints.active()
        assert failpoints.fire("jobstore.write") is None

    def test_armed_site_raises_exactly_times(self):
        with failpoints.armed("x.y", "raise", times=2) as plan:
            for _ in range(2):
                with pytest.raises(InjectedFaultError):
                    failpoints.fire("x.y")
            assert failpoints.fire("x.y") is None  # budget spent
            assert failpoints.fire("other.site") is None  # different site
        assert plan.fired == 2 and plan.hits == 3
        assert failpoints.fire("x.y") is None  # disarmed on exit

    def test_skip_passes_the_first_hits_through(self):
        with failpoints.armed("x.y", "raise", times=1, skip=2) as plan:
            assert failpoints.fire("x.y") is None
            assert failpoints.fire("x.y") is None
            with pytest.raises(InjectedFaultError):
                failpoints.fire("x.y")
        assert plan.fired == 1 and plan.hits == 3

    def test_when_filter_targets_one_worker(self):
        with failpoints.armed("jobstore.write", "raise", times=5,
                              when={"worker": "wA"}) as plan:
            assert failpoints.fire("jobstore.write", worker="wB") is None
            with pytest.raises(InjectedFaultError):
                failpoints.fire("jobstore.write", worker="wA")
        assert plan.fired == 1

    def test_action_modes_return_their_string(self):
        with failpoints.armed("x.y", "torn"):
            assert failpoints.fire("x.y") == "torn"
        with failpoints.armed("x.y", "garbage"):
            assert failpoints.fire("x.y") == "garbage"

    def test_latency_mode_sleeps(self):
        with failpoints.armed("x.y", "latency", param=0.05):
            start = time.monotonic()
            assert failpoints.fire("x.y") is None
            assert time.monotonic() - start >= 0.04

    def test_flaky_firing_is_a_pure_function_of_the_seed(self):
        def pattern(seed: int) -> list[bool]:
            plan = FailPlan(mode="flaky", param=0.5, seed=seed, times=100)
            return [plan.should_fire() for _ in range(40)]

        assert pattern(42) == pattern(42)
        assert any(pattern(42)) and not all(pattern(42))
        assert pattern(42) != pattern(43)

    def test_spec_grammar_round_trips(self):
        plans = failpoints.arm_spec(
            "http.request=raise*2~1@7; jobstore.write=latency:0.01")
        assert plans["http.request"].times == 2
        assert plans["http.request"].skip == 1
        assert plans["http.request"].seed == 7
        assert plans["jobstore.write"].mode == "latency"
        assert plans["jobstore.write"].param == 0.01
        assert set(failpoints.stats()) == {"http.request", "jobstore.write"}

    @pytest.mark.parametrize("spec", [
        "no-equals-sign",
        "site=",
        "=raise",
        "site=unknown-mode",
        "site=raise*zero",
        "site=latency",          # latency needs a param
        "site=flaky:1.5",        # probability out of range
    ])
    def test_bad_specs_are_typed_errors(self, spec):
        with pytest.raises(FailpointSpecError):
            failpoints.arm_spec(spec)

    def test_env_arming(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAILPOINTS", "a.b=raise*3")
        plans = failpoints.arm_from_env()
        assert plans["a.b"].times == 3
        assert failpoints.active()


# --------------------------------------------------------------------- #
# retry policy / deadline / circuit breaker units
# --------------------------------------------------------------------- #
class TestRetryPolicy:
    def test_retries_transient_failures_until_success(self):
        policy = RetryPolicy(retries=3, initial=0.001, jitter=0.0)
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise TransientTransportError("net blip")
            return "ok"

        assert policy.call(flaky) == "ok"
        assert len(attempts) == 3

    def test_non_retryable_errors_propagate_immediately(self):
        policy = RetryPolicy(retries=3, initial=0.001, jitter=0.0)
        attempts = []

        def bad():
            attempts.append(1)
            raise ValueError("not transient")

        with pytest.raises(ValueError):
            policy.call(bad)
        assert len(attempts) == 1

    def test_exhausted_retries_raise_the_last_failure(self):
        policy = RetryPolicy(retries=2, initial=0.001, jitter=0.0)
        attempts = []

        def down():
            attempts.append(1)
            raise TransientTransportError("still down")

        with pytest.raises(TransientTransportError, match="still down"):
            policy.call(down)
        assert len(attempts) == 3

    def test_non_idempotent_calls_never_replay_a_maybe_executed_failure(self):
        policy = RetryPolicy(retries=3, initial=0.001, jitter=0.0)
        attempts = []

        def ambiguous():
            attempts.append(1)
            raise TransientTransportError("reset mid-exchange")

        with pytest.raises(TransientTransportError):
            policy.call(ambiguous, idempotent=False)
        assert len(attempts) == 1  # might have landed: no blind re-send

    def test_non_idempotent_calls_retry_provably_unexecuted_failures(self):
        policy = RetryPolicy(retries=3, initial=0.001, jitter=0.0)
        attempts = []

        def shed():
            attempts.append(1)
            if len(attempts) < 2:
                raise OverloadedError("shed", retry_after=0.001)
            return "ok"

        assert policy.call(shed, idempotent=False) == "ok"
        assert len(attempts) == 2

    def test_retry_after_is_a_sleep_floor(self):
        policy = RetryPolicy(retries=1, initial=0.001, jitter=0.0)
        attempts = []

        def shed():
            attempts.append(1)
            if len(attempts) < 2:
                raise OverloadedError("shed", retry_after=0.05)
            return "ok"

        start = time.monotonic()
        assert policy.call(shed) == "ok"
        assert time.monotonic() - start >= 0.04

    def test_sleep_budget_caps_the_stall(self):
        policy = RetryPolicy(retries=5, initial=5.0, jitter=0.0, budget=0.01)
        attempts = []

        def down():
            attempts.append(1)
            raise TransientTransportError("down")

        start = time.monotonic()
        with pytest.raises(TransientTransportError):
            policy.call(down)
        assert len(attempts) == 1  # the first backoff would blow the budget
        assert time.monotonic() - start < 1.0

    def test_deadline_caps_the_backoff(self):
        policy = RetryPolicy(retries=5, initial=5.0, jitter=0.0)
        start = time.monotonic()
        with pytest.raises(TransientTransportError):
            policy.call(lambda: (_ for _ in ()).throw(
                TransientTransportError("down")),
                deadline=Deadline.after(0.05))
        assert time.monotonic() - start < 1.0

    def test_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_RETRIES", "7")
        assert RetryPolicy.from_env().retries == 7
        monkeypatch.setenv("REPRO_RETRIES", "lots")
        with pytest.raises(ValueError, match="REPRO_RETRIES"):
            RetryPolicy.from_env()

    def test_is_retryable_classification(self):
        assert is_retryable(TransientTransportError("x"))
        assert not is_retryable(ValueError("x"))
        assert not is_retryable(CircuitOpenError("open"))  # never spin on it
        assert not is_retryable(TransientTransportError("x"),
                                idempotent=False)
        assert is_retryable(OverloadedError("shed"), idempotent=False)
        assert is_retryable(InjectedFaultError("chaos"), idempotent=False)


class TestDeadline:
    def test_budget_and_expiry(self):
        deadline = Deadline.after(30.0)
        assert 29.0 < deadline.remaining() <= 30.0
        assert not deadline.expired
        deadline.require("solve")  # no raise
        with pytest.raises(ValueError):
            Deadline.after(0.0)

    def test_header_round_trip(self):
        deadline = Deadline.after(12.0)
        again = Deadline.from_header(deadline.to_header())
        assert again is not None
        assert 11.0 < again.remaining() <= 12.0

    def test_malformed_header_is_ignored(self):
        assert Deadline.from_header("soon") is None
        assert Deadline.from_header("") is None

    def test_non_positive_header_arrives_expired(self):
        deadline = Deadline.from_header("-1.5")
        assert deadline is not None and deadline.expired
        with pytest.raises(DeadlineExceededError):
            deadline.require("solve")

    def test_scope_carries_the_ambient_deadline(self):
        assert current_deadline() is None
        deadline = Deadline.after(5.0)
        with deadline_scope(deadline):
            assert current_deadline() is deadline
        assert current_deadline() is None


class TestCircuitBreaker:
    def test_opens_after_consecutive_failures_and_fails_fast(self):
        breaker = CircuitBreaker(failure_threshold=2, reset_seconds=60.0)
        breaker.allow()
        breaker.record_failure()
        breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        with pytest.raises(CircuitOpenError):
            breaker.allow()

    def test_half_open_admits_one_probe(self):
        breaker = CircuitBreaker(failure_threshold=1, reset_seconds=0.02)
        breaker.record_failure()
        time.sleep(0.03)
        assert breaker.state == "half-open"
        breaker.allow()  # the probe
        with pytest.raises(CircuitOpenError):
            breaker.allow()  # a second caller is still refused
        breaker.record_success()
        assert breaker.state == "closed"
        breaker.allow()

    def test_probe_failure_reopens_the_circuit(self):
        breaker = CircuitBreaker(failure_threshold=1, reset_seconds=0.02)
        breaker.record_failure()
        time.sleep(0.03)
        breaker.allow()
        breaker.record_failure()
        with pytest.raises(CircuitOpenError):
            breaker.allow()

    def test_success_resets_the_failure_streak(self):
        breaker = CircuitBreaker(failure_threshold=2, reset_seconds=60.0)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"  # never two *consecutive*

    def test_open_breaker_short_circuits_the_transport(self):
        # nothing listens on port 1: every call is a fast connection
        # failure, and the third is refused without any I/O at all
        transport = HTTPTransport(
            "http://127.0.0.1:1", retry_policy=RetryPolicy(retries=0),
            breaker=CircuitBreaker(failure_threshold=2, reset_seconds=60.0))
        for _ in range(2):
            with pytest.raises(TransientTransportError):
                transport.status("nope")
        with pytest.raises(CircuitOpenError):
            transport.status("nope")


# --------------------------------------------------------------------- #
# micro-batcher reliability
# --------------------------------------------------------------------- #
class TestBatcherReliability:
    def test_expired_deadline_is_resolved_not_solved(self):
        with MicroBatcher() as batcher:
            deadline = Deadline.after(0.001)
            time.sleep(0.01)
            future = batcher.submit(_problem(), deadline=deadline)
            with pytest.raises(DeadlineExceededError):
                future.result(timeout=5)

    def test_tick_fault_requeues_the_batch_with_identical_results(self):
        problem = _problem()
        with MicroBatcher() as batcher:
            baseline = batcher.solve(problem, timeout=30)
            with failpoints.armed("batcher.tick") as plan:
                faulted = batcher.solve(problem, timeout=30)
            assert plan.fired == 1
        assert faulted.ok and baseline.ok
        assert faulted.energy == baseline.energy


# --------------------------------------------------------------------- #
# torn writes and the lease-expiry race
# --------------------------------------------------------------------- #
class TestJobStoreChaos:
    def test_torn_write_never_corrupts_the_visible_record(self, tmp_path):
        store = JobStore(tmp_path)
        store.create(REQUEST, job_id="torn-job")
        with failpoints.armed("jobstore.write", "torn") as plan:
            with pytest.raises(InjectedFaultError):
                store.update("torn-job", done=1)
        assert plan.fired == 1
        # the atomic-replace contract: the update died mid-flush, so the
        # visible record is the intact pre-write version, not half a file
        record = store.load("torn-job")
        assert record["done"] == 0
        _records, skipped = store.scan()
        assert skipped == []

    def test_frozen_ex_owner_cannot_overwrite_the_reclaiming_worker(
            self, tmp_path):
        store = JobStore(tmp_path)
        store.create(REQUEST, job_id="race")
        store.claim("race", "wA", 0.05)
        # freeze the ex-owner mid-write: every write attempted while the
        # record is still stamped wA dies before touching disk
        with failpoints.armed("jobstore.write", "raise", times=5,
                              when={"worker": "wA"}):
            with pytest.raises(InjectedFaultError):
                store.renew_lease("race", "wA", 0.05)
            time.sleep(0.08)  # the lease expires while wA is stuck
            record = store.claim("race", "wB", 30.0)  # takeover
            assert record["worker_id"] == "wB"
            assert record["reclaims"] == 1
        # the thawed ex-owner's conditional writes are refused, not applied
        with pytest.raises(JobStateError, match="lease"):
            store.renew_lease("race", "wA", 0.05)
        with pytest.raises(JobStateError, match="lease"):
            store.transition("race", "done", expected_worker="wA")
        assert store.load("race")["worker_id"] == "wB"


# --------------------------------------------------------------------- #
# chaos parity: identical results with and without faults
# --------------------------------------------------------------------- #
class TestChaosParity:
    def test_local_solve_is_identical_under_a_batcher_fault(self):
        problem = _problem()
        with SolverClient(LocalTransport(workers=1,
                                         use_threads=True)) as client:
            baseline = client.solve(problem)
            with failpoints.armed("batcher.tick") as plan:
                faulted = client.solve(problem)
            assert plan.fired == 1
        assert baseline.ok and faulted.ok
        assert faulted.energy == baseline.energy

    def test_disk_sweep_is_identical_under_store_and_heartbeat_faults(
            self, tmp_path):
        transport = DiskTransport(tmp_path / "jobs", use_threads=True,
                                  heartbeat_seconds=0.05, lease_seconds=1.0)
        client = SolverClient(
            transport, retry_policy=RetryPolicy(retries=3, **FAST_RETRIES))
        with client:
            with failpoints.armed("jobstore.write", "torn",
                                  times=1) as p_store, \
                    failpoints.armed("worker.heartbeat",
                                     times=1) as p_beat:
                record = client.submit(REQUEST)
                table = client.results(record.job_id, timeout=120)
            assert p_store.fired >= 1
            assert p_beat.fired >= 1
        assert rows_signature(table) == reference_signature()
        assert client.status(record.job_id).status == "done"

    def test_http_sweep_is_identical_under_faults_at_every_site(
            self, tmp_path):
        transport = DiskTransport(tmp_path / "jobs", use_threads=True)
        with SolverHTTPServer(transport).start() as server:
            http = HTTPTransport(
                server.url,
                retry_policy=RetryPolicy(retries=3, **FAST_RETRIES))
            with SolverClient(http) as client:
                with failpoints.armed("http.request", times=2) as p_req, \
                        failpoints.armed("http.stream", times=1) as p_stream, \
                        failpoints.armed("jobstore.write",
                                         times=2) as p_store, \
                        failpoints.armed("worker.heartbeat",
                                         times=1) as p_beat:
                    record = client.submit(REQUEST)
                    events = list(client.events(record.job_id,
                                                poll_interval=0.02))
                    table = client.results(record.job_id, timeout=120)
                assert p_req.fired >= 1
                assert p_stream.fired >= 1
                assert p_store.fired >= 1
                assert p_beat.fired >= 1
                # the reconnected stream is still well-formed: contiguous
                # sequence numbers, no duplicates, terminal last
                assert [e.seq for e in events] == list(range(len(events)))
                assert events[-1].terminal
        assert rows_signature(table) == reference_signature()

    def test_poll_loops_tolerate_transient_faults(self, tmp_path):
        transport = DiskTransport(tmp_path / "jobs", use_threads=True)
        with SolverHTTPServer(transport).start() as server:
            # retries=0 so nothing below the base class absorbs the faults
            http = HTTPTransport(server.url,
                                 retry_policy=RetryPolicy(retries=0))
            with SolverClient(http) as client:
                record = client.submit(REQUEST)
                client.results(record.job_id, timeout=120)
                with failpoints.armed("http.request", times=3) as plan:
                    final = http.wait(record.job_id, poll_interval=0.01)
                assert plan.fired == 3
                assert final.terminal
                # more consecutive faults than the tolerance is fatal
                with failpoints.armed("http.request", times=20):
                    with pytest.raises(TransientTransportError):
                        http.wait(record.job_id, poll_interval=0.01)

    def test_garbled_response_body_is_retried(self, tmp_path):
        transport = DiskTransport(tmp_path / "jobs", use_threads=True)
        with SolverHTTPServer(transport).start() as server:
            http = HTTPTransport(
                server.url,
                retry_policy=RetryPolicy(retries=2, **FAST_RETRIES))
            with SolverClient(http) as client:
                record = client.submit(REQUEST)
                with failpoints.armed("http.request", "garbage") as plan:
                    status = client.status(record.job_id)
                assert plan.fired == 1
                assert status.job_id == record.job_id
                client.results(record.job_id, timeout=120)


# --------------------------------------------------------------------- #
# overload control and graceful drain
# --------------------------------------------------------------------- #
def _raw_solve(url: str, *, headers: dict | None = None):
    body = json.dumps(SolveRequest.from_problem(_problem()).to_wire())
    request = urllib.request.Request(
        f"{url}/v1/solve", data=body.encode("utf-8"), method="POST",
        headers={"Content-Type": "application/json", **(headers or {})})
    with urllib.request.urlopen(request, timeout=30) as response:
        return json.loads(response.read())


def _healthz(url: str) -> dict:
    with urllib.request.urlopen(f"{url}/v1/healthz", timeout=10) as response:
        return json.loads(response.read())


class TestOverloadControl:
    def test_excess_load_is_shed_with_a_typed_503(self):
        transport = LocalTransport(workers=1, use_threads=True)
        with SolverHTTPServer(transport, max_inflight=1, max_queue=0,
                              queue_timeout=0.2).start() as server:
            # an idle server admits: max_queue=0 only forbids *waiting*
            assert _raw_solve(server.url)["ok"]
            # one slow request holds the single slot...
            with failpoints.armed("batcher.tick", "latency", param=0.6):
                slow = threading.Thread(target=_raw_solve,
                                        args=(server.url,), daemon=True)
                slow.start()
                time.sleep(0.15)  # let it be admitted
                # ...so the next is shed instantly with the typed body
                with pytest.raises(urllib.error.HTTPError) as err:
                    _raw_solve(server.url)
                assert err.value.code == 503
                assert float(err.value.headers["Retry-After"]) > 0
                payload = json.loads(err.value.read())
                assert payload["error"]["type"] == "OverloadedError"
                assert payload["error"]["retry_after"] > 0
                slow.join(timeout=30)
            health = _healthz(server.url)
            assert health["status"] == "ok"
            assert health["admission"]["shed"] >= 1
            assert health["admission"]["admitted"] >= 2

    def test_a_retrying_client_rides_out_the_overload(self):
        transport = LocalTransport(workers=1, use_threads=True)
        with SolverHTTPServer(transport, max_inflight=1, max_queue=0,
                              queue_timeout=0.2).start() as server:
            with failpoints.armed("batcher.tick", "latency", param=0.4):
                slow = threading.Thread(target=_raw_solve,
                                        args=(server.url,), daemon=True)
                slow.start()
                time.sleep(0.1)
                http = HTTPTransport(
                    server.url,
                    retry_policy=RetryPolicy(retries=4, initial=0.05,
                                             maximum=0.5, jitter=0.0))
                with SolverClient(http) as client:
                    response = client.solve(_problem())
                assert response.ok
                slow.join(timeout=30)

    def test_expired_deadline_header_is_a_504(self):
        transport = LocalTransport(workers=1, use_threads=True)
        with SolverHTTPServer(transport).start() as server:
            with pytest.raises(urllib.error.HTTPError) as err:
                _raw_solve(server.url, headers={DEADLINE_HEADER: "0"})
            assert err.value.code == 504
            payload = json.loads(err.value.read())
            assert payload["error"]["type"] == "DeadlineExceededError"

    def test_malformed_deadline_header_is_ignored(self):
        transport = LocalTransport(workers=1, use_threads=True)
        with SolverHTTPServer(transport).start() as server:
            assert _raw_solve(server.url,
                              headers={DEADLINE_HEADER: "soon"})["ok"]


class TestGracefulDrain:
    def test_drain_terminates_event_streams_with_a_typed_error(
            self, tmp_path):
        big = SweepRequest(graph_classes=("chain", "tree", "layered"),
                           sizes=(16, 24), slacks=(1.5,), repetitions=2,
                           seed=3, name="drain-me")
        transport = DiskTransport(tmp_path / "jobs", use_threads=True)
        with SolverHTTPServer(transport).start() as server:
            http = HTTPTransport(server.url,
                                 retry_policy=RetryPolicy(retries=0))
            with SolverClient(http) as client:
                record = client.submit(big)
                events = client.events(record.job_id, poll_interval=0.02)
                next(events)  # the stream is live
                server.draining.set()
                # the in-band shutdown line becomes the typed client error
                with pytest.raises(ServerShutdownError):
                    for _event in events:
                        pass
                # a draining server refuses new work with the same type
                with pytest.raises(ServerShutdownError):
                    client.submit(REQUEST)
                assert _healthz(server.url)["status"] == "draining"
            # the in-flight job still reaches a terminal record
            assert transport.drain(timeout=120) == 0
            assert transport.store.load(record.job_id)["status"] == "done"


# --------------------------------------------------------------------- #
# fleet-worker crash-loop strikes
# --------------------------------------------------------------------- #
class TestWorkerStrikes:
    def test_worker_strikes_out_after_consecutive_failures(
            self, tmp_path, monkeypatch):
        worker = FleetWorker(tmp_path / "jobs", use_threads=True,
                             max_strikes=3, poll_interval=0.01,
                             rng=random.Random(0))
        calls = []

        def boom():
            calls.append(1)
            raise TransientTransportError("store down")

        monkeypatch.setattr(worker, "run_one", boom)
        with pytest.raises(WorkerCrashLoopError, match="struck out"):
            worker.run()
        assert len(calls) == 3
        summary = worker.summary()
        assert summary["strikes"] == 3
        assert "store down" in summary["last_error"]

    def test_a_successful_poll_clears_the_strike_count(
            self, tmp_path, monkeypatch):
        worker = FleetWorker(tmp_path / "jobs", use_threads=True,
                             max_strikes=2, drain=0.02, poll_interval=0.01,
                             rng=random.Random(0))
        outcomes = iter([TransientTransportError("blip"), None, None, None])

        def sometimes():
            outcome = next(outcomes, None)
            if isinstance(outcome, BaseException):
                raise outcome
            return outcome

        monkeypatch.setattr(worker, "run_one", sometimes)
        summary = worker.run()  # drains idle instead of striking out
        assert summary["strikes"] == 0
        assert "blip" in summary["last_error"]

    def test_strike_backoff_is_not_a_tight_loop(self, tmp_path, monkeypatch):
        worker = FleetWorker(tmp_path / "jobs", use_threads=True,
                             max_strikes=3, rng=random.Random(7))

        def boom():
            raise TransientTransportError("down")

        monkeypatch.setattr(worker, "run_one", boom)
        start = time.monotonic()
        with pytest.raises(WorkerCrashLoopError):
            worker.run()
        # two inter-strike sleeps happened (jittered, but seeded)
        assert time.monotonic() - start >= 0.05

    def test_max_strikes_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError, match="max-strikes"):
            FleetWorker(tmp_path / "jobs", max_strikes=0)

    def test_cli_work_exits_non_zero_on_strike_out(
            self, tmp_path, monkeypatch, capsys):
        def boom(self):
            raise TransientTransportError("store down")

        monkeypatch.setattr(FleetWorker, "run_one", boom)
        code = cli_main(["work", "--jobs-dir", str(tmp_path / "jobs"),
                         "--max-strikes", "2"])
        assert code == 3
        captured = capsys.readouterr()
        assert "struck out" in captured.err
        assert json.loads(captured.out.splitlines()[-1])["strikes"] == 2


# --------------------------------------------------------------------- #
# CLI reliability flags
# --------------------------------------------------------------------- #
class TestCLIFlags:
    def test_transport_verbs_take_retries_and_deadline(self):
        args = build_parser().parse_args(
            ["status", "j1", "--retries", "5", "--deadline", "3.5"])
        assert args.retries == 5
        assert args.request_deadline == 3.5
        policy, deadline = _reliability_kwargs(args)
        assert policy.retries == 5 and deadline == 3.5

    def test_solve_keeps_deadline_for_the_problem(self):
        # --deadline is the problem's D; the budget is --request-deadline
        args = build_parser().parse_args(
            ["solve", "g.json", "--deadline", "42",
             "--request-deadline", "2.5", "--retries", "1"])
        assert args.deadline == 42.0
        assert args.request_deadline == 2.5

    def test_env_defaults_feed_the_policies(self, monkeypatch):
        monkeypatch.setenv("REPRO_RETRIES", "7")
        monkeypatch.setenv("REPRO_DEADLINE", "9.5")
        args = build_parser().parse_args(["status", "j1"])
        policy, deadline = _reliability_kwargs(args)
        assert policy.retries == 7 and deadline == 9.5

    def test_flags_override_the_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_RETRIES", "7")
        monkeypatch.setenv("REPRO_DEADLINE", "9.5")
        args = build_parser().parse_args(
            ["status", "j1", "--retries", "0", "--deadline", "1.5"])
        policy, deadline = _reliability_kwargs(args)
        assert policy.retries == 0 and deadline == 1.5

    def test_garbage_env_values_are_typed_errors(self, monkeypatch):
        monkeypatch.setenv("REPRO_DEADLINE", "soon")
        args = build_parser().parse_args(["status", "j1"])
        with pytest.raises(ReproError, match="REPRO_DEADLINE"):
            _reliability_kwargs(args)
        monkeypatch.delenv("REPRO_DEADLINE")
        monkeypatch.setenv("REPRO_RETRIES", "lots")
        with pytest.raises(ReproError, match="REPRO_RETRIES"):
            _reliability_kwargs(args)

    def test_serve_takes_admission_flags(self):
        args = build_parser().parse_args(
            ["serve", "--max-inflight", "4", "--max-queue", "16"])
        assert args.max_inflight == 4 and args.max_queue == 16
