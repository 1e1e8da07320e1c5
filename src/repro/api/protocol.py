"""Versioned request/response envelopes of the solver-client protocol.

This module is the single definition of what travels between a
:class:`repro.api.SolverClient` and any of its backends — in-process, the
on-disk job store, or the ``repro serve`` HTTP server.  Everything on the
wire is a JSON object stamped with ``schema_version``; loaders reject
unknown versions with a typed
:class:`~repro.utils.errors.SchemaVersionError` instead of failing
obscurely downstream.

The envelopes:

:class:`SweepRequest`
    A submittable sweep grid (the keyword surface of
    :func:`repro.batch.sweep`) plus solver method/options, shard identity
    and a display name.
:class:`SolveRequest` / :class:`SolveResponse`
    One synchronous solve: a graph payload plus model/deadline/solver
    parameters, answered immediately (no job lifecycle).  ``POST
    /v1/solve`` is the HTTP fast path the server's micro-batcher
    coalesces; ``POST /v1/solve_batch`` carries many requests in one
    envelope and answers with the packed row codec
    (:mod:`repro.api.rowcodec`).
:class:`JobRecord`
    The transport-independent snapshot of one job: lifecycle status,
    progress counters, shard/fingerprint identity and timestamps.  The
    same record shape is stored on disk, returned over HTTP and derived
    from live :class:`~repro.service.jobs.JobHandle` objects, which is what
    makes ``repro status`` behave identically against every transport.
:class:`ProgressEvent`
    One tick of a job's streaming progress feed (``repro attach``, the
    HTTP chunked event stream).

Result tables reuse the sweep row schema verbatim
(:func:`table_to_wire` / :func:`table_from_wire`), and failures travel as
typed error bodies (:func:`error_to_wire` / :func:`raise_wire_error`) so a
server-side :class:`~repro.utils.errors.UnknownJobError` re-raises as
exactly that class in the client process.
"""

from __future__ import annotations

import math
import time
from collections.abc import Mapping
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Any

from repro.utils.errors import (
    AuthError,
    BackendUnavailableError,
    CircuitOpenError,
    DeadlineExceededError,
    FailpointSpecError,
    FingerprintMismatchError,
    InfeasibleProblemError,
    InjectedFaultError,
    InvalidArgumentTypeError,
    InvalidGraphError,
    InvalidModelError,
    InvalidOptionError,
    InvalidParameterError,
    InvalidSolutionError,
    JobStateError,
    MergeError,
    NotSeriesParallelError,
    OverloadedError,
    PollTimeoutError,
    ReproError,
    SchemaVersionError,
    ServerShutdownError,
    ShardError,
    ShardGapError,
    ShardOverlapError,
    ShutdownError,
    SolverError,
    TransientTransportError,
    TransportError,
    UnknownBackendError,
    UnknownColumnError,
    UnknownJobError,
    UnknownOptionError,
    UnknownSolverError,
    WorkerCrashLoopError,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.batch.engine import BatchResult
    from repro.batch.vectorized import BatchPacker, WireInstance
    from repro.core.problem import MinEnergyProblem
from repro.utils.tables import Table

#: Version stamped on every wire envelope, job record and shard dump.
SCHEMA_VERSION = 1

#: URL prefix of the HTTP wire protocol (bumped with SCHEMA_VERSION).
PROTOCOL_PREFIX = "/v1"

#: Job lifecycle states a record may carry (superset of the in-process
#: :class:`repro.service.jobs.JobStatus`: a durable record can also be
#: ``failed`` when submission itself blew up before any instance ran).
JOB_STATUSES = ("pending", "running", "done", "cancelled", "failed")

#: Terminal states: a record in one of these never changes again.
TERMINAL_STATUSES = ("done", "cancelled", "failed")

_SWEEP_MODELS = ("continuous", "discrete", "vdd", "incremental")


def check_schema_version(payload: Mapping[str, Any], *, what: str,
                         supported: int = SCHEMA_VERSION) -> int:
    """Validate a document's ``schema_version``; return it.

    A missing field is read as version 1 (documents written before the
    field existed); anything other than an integer in ``1..supported``
    raises :class:`SchemaVersionError` naming the document and both
    versions.  ``supported`` defaults to the wire protocol's version;
    independently-versioned documents (shard dumps) pass their own.
    """
    version = payload.get("schema_version", 1)
    if not isinstance(version, int) or isinstance(version, bool) \
            or version < 1 or version > supported:
        raise SchemaVersionError(
            f"{what}: unsupported schema_version {version!r} (this build "
            f"supports versions 1..{supported}); refusing to guess at "
            "a newer or malformed layout"
        )
    return version


@dataclass(frozen=True)
class SweepRequest:
    """A submittable sweep grid plus its solver and shard parameters.

    Field-for-field the keyword surface of :func:`repro.batch.sweep`
    (grid axes, model knobs, ``method``/``exact``/``options``), plus the
    ``"I/N"`` shard spelling and a display ``name``.  ``priors`` carries a
    cost-partitioner calibration (graph class -> ``(coeff, exponent)``;
    the empty-string key is the fallback class) so sharded submissions
    balance identically on every machine.
    """

    graph_classes: tuple[str, ...] = ("chain", "tree", "layered")
    sizes: tuple[int, ...] = (32,)
    slacks: tuple[float, ...] = (1.5,)
    alphas: tuple[float, ...] = (3.0,)
    model: str = "continuous"
    n_modes: int = 5
    s_max: float = 1.0
    n_processors: int = 0
    mapping: str = "none"
    repetitions: int = 1
    seed: int = 0
    method: str | None = None
    exact: bool | None = None
    options: dict[str, Any] = field(default_factory=dict)
    shard: str | None = None
    shard_strategy: str = "cost-weighted"
    priors: dict[str, tuple[float, float]] | None = None
    name: str = ""

    def __post_init__(self) -> None:
        if self.model not in _SWEEP_MODELS:
            raise InvalidModelError(
                f"unknown sweep model {self.model!r}; choose one of "
                f"{', '.join(_SWEEP_MODELS)}"
            )

    def grid_kwargs(self) -> dict[str, Any]:
        """The :func:`repro.batch.sweep` grid keyword arguments."""
        return dict(
            graph_classes=self.graph_classes, sizes=self.sizes,
            slacks=self.slacks, alphas=self.alphas, model=self.model,
            n_modes=self.n_modes, s_max=self.s_max,
            n_processors=self.n_processors, mapping=self.mapping,
            repetitions=self.repetitions, seed=self.seed,
        )

    def shard_spec(self):
        """The parsed :class:`~repro.batch.shard.ShardSpec` (or ``None``)."""
        if not self.shard:
            return None
        from repro.batch.shard import ShardSpec

        return ShardSpec.parse(self.shard, strategy=self.shard_strategy)

    def fit_priors(self) -> dict[str | None, tuple[float, float]] | None:
        """Wire priors back in :func:`~repro.batch.shard.estimate_cost` form."""
        if not self.priors:
            return None
        return {(cls or None): (float(c), float(e))
                for cls, (c, e) in self.priors.items()}

    def to_wire(self) -> dict[str, Any]:
        payload: dict[str, Any] = {"schema_version": SCHEMA_VERSION}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                value = list(value)
            payload[f.name] = value
        if self.priors is not None:
            payload["priors"] = {cls: list(ce)
                                 for cls, ce in self.priors.items()}
        return payload

    @classmethod
    def from_wire(cls, payload: Any) -> "SweepRequest":
        """Decode and validate a wire payload into a request.

        Raises :class:`SchemaVersionError` for unknown versions and
        :class:`TransportError` for structurally malformed payloads, so
        the HTTP server maps both to typed 4xx bodies.
        """
        if not isinstance(payload, Mapping):
            raise TransportError(
                f"malformed sweep request: expected a JSON object, got "
                f"{type(payload).__name__}"
            )
        check_schema_version(payload, what="sweep request")
        known = {f.name for f in fields(cls)}
        unknown = set(payload) - known - {"schema_version"}
        if unknown:
            raise TransportError(
                f"malformed sweep request: unknown fields {sorted(unknown)}"
            )
        try:
            priors = payload.get("priors")
            return cls(
                graph_classes=tuple(str(c) for c in payload.get(
                    "graph_classes", cls.graph_classes)),
                sizes=tuple(int(n) for n in payload.get("sizes", cls.sizes)),
                slacks=tuple(float(s) for s in payload.get("slacks", cls.slacks)),
                alphas=tuple(float(a) for a in payload.get("alphas", cls.alphas)),
                model=str(payload.get("model", cls.model)),
                n_modes=int(payload.get("n_modes", cls.n_modes)),
                s_max=float(payload.get("s_max", cls.s_max)),
                n_processors=int(payload.get("n_processors", cls.n_processors)),
                mapping=str(payload.get("mapping", cls.mapping)),
                repetitions=int(payload.get("repetitions", cls.repetitions)),
                seed=int(payload.get("seed", cls.seed)),
                method=(None if payload.get("method") is None
                        else str(payload["method"])),
                exact=(None if payload.get("exact") is None
                       else bool(payload["exact"])),
                options=dict(payload.get("options") or {}),
                shard=(None if not payload.get("shard")
                       else str(payload["shard"])),
                shard_strategy=str(payload.get("shard_strategy",
                                               cls.shard_strategy)),
                priors=(None if priors is None else
                        {str(k): (float(v[0]), float(v[1]))
                         for k, v in dict(priors).items()}),
                name=str(payload.get("name", "")),
            )
        except InvalidModelError:
            raise
        except (TypeError, ValueError, KeyError, IndexError) as exc:
            raise TransportError(
                f"malformed sweep request: {exc}") from exc


# --------------------------------------------------------------------- #
# synchronous solves
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class SolveRequest:
    """One synchronous solve: a graph payload plus its model and knobs.

    The graph travels in :func:`repro.graphs.io.graph_to_dict` form
    (``{"name", "tasks": {task: work}, "edges": [[u, v], ...]}``).  Exactly
    one of ``deadline`` (absolute) and ``slack`` (multiple of the critical
    path at the model's maximum speed, like ``repro solve --slack``) must
    be given; slack-relative requests need a finite maximum speed.

    ``s_max`` of ``None`` means an uncapped Continuous model (``inf`` is
    not valid JSON).  ``keep_speeds`` asks for the per-task speed map in
    the response; ``validate`` re-checks the solution server-side before
    answering.  Deadline-given Continuous requests with default dispatch
    ride the vectorized batch fast path (:mod:`repro.batch.vectorized`)
    without ever materialising a :class:`TaskGraph`.
    """

    graph: dict[str, Any] = field(default_factory=dict)
    deadline: float | None = None
    slack: float | None = None
    model: str = "continuous"
    s_max: float | None = 1.0
    modes: tuple[float, ...] = ()
    alpha: float = 3.0
    method: str | None = None
    exact: bool | None = None
    options: dict[str, Any] = field(default_factory=dict)
    keep_speeds: bool = False
    validate: bool = False
    name: str = ""

    def __post_init__(self) -> None:
        if self.model not in _SWEEP_MODELS:
            raise InvalidModelError(
                f"unknown solve model {self.model!r}; choose one of "
                f"{', '.join(_SWEEP_MODELS)}"
            )
        if (self.deadline is None) == (self.slack is None):
            raise InvalidOptionError(
                "a solve request needs exactly one of deadline= and slack=")

    @property
    def n_tasks(self) -> int:
        """Tasks in the graph payload; 0 when it is not a graph dictionary."""
        from repro.graphs.io import task_count

        return task_count(self.graph)

    # -- construction ------------------------------------------------- #
    @classmethod
    def from_problem(cls, problem: "MinEnergyProblem", *,
                     method: str | None = None, exact: bool | None = None,
                     options: dict[str, Any] | None = None,
                     keep_speeds: bool = False,
                     validate: bool = False) -> "SolveRequest":
        """Encode an in-process problem object for the wire."""
        from repro.core.models import (
            ContinuousModel, DiscreteModel, IncrementalModel, VddHoppingModel)
        from repro.graphs.io import graph_to_dict

        model = problem.model
        modes: tuple[float, ...] = ()
        s_max: float | None = None
        if isinstance(model, ContinuousModel):
            kind = "continuous"
            s_max = None if math.isinf(model.s_max) else float(model.s_max)
        elif isinstance(model, IncrementalModel):
            kind, modes = "incremental", tuple(model.modes)
        elif isinstance(model, VddHoppingModel):
            kind, modes = "vdd", tuple(model.modes)
        elif isinstance(model, DiscreteModel):
            kind, modes = "discrete", tuple(model.modes)
        else:
            raise InvalidModelError(
                f"cannot express model {type(model).__name__} on the wire")
        return cls(graph=graph_to_dict(problem.graph),
                   deadline=problem.deadline, model=kind, s_max=s_max,
                   modes=modes, alpha=problem.power.alpha, method=method,
                   exact=exact, options=dict(options or {}),
                   keep_speeds=keep_speeds, validate=validate,
                   name=problem.name)

    # -- problem materialisation -------------------------------------- #
    def build_model(self):
        """The :class:`~repro.core.models.EnergyModel` this request names."""
        from repro.core.models import (
            ContinuousModel, DiscreteModel, IncrementalModel, VddHoppingModel)

        cap = math.inf if self.s_max is None else float(self.s_max)
        if self.model == "continuous":
            return ContinuousModel(s_max=cap)
        modes = self.modes or (0.4, 0.6, 0.8, 1.0)
        if self.model == "discrete":
            return DiscreteModel(modes=modes)
        if self.model == "vdd":
            return VddHoppingModel(modes=modes)
        # incremental: mirror the CLI's reconstruction (grid + inferred step)
        if self.modes:
            grid = sorted(modes)
            delta = grid[1] - grid[0] if len(grid) > 1 else grid[0]
            return IncrementalModel.from_range(grid[0], grid[-1], delta)
        hi = 1.0 if self.s_max is None else float(self.s_max)
        return IncrementalModel.from_range(0.2 * hi, hi, 0.2 * hi)

    def build_problem(self) -> "MinEnergyProblem":
        """Materialise the full problem object (slow path / fallbacks)."""
        from repro.core.power import CUBIC, PowerLaw
        from repro.core.problem import MinEnergyProblem
        from repro.graphs.io import graph_from_dict

        graph = graph_from_dict(self.graph)
        model = self.build_model()
        if self.deadline is not None:
            deadline = float(self.deadline)
        else:
            s_max = model.max_speed
            if not (s_max < math.inf):
                raise InvalidModelError(
                    "slack-relative deadlines need a finite maximum speed; "
                    "pass an absolute deadline instead")
            from repro.graphs.analysis import longest_path_length

            deadline = float(self.slack) * longest_path_length(
                graph, weight=graph.index().works / s_max)
        power = CUBIC if self.alpha == 3.0 else PowerLaw(alpha=self.alpha)
        return MinEnergyProblem(graph=graph, deadline=deadline, model=model,
                                power=power, name=self.name)

    def to_instance(self) -> "WireInstance | MinEnergyProblem":
        """What the batch solver should consume for this request.

        A deadline-given Continuous request becomes a
        :class:`~repro.batch.vectorized.WireInstance`: its graph dict and
        scalars, which the batch solver packs as ``/v1/solve_batch``
        packs a row (no ``TaskGraph`` on the fast path); everything else
        materialises the problem object.  A graph that is not a graph
        dictionary raises :class:`InvalidGraphError` on either route.
        """
        if self.model == "continuous" and self.deadline is not None \
                and not self.options:
            from repro.batch.vectorized import WireInstance
            from repro.graphs.io import graph_tasks

            graph_tasks(self.graph)
            return WireInstance(
                self.graph, float(self.deadline),
                None if self.s_max is None else float(self.s_max),
                self.alpha, self.name)
        return self.build_problem()

    # -- wire format --------------------------------------------------- #
    def to_wire(self) -> dict[str, Any]:
        payload: dict[str, Any] = {"schema_version": SCHEMA_VERSION}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                value = list(value)
            payload[f.name] = value
        return payload

    @classmethod
    def from_wire(cls, payload: Any, *, pack: "BatchPacker | None" = None
                  ) -> "SolveRequest | None":
        """Decode and validate a wire payload into a request.

        Raises :class:`SchemaVersionError` for unknown versions and
        :class:`TransportError` for structurally malformed payloads.

        With ``pack`` (the ``/v1/solve_batch`` decode), a valid request
        the vector core takes as sent — Continuous, an absolute deadline,
        no ``method``/``exact``/``options``/``keep_speeds``/``validate`` —
        is appended to that packer instead and ``None`` comes back: no
        request object is built for it.  Every other request comes back
        as usual.
        """
        if not isinstance(payload, Mapping):
            raise TransportError(
                f"malformed solve request: expected a JSON object, got "
                f"{type(payload).__name__}"
            )
        check_schema_version(payload, what="solve request")
        unknown = payload.keys() - _SOLVE_REQUEST_KEYS
        if unknown:
            raise TransportError(
                f"malformed solve request: unknown fields {sorted(unknown)}")
        graph = payload.get("graph")
        if not isinstance(graph, Mapping) \
                or not isinstance(graph.get("tasks"), Mapping):
            raise TransportError(
                "malformed solve request: graph must be an object with a "
                "tasks mapping")
        try:
            deadline = _opt_float(payload.get("deadline"))
            slack = _opt_float(payload.get("slack"))
            model = str(payload.get("model", cls.model))
            s_max = _opt_float(payload.get("s_max", cls.s_max))
            modes = tuple(float(m) for m in payload.get("modes") or ())
            alpha = float(payload.get("alpha", cls.alpha))
            method = payload.get("method")
            method = None if method is None else str(method)
            exact = payload.get("exact")
            exact = None if exact is None else bool(exact)
            options = dict(payload.get("options") or {})
            keep_speeds = bool(payload.get("keep_speeds", False))
            validate = bool(payload.get("validate", False))
            name = str(payload.get("name", ""))
        except (TypeError, ValueError, KeyError, IndexError) as exc:
            raise TransportError(f"malformed solve request: {exc}") from exc
        if pack is not None and model == "continuous" and slack is None \
                and deadline is not None and method is None and exact is None \
                and not (options or keep_speeds or validate) \
                and pack.add(graph, deadline=deadline, s_max=s_max,
                             alpha=alpha, name=name):
            return None
        return cls(graph=dict(graph), deadline=deadline, slack=slack,
                   model=model, s_max=s_max, modes=modes, alpha=alpha,
                   method=method, exact=exact, options=options,
                   keep_speeds=keep_speeds, validate=validate, name=name)


#: Keys a solve request payload may carry.
_SOLVE_REQUEST_KEYS = frozenset(
    [f.name for f in fields(SolveRequest)] + ["schema_version"])


@dataclass(frozen=True)
class SolveResponse:
    """The answer to one :class:`SolveRequest` (solved or captured failure).

    Field-for-field a :class:`~repro.batch.engine.BatchResult` row minus
    the in-process metadata: ``ok`` distinguishes solved instances from
    captured failures, which carry the library exception's class name in
    ``error_type`` so :meth:`raise_for_error` re-raises it typed on any
    transport.
    """

    ok: bool = True
    name: str = ""
    n_tasks: int = 0
    energy: float | None = None
    makespan: float | None = None
    solver: str | None = None
    optimal: bool | None = None
    lower_bound: float | None = None
    seconds: float = 0.0
    error: str | None = None
    error_type: str | None = None
    speeds: dict[str, float] | None = None

    @classmethod
    def from_result(cls, result: "BatchResult") -> "SolveResponse":
        """Project a batch row onto the wire shape."""
        return cls(ok=result.ok, name=result.name, n_tasks=result.n_tasks,
                   energy=result.energy, makespan=result.makespan,
                   solver=result.solver, optimal=result.optimal,
                   lower_bound=result.lower_bound, seconds=result.seconds,
                   error=result.error, error_type=result.error_type,
                   speeds=dict(result.speeds) if result.speeds else None)

    @classmethod
    def from_failure(cls, exc: BaseException, *, name: str = "",
                     n_tasks: int = 0) -> "SolveResponse":
        """Capture a request-level failure (bad payload, bad model) as a
        row, the same shape a failed solve comes back in."""
        return cls(ok=False, name=name, n_tasks=n_tasks,
                   error=str(exc), error_type=type(exc).__name__)

    def raise_for_error(self) -> "SolveResponse":
        """Re-raise a captured failure as its typed exception; return self."""
        if self.ok:
            return self
        message = self.error or "solve failed"
        cls = _WIRE_ERRORS.get(self.error_type or "")
        if cls is None:
            raise SolverError(f"{self.error_type or 'error'}: {message}")
        raise cls(message)

    def to_wire(self) -> dict[str, Any]:
        payload: dict[str, Any] = {"schema_version": SCHEMA_VERSION}
        for f in fields(self):
            payload[f.name] = getattr(self, f.name)
        return payload

    @classmethod
    def from_wire(cls, payload: Any) -> "SolveResponse":
        if not isinstance(payload, Mapping) or "ok" not in payload:
            raise TransportError(
                "malformed solve response: expected a JSON object with ok")
        check_schema_version(payload, what="solve response")
        try:
            speeds = payload.get("speeds")
            return cls(
                ok=bool(payload["ok"]),
                name=str(payload.get("name", "")),
                n_tasks=int(payload.get("n_tasks") or 0),
                energy=_opt_float(payload.get("energy")),
                makespan=_opt_float(payload.get("makespan")),
                solver=(None if payload.get("solver") is None
                        else str(payload["solver"])),
                optimal=(None if payload.get("optimal") is None
                         else bool(payload["optimal"])),
                lower_bound=_opt_float(payload.get("lower_bound")),
                seconds=float(payload.get("seconds") or 0.0),
                error=(None if payload.get("error") is None
                       else str(payload["error"])),
                error_type=(None if payload.get("error_type") is None
                            else str(payload["error_type"])),
                speeds=(None if speeds is None else
                        {str(k): float(v) for k, v in dict(speeds).items()}),
            )
        except (TypeError, ValueError, KeyError) as exc:
            raise TransportError(f"malformed solve response: {exc}") from exc


def _opt_float(value: Any) -> float | None:
    return None if value is None else float(value)


@dataclass(frozen=True)
class JobRecord:
    """Transport-independent snapshot of one job's lifecycle and progress.

    The fleet fields (``job_type``, ``depends_on``, ``worker_id``,
    ``lease_expires_at``, ``claim_count``, ``reclaims``) are optional on
    the wire: a record written before claim-with-lease existed decodes
    with their defaults, and a handle snapshot (in-process jobs) never
    carries them.
    """

    job_id: str
    name: str = ""
    status: str = "pending"
    created_at: float = 0.0
    finished_at: float | None = None
    total: int = 0
    done: int = 0
    failed: int = 0
    cache_hits: int = 0
    shard: str | None = None
    fingerprint: str = ""
    params: dict[str, Any] = field(default_factory=dict)
    error: str | None = None
    job_type: str = "sweep"
    depends_on: tuple[str, ...] = ()
    worker_id: str | None = None
    lease_expires_at: float | None = None
    claim_count: int = 0
    reclaims: int = 0

    @property
    def terminal(self) -> bool:
        """Whether this record's status can never change again."""
        return self.status in TERMINAL_STATUSES

    def lease_expired(self, *, now: float | None = None) -> bool:
        """Whether a leased ``running`` record's lease has lapsed."""
        if self.status != "running" or self.lease_expires_at is None:
            return False
        return (time.time() if now is None else now) > self.lease_expires_at

    def to_wire(self) -> dict[str, Any]:
        return {
            "schema_version": SCHEMA_VERSION,
            "job_id": self.job_id,
            "name": self.name,
            "status": self.status,
            "created_at": self.created_at,
            "finished_at": self.finished_at,
            "total": self.total,
            "done": self.done,
            "failed": self.failed,
            "cache_hits": self.cache_hits,
            "shard": self.shard,
            "grid_fingerprint": self.fingerprint,
            "params": dict(self.params),
            "error": self.error,
            "job_type": self.job_type,
            "depends_on": list(self.depends_on),
            "worker_id": self.worker_id,
            "lease_expires_at": self.lease_expires_at,
            "claim_count": self.claim_count,
            "reclaims": self.reclaims,
        }

    @classmethod
    def from_wire(cls, payload: Any, *, what: str = "job record") -> "JobRecord":
        if not isinstance(payload, Mapping) or "job_id" not in payload:
            raise TransportError(
                f"malformed {what}: expected a JSON object with a job_id")
        check_schema_version(payload, what=what)
        status = str(payload.get("status", "pending"))
        if status not in JOB_STATUSES:
            raise TransportError(
                f"malformed {what}: unknown status {status!r} (expected one "
                f"of {', '.join(JOB_STATUSES)})"
            )
        try:
            finished = payload.get("finished_at")
            lease = payload.get("lease_expires_at")
            return cls(
                job_id=str(payload["job_id"]),
                name=str(payload.get("name") or ""),
                status=status,
                created_at=float(payload.get("created_at") or 0.0),
                finished_at=None if finished is None else float(finished),
                total=int(payload.get("total") or 0),
                done=int(payload.get("done") or 0),
                failed=int(payload.get("failed") or 0),
                cache_hits=int(payload.get("cache_hits") or 0),
                shard=(None if not payload.get("shard")
                       else str(payload["shard"])),
                fingerprint=str(payload.get("grid_fingerprint") or ""),
                params=dict(payload.get("params") or {}),
                error=(None if payload.get("error") is None
                       else str(payload["error"])),
                job_type=str(payload.get("job_type") or "sweep"),
                depends_on=tuple(str(d) for d in
                                 payload.get("depends_on") or ()),
                worker_id=(None if not payload.get("worker_id")
                           else str(payload["worker_id"])),
                lease_expires_at=None if lease is None else float(lease),
                claim_count=int(payload.get("claim_count") or 0),
                reclaims=int(payload.get("reclaims") or 0),
            )
        except (TypeError, ValueError) as exc:
            raise TransportError(f"malformed {what}: {exc}") from exc

    @classmethod
    def from_handle(cls, handle) -> "JobRecord":
        """Snapshot a live :class:`~repro.service.jobs.JobHandle`."""
        described = handle.describe()
        described.setdefault("schema_version", SCHEMA_VERSION)
        return cls.from_wire(described, what="job handle snapshot")


@dataclass(frozen=True)
class ProgressEvent:
    """One tick of a job's streaming progress feed."""

    job_id: str
    seq: int
    status: str
    done: int
    total: int
    failed: int
    cache_hits: int = 0
    timestamp: float = 0.0

    @property
    def terminal(self) -> bool:
        return self.status in TERMINAL_STATUSES

    def to_wire(self) -> dict[str, Any]:
        return {
            "schema_version": SCHEMA_VERSION,
            "job_id": self.job_id,
            "seq": self.seq,
            "status": self.status,
            "done": self.done,
            "total": self.total,
            "failed": self.failed,
            "cache_hits": self.cache_hits,
            "timestamp": self.timestamp,
        }

    @classmethod
    def from_wire(cls, payload: Any) -> "ProgressEvent":
        if not isinstance(payload, Mapping):
            raise TransportError("malformed progress event: not a JSON object")
        check_schema_version(payload, what="progress event")
        try:
            return cls(
                job_id=str(payload["job_id"]),
                seq=int(payload["seq"]),
                status=str(payload["status"]),
                done=int(payload.get("done") or 0),
                total=int(payload.get("total") or 0),
                failed=int(payload.get("failed") or 0),
                cache_hits=int(payload.get("cache_hits") or 0),
                timestamp=float(payload.get("timestamp") or 0.0),
            )
        except (TypeError, ValueError, KeyError) as exc:
            raise TransportError(f"malformed progress event: {exc}") from exc

    @classmethod
    def from_record(cls, record: JobRecord, seq: int) -> "ProgressEvent":
        return cls(job_id=record.job_id, seq=seq, status=record.status,
                   done=record.done, total=record.total, failed=record.failed,
                   cache_hits=record.cache_hits, timestamp=time.time())


# --------------------------------------------------------------------- #
# result tables
# --------------------------------------------------------------------- #
def table_to_wire(table: Table) -> dict[str, Any]:
    """Serialise a sweep table (and its manifest, if any) for the wire."""
    payload: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "title": table.title,
        "columns": list(table.columns),
        "rows": [list(row) for row in table.rows],
    }
    manifest = getattr(table, "manifest", None)
    if isinstance(manifest, dict):
        payload["manifest"] = manifest
    return payload


def table_from_wire(payload: Any, *, what: str = "result table") -> Table:
    """Rebuild a :class:`~repro.utils.tables.Table` from its wire payload."""
    if not isinstance(payload, Mapping) or "columns" not in payload:
        raise TransportError(
            f"malformed {what}: expected a JSON object with columns/rows")
    check_schema_version(payload, what=what)
    try:
        table = Table(columns=[str(c) for c in payload["columns"]],
                      title=str(payload.get("title", "")),
                      rows=[list(r) for r in payload.get("rows") or []])
    except (TypeError, ValueError) as exc:
        raise TransportError(f"malformed {what}: {exc}") from exc
    n_cols = len(table.columns)
    bad = [i for i, row in enumerate(table.rows) if len(row) != n_cols]
    if bad:
        raise TransportError(
            f"malformed {what}: rows {bad[:5]} do not match the "
            f"{n_cols}-column header"
        )
    manifest = payload.get("manifest")
    if isinstance(manifest, dict):
        table.manifest = manifest
    return table


# --------------------------------------------------------------------- #
# typed error bodies
# --------------------------------------------------------------------- #
#: Errors that survive a wire round-trip as their own class.  Anything
#: else re-raises as TransportError carrying the original type name.
#: ``repro lint`` (rule ``typed-errors``) checks this tuple against the
#: class hierarchy: every :class:`ReproError` subclass in the codebase
#: must appear here, or it degrades to TransportError/SolverError when a
#: client re-raises it off the wire.
WIRE_ERROR_TYPES: tuple = (
    AuthError,
    BackendUnavailableError,
    CircuitOpenError,
    DeadlineExceededError,
    FailpointSpecError,
    FingerprintMismatchError,
    InfeasibleProblemError,
    InjectedFaultError,
    InvalidArgumentTypeError,
    InvalidGraphError,
    InvalidModelError,
    InvalidOptionError,
    InvalidParameterError,
    InvalidSolutionError,
    JobStateError,
    MergeError,
    NotSeriesParallelError,
    OverloadedError,
    PollTimeoutError,
    ReproError,
    SchemaVersionError,
    ServerShutdownError,
    ShardError,
    ShardGapError,
    ShardOverlapError,
    ShutdownError,
    SolverError,
    TransientTransportError,
    TransportError,
    UnknownBackendError,
    UnknownColumnError,
    UnknownJobError,
    UnknownOptionError,
    UnknownSolverError,
    WorkerCrashLoopError,
)

_WIRE_ERRORS: dict[str, type[ReproError]] = {
    cls.__name__: cls for cls in WIRE_ERROR_TYPES
}

#: Wire errors whose constructor accepts a ``retry_after`` keyword.
_RETRY_AFTER_ERRORS = (OverloadedError, ServerShutdownError)


def error_to_wire(exc: BaseException) -> dict[str, Any]:
    """Typed error body of an exception (the 4xx/5xx HTTP payload)."""
    detail: dict[str, Any] = {
        "type": type(exc).__name__, "message": str(exc),
    }
    retry_after = getattr(exc, "retry_after", None)
    if retry_after is not None:
        detail["retry_after"] = float(retry_after)
    return {"schema_version": SCHEMA_VERSION, "error": detail}


def raise_wire_error(payload: Any, *, fallback: str = "backend error") -> None:
    """Re-raise a typed error body as its library exception class.

    Unknown types (and non-error payloads) raise
    :class:`TransportError` so a client never swallows a failure body.
    """
    detail = payload.get("error") if isinstance(payload, Mapping) else None
    if not isinstance(detail, Mapping):
        raise TransportError(f"{fallback}: {payload!r}")
    name = str(detail.get("type") or "")
    message = str(detail.get("message") or fallback)
    cls = _WIRE_ERRORS.get(name)
    if cls is None:
        raise TransportError(f"{name or 'unknown error'}: {message}")
    if issubclass(cls, _RETRY_AFTER_ERRORS):
        retry_after = detail.get("retry_after")
        raise cls(message, retry_after=(
            float(retry_after) if retry_after is not None else None))
    raise cls(message)
