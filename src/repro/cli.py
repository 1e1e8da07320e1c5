"""Command-line interface.

``python -m repro`` exposes the two things a user wants without writing
code: solving a ``MinEnergy(G, D)`` instance stored as JSON, and
regenerating any of the experiments E1–E10.

Examples
--------
Solve a graph stored in JSON under the Continuous model with 50% slack::

    python -m repro solve graph.json --model continuous --slack 1.5

Solve under a 4-mode Discrete model with an absolute deadline::

    python -m repro solve graph.json --model discrete --modes 0.4,0.6,0.8,1.0 \
        --deadline 42

Regenerate experiment E6 (modes sweep) and print its table::

    python -m repro experiment E6

List the available experiments::

    python -m repro experiment --list

Run a batch sweep over graph classes, sizes and deadline slacks on four
worker processes, emitting CSV::

    python -m repro sweep --classes chain,tree --sizes 100,1000 \
        --slacks 1.2,2.0 --workers 4 --csv

Submit the same grid as a durable job (a re-attachable record lands in
``--jobs-dir``), follow its progress, and list recorded jobs::

    python -m repro submit --classes chain,tree --sizes 100,1000 \
        --slacks 1.2,2.0 --workers 4
    python -m repro jobs --strict

Run the solver as an HTTP service and drive it from another machine — the
same verbs work against every transport, and a detached client can
re-attach by job id after a restart::

    python -m repro serve --port 8731 --jobs-dir .repro-jobs   # machine A
    JOB=$(python -m repro submit --url http://a:8731 --sizes 64 --detach)
    python -m repro status  "$JOB" --url http://a:8731
    python -m repro attach  "$JOB" --url http://a:8731
    python -m repro results "$JOB" --url http://a:8731 --csv
    python -m repro cancel  "$JOB" --url http://a:8731

Shard the sweep across three machines (every leg derives the same
deterministic partition from the base seed) and merge the dumps::

    python -m repro sweep --sizes 100,1000 --seed 7 --shard 1/3 \
        --cache-dir .repro-cache --out shard1.json     # ... 2/3, 3/3 elsewhere
    python -m repro merge shard1.json shard2.json shard3.json --csv
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Sequence

from repro.core.models import (
    ContinuousModel,
    DiscreteModel,
    EnergyModel,
    IncrementalModel,
    VddHoppingModel,
)
from repro.core.problem import MinEnergyProblem
from repro.graphs.analysis import longest_path_length
from repro.graphs.io import graph_from_json
from repro.utils.errors import ReproError


def _parse_modes(text: str) -> tuple[float, ...]:
    try:
        modes = tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise ReproError(f"could not parse mode list {text!r}: {exc}") from exc
    if not modes:
        raise ReproError("the mode list is empty")
    return modes


def _build_model(args: argparse.Namespace) -> EnergyModel:
    name = args.model
    if name == "continuous":
        return ContinuousModel(s_max=args.s_max)
    modes = _parse_modes(args.modes) if args.modes else (0.4, 0.6, 0.8, 1.0)
    if name == "discrete":
        return DiscreteModel(modes=modes)
    if name == "vdd":
        return VddHoppingModel(modes=modes)
    if name == "incremental":
        if args.modes:
            grid = sorted(modes)
            delta = grid[1] - grid[0] if len(grid) > 1 else grid[0]
            return IncrementalModel.from_range(grid[0], grid[-1], delta)
        return IncrementalModel.from_range(0.2 * args.s_max, args.s_max, 0.2 * args.s_max)
    raise ReproError(f"unknown model {name!r}")


def _cmd_solve(args: argparse.Namespace) -> int:
    from repro.api import HTTPTransport, LocalTransport, SolverClient

    with open(args.graph, "r", encoding="utf-8") as handle:
        graph = graph_from_json(handle.read())
    model = _build_model(args)
    if args.deadline is not None:
        deadline = args.deadline
    else:
        s_max = model.max_speed
        if not (s_max < float("inf")):
            raise ReproError("--slack needs a finite maximum speed; pass --deadline instead")
        deadline = args.slack * longest_path_length(
            graph, weight=graph.index().works / s_max)
    problem = MinEnergyProblem(graph=graph, deadline=deadline, model=model)
    options = {"backend": args.backend} if args.backend else {}
    policy, request_deadline = _reliability_kwargs(args)
    if getattr(args, "url", ""):
        transport = HTTPTransport(args.url,
                                  token=getattr(args, "token", "") or None,
                                  retry_policy=policy)
        client_policy = None  # the transport retries at the wire
    else:
        transport = LocalTransport(workers=1, use_threads=True)
        client_policy = policy
    with SolverClient(transport, retry_policy=client_policy,
                      deadline=request_deadline) as client:
        response = client.solve(problem, method=args.method or None,
                                exact=args.exact or None,
                                options=options or None,
                                keep_speeds=True, validate=True)
    payload = {
        "graph": graph.name,
        "n_tasks": graph.n_tasks,
        "model": model.name,
        "deadline": deadline,
        "solver": response.solver,
        "energy": response.energy,
        "makespan": response.makespan,
        "lower_bound": response.lower_bound,
        "optimal": response.optimal,
        "speeds": {k: round(v, 9)
                   for k, v in sorted((response.speeds or {}).items())},
    }
    print(json.dumps(payload, indent=2))
    return 0


def _cmd_backends(args: argparse.Namespace) -> int:
    from repro.modeling import BACKENDS
    from repro.solve import ensure_backends_loaded

    # the solver packages announce their model routes at import time
    ensure_backends_loaded()
    entries = BACKENDS.describe()
    if args.json:
        print(json.dumps(entries, indent=2))
        return 0
    for entry in entries:
        status = "available" if entry["available"] else \
            f"unavailable ({entry['reason']})"
        tags = []
        if entry["optional"]:
            tags.append("optional")
        for kind in entry["default_for"]:
            tags.append(f"default for {kind}")
        tag_text = f" [{', '.join(tags)}]" if tags else ""
        print(f"{entry['name']}  ({', '.join(entry['kinds'])})  "
              f"{status}{tag_text}")
        if entry["doc"]:
            print(f"    {entry['doc']}")
        if entry["routes"]:
            print(f"    routes: {', '.join(entry['routes'])}")
        for name, doc in entry["options"].items():
            print(f"    --{name}: {doc}" if doc else f"    --{name}")
    n_available = sum(1 for e in entries if e["available"])
    print(f"{len(entries)} registered backend(s), {n_available} available")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.experiments.drivers import EXPERIMENT_REGISTRY

    if args.list or not args.experiment_id:
        for key, fn in EXPERIMENT_REGISTRY.items():
            first_line = (fn.__doc__ or "").strip().splitlines()[0]
            print(f"{key:>4}  {first_line}")
        return 0
    key = args.experiment_id.upper()
    if key not in EXPERIMENT_REGISTRY:
        raise ReproError(
            f"unknown experiment {args.experiment_id!r}; available: "
            f"{', '.join(EXPERIMENT_REGISTRY)}"
        )
    table = EXPERIMENT_REGISTRY[key]()
    if args.csv:
        print(table.to_csv(), end="")
    else:
        print(table.to_ascii(), end="")
    return 0


def _parse_floats(text: str, *, flag: str) -> tuple[float, ...]:
    try:
        values = tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise ReproError(f"could not parse {flag} list {text!r}: {exc}") from exc
    if not values:
        raise ReproError(f"the {flag} list is empty")
    return values


def _parse_ints(text: str, *, flag: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise ReproError(f"could not parse {flag} list {text!r}: {exc}") from exc
    if not values:
        raise ReproError(f"the {flag} list is empty")
    return values


def _grid_kwargs(args: argparse.Namespace) -> dict:
    """Sweep-grid keyword arguments shared by ``sweep`` and ``submit``."""
    return dict(
        graph_classes=tuple(c.strip() for c in args.classes.split(",") if c.strip()),
        sizes=_parse_ints(args.sizes, flag="--sizes"),
        slacks=_parse_floats(args.slacks, flag="--slacks"),
        alphas=_parse_floats(args.alphas, flag="--alphas"),
        model=args.model,
        n_modes=args.n_modes,
        s_max=args.s_max,
        repetitions=args.repetitions,
        seed=args.seed,
    )


def _make_cache(args: argparse.Namespace):
    if getattr(args, "cache_dir", None):
        from repro.cache import disk_cache

        return disk_cache(args.cache_dir)
    return None


def _parse_shard(args: argparse.Namespace):
    """Resolve --shard/--shard-strategy into a ShardSpec (or None)."""
    if not getattr(args, "shard", ""):
        return None
    from repro.batch import ShardSpec

    return ShardSpec.parse(args.shard, strategy=args.shard_strategy)


def _load_priors(args: argparse.Namespace):
    """Fit timing priors from a previous run's dump for --priors-from."""
    if not getattr(args, "priors_from", ""):
        return None
    from repro.batch import load_shard_dump, priors_from_rows
    from repro.utils.tables import Table

    dump = load_shard_dump(args.priors_from)
    dump_model = dump.params.get("model")
    if dump_model and dump_model != args.model:
        print(f"warning: {args.priors_from} was swept with model "
              f"{dump_model!r} but this sweep uses {args.model!r}; the "
              "fitted timing curve may not transfer", file=sys.stderr)
    table = Table(columns=dump.columns, rows=dump.rows)
    priors = priors_from_rows(table, model=args.model)
    if not priors:
        print(f"warning: {args.priors_from} has no usable timing rows; "
              "using the built-in priors", file=sys.stderr)
        return None
    fitted = ", ".join(f"{cls or '<fallback>'}: {c:.3g}*(n/100)^{e:.2f}"
                       for cls, (c, e) in sorted(
                           priors.items(), key=lambda kv: kv[0] or ""))
    print(f"calibrated shard priors from {args.priors_from}: {fitted}",
          file=sys.stderr)
    return priors


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.batch import sweep, sweep_cache_stats, sweep_failures

    cache = _make_cache(args)
    table = sweep(
        **_grid_kwargs(args),
        workers=args.workers or None,
        cache=cache,
        shard=_parse_shard(args),
        priors=_load_priors(args),
    )
    if args.out:
        from repro.batch import write_shard_dump

        path = write_shard_dump(args.out, table)
        print(f"wrote {len(table)} rows (fingerprint "
              f"{table.manifest['fingerprint']}) to {path}", file=sys.stderr)
    if args.csv:
        print(table.to_csv(), end="")
    else:
        print(table.to_ascii(), end="")
    if cache is not None:
        stats = sweep_cache_stats(table)
        print(f"cache: {stats['hits']} hits / {stats['misses']} misses "
              f"(hit rate {stats['hit_rate']:.0%})", file=sys.stderr)
    failures = sweep_failures(table)
    if failures:
        print(f"{len(failures)} of {len(table)} instances failed "
              "(see the error column)", file=sys.stderr)
    return 0


def _reliability_kwargs(args: argparse.Namespace):
    """Resolve --retries / --deadline (with ``REPRO_RETRIES`` /
    ``REPRO_DEADLINE`` environment defaults) into a
    :class:`~repro.reliability.RetryPolicy` and a deadline budget."""
    import os

    from repro.reliability import DEADLINE_ENV, RetryPolicy

    retries = getattr(args, "retries", None)
    try:
        policy = (RetryPolicy.from_env(default_retries=2, maximum=1.0)
                  if retries is None
                  else RetryPolicy(max(0, retries), maximum=1.0))
    except ValueError as exc:
        raise ReproError(str(exc)) from exc
    deadline = getattr(args, "request_deadline", None)
    if deadline is None:
        raw = os.environ.get(DEADLINE_ENV, "").strip()
        if raw:
            try:
                deadline = float(raw)
            except ValueError:
                raise ReproError(
                    f"{DEADLINE_ENV} must be a number of seconds, "
                    f"got {raw!r}") from None
    if deadline is not None and deadline <= 0:
        raise ReproError(f"--deadline must be > 0 seconds, got {deadline}")
    return policy, deadline


def _make_transport(args: argparse.Namespace):
    """Resolve --url / --jobs-dir into the matching client transport."""
    policy, _deadline = _reliability_kwargs(args)
    if getattr(args, "url", ""):
        from repro.api import HTTPTransport

        # --token falls back to REPRO_TOKEN inside the transport
        return HTTPTransport(args.url,
                             token=getattr(args, "token", "") or None,
                             retry_policy=policy)
    from repro.api import DiskTransport

    return DiskTransport(
        args.jobs_dir,
        cache_dir=getattr(args, "cache_dir", "") or None,
        workers=max(1, getattr(args, "workers", 2)),
    )


def _make_client(args: argparse.Namespace):
    """A :class:`repro.api.SolverClient` with the reliability policies.

    The HTTP transport retries at the wire (where transient failures
    happen); the other transports retry at the client layer instead, so
    all three behave uniformly without nesting two retry loops."""
    from repro.api import HTTPTransport, SolverClient

    policy, deadline = _reliability_kwargs(args)
    transport = _make_transport(args)
    retry = None if isinstance(transport, HTTPTransport) else policy
    return SolverClient(transport, retry_policy=retry, deadline=deadline)


def _build_request(args: argparse.Namespace):
    """A :class:`repro.api.SweepRequest` from the grid/shard/name flags."""
    from repro.api import SweepRequest

    priors = _load_priors(args)
    return SweepRequest(
        **_grid_kwargs(args),
        shard=args.shard or None,
        shard_strategy=args.shard_strategy,
        priors=(None if priors is None
                else {cls or "": (c, e) for cls, (c, e) in priors.items()}),
        name=getattr(args, "name", "") or "",
    )


def _print_table(table, args: argparse.Namespace) -> None:
    if args.csv:
        print(table.to_csv(), end="")
    else:
        print(table.to_ascii(), end="")


def _stream_to_table(client, job_id: str, args: argparse.Namespace):
    """Follow a job's progress events, then return its result table.

    The shared tail of ``repro submit`` and ``repro attach``: progress
    lines go to stderr (backoff-paced, never a tight loop), the table
    comes back once the job is terminal.
    """
    for event in client.events(job_id, poll_interval=args.poll_interval):
        print(f"  {event.status}: {event.done}/{event.total} done, "
              f"{event.failed} failed", file=sys.stderr)
    table = client.results(job_id, poll_interval=args.poll_interval)
    record = client.status(job_id)
    summary = (f"{record.job_id}: {record.status} "
               f"({record.done}/{record.total}, {record.failed} failed, "
               f"{record.cache_hits} cache hits)")
    if hasattr(client.transport, "store"):
        summary += f"; record: {client.transport.store.path(record.job_id)}"
    print(summary, file=sys.stderr)
    return table


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.api import DiskTransport

    if getattr(args, "shards", 0):
        return _submit_sharded(args)
    request = _build_request(args)
    client = _make_client(args)
    transport = client.transport
    with client:
        if args.detach:
            if isinstance(transport, DiskTransport):
                # durable record only; whoever attaches first executes it
                record = transport.submit(request, start=False)
            else:
                record = client.submit(request)  # the server executes it
            print(record.job_id)
            print(f"submitted {record.job_id} (detached); follow up with "
                  f"'repro attach {record.job_id}'", file=sys.stderr)
            return 0
        record = client.submit(request)
        print(f"submitted {record.job_id}", file=sys.stderr)
        table = _stream_to_table(client, record.job_id, args)
    _print_table(table, args)
    return 0


def _submit_sharded(args: argparse.Namespace) -> int:
    """``repro submit --shards N``: park N shard jobs + their merge job.

    Records land ``pending`` in the on-disk job store for a fleet of
    ``repro work`` processes to drain; nothing is executed here.  The
    merge job's id is printed on stdout (it is the one whose results are
    the full merged grid).
    """
    from repro.api import JobStore
    from repro.fleet import submit_sharded

    if args.url:
        raise ReproError(
            "--shards parks records directly in a job store; point "
            "--jobs-dir at the store the fleet shares (the server's "
            "--jobs-dir) instead of --url"
        )
    if args.shard:
        raise ReproError("--shards partitions the grid itself; drop --shard")
    if args.detach:
        print("note: --shards always detaches; records are executed by "
              "'repro work' processes", file=sys.stderr)
    request = _build_request(args)
    store = JobStore(args.jobs_dir)
    shard_records, merge_record = submit_sharded(store, request, args.shards)
    print(merge_record["job_id"])
    print(f"parked {len(shard_records)} shard job(s) + 1 merge job "
          f"(fingerprint {merge_record.get('grid_fingerprint')}) under "
          f"{store.directory}; drain with 'repro work --jobs-dir "
          f"{args.jobs_dir}', then 'repro results "
          f"{merge_record['job_id']}'", file=sys.stderr)
    return 0


def _cmd_work(args: argparse.Namespace) -> int:
    """``repro work``: one fleet worker draining the shared job store."""
    from repro.fleet import FleetWorker, WorkerCrashLoopError

    try:
        worker = FleetWorker(
            args.jobs_dir,
            cache_dir=args.cache_dir or None,
            workers=max(1, args.workers),
            worker_id=args.worker_id or None,
            lease_seconds=args.lease if args.lease > 0 else None,
            heartbeat_seconds=(args.heartbeat if args.heartbeat > 0 else None),
            drain=args.drain if args.drain > 0 else None,
            max_strikes=args.max_strikes,
        )
    except ValueError as exc:  # bad timing pairings, bad --drain
        raise ReproError(str(exc)) from exc
    worker.install_signal_handlers()
    print(f"worker {worker.worker_id} draining {worker.store.directory} "
          f"(lease {worker.transport.lease_seconds}s, heartbeat "
          f"{worker.transport.heartbeat_seconds}s"
          + (f", exits after {args.drain}s idle" if args.drain > 0 else "")
          + ")", file=sys.stderr)
    try:
        summary = worker.run()
    except WorkerCrashLoopError as exc:
        # the claim loop struck out against a broken store: report and
        # exit non-zero so a supervisor sees the failure instead of a
        # clean drain
        print(json.dumps(worker.summary()))
        print(f"error: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(summary))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.server import serve

    return serve(host=args.host, port=args.port, jobs_dir=args.jobs_dir,
                 cache_dir=args.cache_dir or None,
                 workers=max(1, args.workers), verbose=args.verbose,
                 token=args.token or None,
                 max_inflight=max(1, args.max_inflight),
                 max_queue=max(0, args.max_queue))


def _cmd_status(args: argparse.Namespace) -> int:
    with _make_client(args) as client:
        record = client.status(args.job_id)
    if args.json:
        print(json.dumps(record.to_wire(), indent=2, default=repr))
        return 0
    print(f"{record.job_id}: {record.status} "
          f"({record.done}/{record.total} done, {record.failed} failed, "
          f"{record.cache_hits} cache hits)"
          + (f" [{record.error}]" if record.error else ""))
    return 0


def _cmd_results(args: argparse.Namespace) -> int:
    with _make_client(args) as client:
        table = client.results(args.job_id, timeout=args.timeout,
                               poll_interval=args.poll_interval)
    _print_table(table, args)
    return 0


def _cmd_cancel(args: argparse.Namespace) -> int:
    with _make_client(args) as client:
        record = client.cancel(args.job_id)
    print(f"{record.job_id}: {record.status} "
          f"({record.done}/{record.total} done)", file=sys.stderr)
    return 0


def _cmd_attach(args: argparse.Namespace) -> int:
    with _make_client(args) as client:
        record = client.attach(args.job_id)
        print(f"attached to {record.job_id} ({record.status})",
              file=sys.stderr)
        table = _stream_to_table(client, record.job_id, args)
    _print_table(table, args)
    return 0


def _cmd_merge(args: argparse.Namespace) -> int:
    from repro.batch import (
        load_shard_dump,
        merge_report,
        merge_shard_dumps,
        write_shard_dump,
    )

    dumps = [load_shard_dump(path) for path in args.dumps]
    table = merge_shard_dumps(dumps)
    if args.out:
        path = write_shard_dump(args.out, table)
        print(f"wrote merged table to {path}", file=sys.stderr)
    if args.csv:
        print(table.to_csv(), end="")
    else:
        print(table.to_ascii(), end="")
    report = merge_report(dumps, table)
    per_shard = ", ".join(f"{spelling}: {n} rows"
                          for spelling, n in report["shard_rows"].items())
    print(f"merged {report['n_shards']} shard dump(s) -> "
          f"{report['total_rows']} rows, fingerprint "
          f"{report['fingerprint']} ({per_shard})", file=sys.stderr)
    return 0


def _cmd_jobs_prune(args: argparse.Namespace) -> int:
    """``repro jobs --prune``: GC terminal records by age and status."""
    from repro.api import JobStore
    from repro.fleet import parse_duration, prune_records

    if args.url:
        raise ReproError(
            "--prune works on a local job store; run it on the machine "
            "holding --jobs-dir (pruning is an operator action, not a "
            "wire verb)"
        )
    statuses = tuple(s.strip() for s in args.prune_status.split(",")
                     if s.strip())
    try:
        older_than = (parse_duration(args.older_than)
                      if args.older_than else None)
        pruned = prune_records(JobStore(args.jobs_dir),
                               older_than=older_than, statuses=statuses,
                               dry_run=args.dry_run)
    except ValueError as exc:
        raise ReproError(str(exc)) from exc
    verb = "would prune" if args.dry_run else "pruned"
    for entry in pruned:
        age = entry["age_seconds"]
        age_text = "age unknown" if age is None else f"{age:.0f}s old"
        print(f"{verb} {entry['job_id']} ({entry['status']}, {age_text})",
              file=sys.stderr)
    print(f"{verb} {len(pruned)} record(s) under {args.jobs_dir}")
    return 0


def _cmd_jobs(args: argparse.Namespace) -> int:
    if args.prune or args.dry_run:
        return _cmd_jobs_prune(args)
    skipped: list[tuple[str, str]] = []
    if args.url:
        # scan_jobs carries the server-side skip list, so --strict audits
        # a remote job store exactly like a local one
        with _make_client(args) as client:
            listed, skipped = client.scan_jobs()
        records = [r.to_wire() for r in listed]
        for name, reason in skipped:
            print(f"warning: skipping job record {name}: {reason}",
                  file=sys.stderr)
        source = args.url
    else:
        jobs_dir = pathlib.Path(args.jobs_dir)
        source = str(jobs_dir)
        records = []
        if jobs_dir.is_dir():
            from repro.api import JobStore

            # a truncated/corrupt/newer-versioned record must not take the
            # whole listing down: it is skipped with a warning, counted in
            # the footer, and turned into a non-zero exit under --strict
            records, skipped = JobStore(jobs_dir).scan()
            for name, reason in skipped:
                print(f"warning: skipping job record {name}: {reason}",
                      file=sys.stderr)
    if not records and not skipped:
        print(f"no job records under {source}")
        return 0

    if records:
        print(f"{'job_id':<28} {'status':<10} {'done':>6} {'failed':>6} "
              f"{'hits':>5}  name")
        for record in records:
            done = f"{record.get('done', '?')}/{record.get('total', '?')}"
            print(f"{str(record.get('job_id', '?')):<28} "
                  f"{str(record.get('status', '?')):<10} {done:>6} "
                  f"{str(record.get('failed') or 0):>6} "
                  f"{str(record.get('cache_hits') or 0):>5}  "
                  f"{record.get('name') or ''}")
    print(f"{len(records)} job record(s), {len(skipped)} skipped")
    if args.strict and skipped:
        print(f"error: --strict and {len(skipped)} unreadable job record(s) "
              f"under {source}", file=sys.stderr)
        return 1
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis.runner import run_cli

    return run_cli(args)


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reclaiming the energy of a schedule: models and algorithms "
                    "(SPAA'11 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve_parser = sub.add_parser("solve", help="solve a MinEnergy(G, D) instance from JSON")
    solve_parser.add_argument("graph", help="path to a JSON task graph (see repro.graphs.io)")
    solve_parser.add_argument("--model", choices=("continuous", "discrete", "vdd", "incremental"),
                              default="continuous")
    solve_parser.add_argument("--modes", default="",
                              help="comma-separated mode speeds for the mode-based models")
    solve_parser.add_argument("--s-max", type=float, default=1.0,
                              help="maximum speed of the continuous model (default 1.0)")
    solve_parser.add_argument("--deadline", type=float, default=None,
                              help="absolute deadline D (overrides --slack)")
    solve_parser.add_argument("--slack", type=float, default=1.5,
                              help="deadline as a multiple of the minimum makespan (default 1.5)")
    solve_parser.add_argument("--exact", action="store_true",
                              help="force exact resolution for the NP-complete models")
    solve_parser.add_argument("--method", default="",
                              help="registered solver method (e.g. convex-sparse, lp, "
                                   "heuristic); default: the model's default backend")
    solve_parser.add_argument("--backend", default="",
                              help="modeling-layer LP/convex backend for methods "
                                   "that accept one (see 'repro backends'); an "
                                   "unknown name fails with the available set")
    solve_parser.add_argument("--url", default="",
                              help="solve on a remote 'repro serve' backend "
                                   "(POST /v1/solve) instead of in-process")
    solve_parser.add_argument("--token", default="",
                              help="bearer token for --url (default: the "
                                   "REPRO_TOKEN environment variable)")
    solve_parser.add_argument("--retries", type=int, default=None,
                              help="transient-failure retry attempts "
                                   "(default: the REPRO_RETRIES environment "
                                   "variable, or 2)")
    solve_parser.add_argument("--request-deadline", dest="request_deadline",
                              type=float, default=None,
                              help="end-to-end request deadline budget in "
                                   "seconds (--deadline is the problem's D), "
                                   "propagated via X-Repro-Deadline "
                                   "(default: the REPRO_DEADLINE environment "
                                   "variable, or none)")
    solve_parser.set_defaults(handler=_cmd_solve)

    backends_parser = sub.add_parser(
        "backends", help="list the registered LP/convex modeling backends, "
                         "their availability and options")
    backends_parser.add_argument("--json", action="store_true",
                                 help="emit the registry description as JSON")
    backends_parser.set_defaults(handler=_cmd_backends)

    exp_parser = sub.add_parser("experiment", help="regenerate an experiment table (E1-E10)")
    exp_parser.add_argument("experiment_id", nargs="?", default="",
                            help="experiment id, e.g. E6")
    exp_parser.add_argument("--list", action="store_true", help="list available experiments")
    exp_parser.add_argument("--csv", action="store_true", help="emit CSV instead of ASCII")
    exp_parser.set_defaults(handler=_cmd_experiment)

    def add_grid_arguments(p: argparse.ArgumentParser) -> None:
        p.add_argument("--classes", default="chain,tree,layered",
                       help="comma-separated graph classes (default chain,tree,layered)")
        p.add_argument("--sizes", default="32",
                       help="comma-separated task counts (default 32)")
        p.add_argument("--slacks", default="1.5",
                       help="comma-separated deadline slack factors (default 1.5)")
        p.add_argument("--alphas", default="3.0",
                       help="comma-separated power-law exponents (default 3.0)")
        p.add_argument("--model", choices=("continuous", "discrete", "vdd", "incremental"),
                       default="continuous")
        p.add_argument("--n-modes", type=int, default=5,
                       help="mode count for the mode-based models (default 5)")
        p.add_argument("--s-max", type=float, default=1.0,
                       help="continuous speed cap; pass inf for the uncapped "
                            "Theorem-2 regime (default 1.0)")
        p.add_argument("--repetitions", type=int, default=1,
                       help="random repetitions per grid cell (default 1)")
        p.add_argument("--seed", type=int, default=0, help="base seed (default 0)")
        p.add_argument("--cache-dir", default="",
                       help="directory of an on-disk result cache; repeated "
                            "runs are served from it (hit rate on stderr), "
                            "and shard legs sharing it reuse each other's "
                            "warm results")
        p.add_argument("--shard", default="",
                       help="solve only shard I/N of the grid (1-based, e.g. "
                            "1/3); every leg derives the same deterministic "
                            "partition from the base seed")
        p.add_argument("--shard-strategy", default="cost-weighted",
                       choices=("cost-weighted", "round-robin"),
                       help="grid partitioning strategy (default "
                            "cost-weighted: timing-prior-balanced shards)")
        p.add_argument("--priors-from", default="",
                       help="calibrate the cost-weighted partitioner from "
                            "the measured seconds of a previous run's dump "
                            "(a 'repro sweep --out' JSON); every shard leg "
                            "must pass the same dump")
        p.add_argument("--csv", action="store_true", help="emit CSV instead of ASCII")

    sweep_parser = sub.add_parser(
        "sweep", help="run a batch sweep over graph-class/size/deadline/alpha grids")
    add_grid_arguments(sweep_parser)
    sweep_parser.add_argument("--workers", type=int, default=0,
                              help="worker processes; 0 or 1 solves serially (default 0)")
    sweep_parser.add_argument("--out", default="",
                              help="also write the rows as a fingerprinted "
                                   "JSON shard dump for 'repro merge'")
    sweep_parser.set_defaults(handler=_cmd_sweep)

    merge_parser = sub.add_parser(
        "merge", help="merge per-shard sweep dumps back into the full-grid "
                      "table (fails on gaps, overlaps or fingerprint "
                      "mismatches)")
    merge_parser.add_argument("dumps", nargs="+",
                              help="shard dump files written by "
                                   "'repro sweep --shard I/N --out ...'")
    merge_parser.add_argument("--out", default="",
                              help="write the merged table as a JSON dump")
    merge_parser.add_argument("--csv", action="store_true",
                              help="emit CSV instead of ASCII")
    merge_parser.set_defaults(handler=_cmd_merge)

    def add_transport_arguments(p: argparse.ArgumentParser) -> None:
        p.add_argument("--url", default="",
                       help="base URL of a 'repro serve' backend; when "
                            "omitted the verb works against the on-disk "
                            "job store of --jobs-dir")
        p.add_argument("--jobs-dir", default=".repro-jobs",
                       help="directory of the durable job store "
                            "(default .repro-jobs)")
        p.add_argument("--token", default="",
                       help="bearer token for a --token'd server "
                            "(default: the REPRO_TOKEN environment "
                            "variable)")
        add_reliability_arguments(p)

    def add_reliability_arguments(p: argparse.ArgumentParser,
                                  deadline_flag: str = "--deadline") -> None:
        p.add_argument("--retries", type=int, default=None,
                       help="transient-failure retry attempts per request; "
                            "non-idempotent calls only retry failures that "
                            "provably never executed (default: the "
                            "REPRO_RETRIES environment variable, or 2)")
        p.add_argument(deadline_flag, dest="request_deadline",
                       type=float, default=None,
                       help="end-to-end deadline budget in seconds for each "
                            "client call, propagated to the server in the "
                            "X-Repro-Deadline header (default: the "
                            "REPRO_DEADLINE environment variable, or none)")

    def add_poll_argument(p: argparse.ArgumentParser) -> None:
        p.add_argument("--poll-interval", "--poll", dest="poll_interval",
                       type=float, default=0.2,
                       help="initial progress poll interval in seconds; "
                            "every polling path backs off exponentially "
                            "from it instead of looping tightly "
                            "(default 0.2)")

    submit_parser = sub.add_parser(
        "submit", help="submit a sweep grid as a job (to the on-disk job "
                       "store, or to a 'repro serve' backend with --url)")
    add_grid_arguments(submit_parser)
    add_transport_arguments(submit_parser)
    add_poll_argument(submit_parser)
    submit_parser.add_argument("--workers", type=int, default=2,
                               help="job worker processes (default 2)")
    submit_parser.add_argument("--name", default="", help="job display name")
    submit_parser.add_argument("--detach", action="store_true",
                               help="print the job id and return without "
                                    "waiting; follow up with 'repro attach'")
    submit_parser.add_argument("--shards", type=int, default=0,
                               help="park N detached shard jobs of this grid "
                                    "plus a dependent merge job in the job "
                                    "store for a 'repro work' fleet to "
                                    "drain (prints the merge job id)")
    submit_parser.set_defaults(handler=_cmd_submit)

    work_parser = sub.add_parser(
        "work", help="run a fleet worker: claim pending jobs from the "
                     "shared job store with a lease, execute them, repeat")
    work_parser.add_argument("--jobs-dir", default=".repro-jobs",
                             help="shared job store directory "
                                  "(default .repro-jobs)")
    work_parser.add_argument("--cache-dir", default="",
                             help="shared result cache (default: "
                                  "<jobs-dir>/cache; sharing it across the "
                                  "fleet makes reclaimed re-runs warm)")
    work_parser.add_argument("--workers", type=int, default=2,
                             help="solver processes per claimed job "
                                  "(default 2)")
    work_parser.add_argument("--worker-id", default="",
                             help="stable worker identity stamped on "
                                  "claimed records (default: host-pid)")
    work_parser.add_argument("--lease", type=float, default=0.0,
                             help="claim lease in seconds; must exceed the "
                                  "heartbeat interval (default: "
                                  "REPRO_LEASE_SECONDS or the stale-runner "
                                  "threshold)")
    work_parser.add_argument("--heartbeat", type=float, default=0.0,
                             help="lease-renewal heartbeat in seconds "
                                  "(default: REPRO_HEARTBEAT_SECONDS or 2)")
    work_parser.add_argument("--drain", type=float, default=0.0,
                             help="exit once nothing has been claimable for "
                                  "this many seconds (default: run forever)")
    work_parser.add_argument("--max-strikes", type=int, default=5,
                             help="give up (exit non-zero) after this many "
                                  "consecutive claim-loop failures; between "
                                  "strikes the loop backs off exponentially "
                                  "instead of crash-looping (default 5)")
    work_parser.set_defaults(handler=_cmd_work)

    serve_parser = sub.add_parser(
        "serve", help="run the HTTP solver service (submit/status/results/"
                      "cancel + streaming progress, durable job records)")
    serve_parser.add_argument("--host", default="127.0.0.1",
                              help="bind address (default 127.0.0.1)")
    serve_parser.add_argument("--port", type=int, default=8731,
                              help="bind port (default 8731)")
    serve_parser.add_argument("--jobs-dir", default=".repro-jobs",
                              help="durable job store directory "
                                   "(default .repro-jobs)")
    serve_parser.add_argument("--cache-dir", default="",
                              help="on-disk result cache (default: "
                                   "<jobs-dir>/cache)")
    serve_parser.add_argument("--workers", type=int, default=2,
                              help="worker processes per job (default 2)")
    serve_parser.add_argument("--verbose", action="store_true",
                              help="log requests to stderr")
    serve_parser.add_argument("--token", default="",
                              help="require 'Authorization: Bearer <token>' "
                                   "on every route except /v1/healthz "
                                   "(default: the REPRO_TOKEN environment "
                                   "variable; empty = open server)")
    serve_parser.add_argument("--max-inflight", type=int, default=8,
                              help="work requests executing concurrently "
                                   "before admission queueing starts "
                                   "(default 8)")
    serve_parser.add_argument("--max-queue", type=int, default=32,
                              help="admission-queue depth; beyond it requests "
                                   "are shed with 503 + Retry-After "
                                   "(default 32)")
    serve_parser.set_defaults(handler=_cmd_serve)

    status_parser = sub.add_parser(
        "status", help="show one job's lifecycle status and progress")
    status_parser.add_argument("job_id", help="job id (from 'repro submit')")
    add_transport_arguments(status_parser)
    status_parser.add_argument("--json", action="store_true",
                               help="emit the full job record as JSON")
    status_parser.set_defaults(handler=_cmd_status)

    results_parser = sub.add_parser(
        "results", help="wait for a job and print its result table")
    results_parser.add_argument("job_id", help="job id (from 'repro submit')")
    add_transport_arguments(results_parser)
    add_poll_argument(results_parser)
    results_parser.add_argument("--timeout", type=float, default=None,
                                help="give up after this many seconds "
                                     "(default: wait indefinitely)")
    results_parser.add_argument("--csv", action="store_true",
                                help="emit CSV instead of ASCII")
    results_parser.set_defaults(handler=_cmd_results)

    cancel_parser = sub.add_parser(
        "cancel", help="cancel a job's not-yet-started instances")
    cancel_parser.add_argument("job_id", help="job id (from 'repro submit')")
    add_transport_arguments(cancel_parser)
    cancel_parser.set_defaults(handler=_cmd_cancel)

    attach_parser = sub.add_parser(
        "attach", help="re-attach to a job by id: resume it if orphaned, "
                       "stream progress, print the results")
    attach_parser.add_argument("job_id", help="job id (from 'repro submit')")
    add_transport_arguments(attach_parser)
    add_poll_argument(attach_parser)
    attach_parser.add_argument("--workers", type=int, default=2,
                               help="worker processes if this attach resumes "
                                    "the job (default 2)")
    attach_parser.add_argument("--cache-dir", default="",
                               help="result cache a resumed job reuses "
                                    "(default: <jobs-dir>/cache)")
    attach_parser.add_argument("--csv", action="store_true",
                               help="emit CSV instead of ASCII")
    attach_parser.set_defaults(handler=_cmd_attach)

    jobs_parser = sub.add_parser(
        "jobs", help="list the job records of a job store or server")
    add_transport_arguments(jobs_parser)
    jobs_parser.add_argument("--strict", action="store_true",
                             help="exit non-zero when any record is "
                                  "unreadable instead of only warning")
    jobs_parser.add_argument("--prune", action="store_true",
                             help="garbage-collect terminal records instead "
                                  "of listing (see --older-than / "
                                  "--prune-status)")
    jobs_parser.add_argument("--older-than", default="",
                             help="with --prune: only records that finished "
                                  "at least this long ago (e.g. 90s, 15m, "
                                  "2h, 7d; default: any age)")
    jobs_parser.add_argument("--prune-status", default="done,cancelled,failed",
                             help="with --prune: comma-separated terminal "
                                  "statuses to collect (default all three; "
                                  "pending/running are never pruned)")
    jobs_parser.add_argument("--dry-run", action="store_true",
                             help="with --prune: list what would be deleted "
                                  "without deleting")
    jobs_parser.set_defaults(handler=_cmd_jobs)

    lint_parser = sub.add_parser(
        "lint", help="run the AST invariant checker over the repro package")
    from repro.analysis.runner import add_lint_arguments

    add_lint_arguments(lint_parser)
    lint_parser.set_defaults(handler=_cmd_lint)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TimeoutError as exc:
        # results/attach polling deadlines (builtin TimeoutError, not a
        # ReproError) must exit like any other CLI failure, not traceback
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
