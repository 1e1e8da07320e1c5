"""Run one workload of the repository benchmark and print its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The program is always the one in this checkout's ``src/`` (never an
installed copy); a checkout without it exits 2 before measuring anything.
BLAS and OpenMP are pinned to one thread in this process and in every
process it starts (servers, pool workers, set-up probes).

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs half the time untraced and half with span recorders
installed, and prints the per-layer metrics (a layer the workload does not
reach reads 0).  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
stamps the environment.  Every answer is checked after the timed phase; a
wrong one makes the exit status 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("serve_batch", "serve_singles", "sweep_grid", "large_dag")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
DEFAULT_SEED = 1


def cpu_probe_ms() -> float:
    """Median of five timings of a fixed pure-Python loop (host drift)."""
    timings = []
    for _ in range(5):
        t0 = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i
        timings.append(time.perf_counter() - t0)
    return statistics.median(timings) * 1e3


def _git_sha() -> str | None:
    """HEAD of the checkout, or ``None`` when it is not a git work tree."""
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 \
            or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _src_digest() -> str:
    """Digest of ``src/**/*.py``, identifying the program without git."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment(probe_before: float, probe_after: float) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "cpu_probe_ms": {"before": probe_before, "after": probe_after},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one workload of the repository benchmark.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="workload seed; every input derives from it")
    parser.add_argument("--seconds", type=float, default=18.0,
                        help="timed work per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program at {SRC / 'repro'}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]

    for var in THREAD_VARS:  # before anything loads a BLAS
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = str(SRC)
    sys.path[:0] = [str(SRC), str(ROOT)]
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"error: imported repro from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from perfbench import library_load, serve_load

    # SIGTERM unwinds like an exception, so the servers and probes this run
    # started are stopped on the way out
    signal.signal(signal.SIGTERM,
                  lambda signum, _frame: sys.exit(128 + signum))
    workroot = ROOT / "perfbench" / ".work"
    workroot.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=workroot))
    try:
        probe_before = cpu_probe_ms()
        if args.workload.startswith("serve_"):
            result = serve_load.run(args.workload, args.seed, args.seconds,
                                    bool(args.trace), ROOT, workdir,
                                    dict(os.environ))
        else:
            runner = (library_load.run_sweep_grid
                      if args.workload == "sweep_grid"
                      else library_load.run_large_dag)
            result = runner(args.seed, args.seconds, bool(args.trace), ROOT,
                            workdir, dict(os.environ))
        probe_after = cpu_probe_ms()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = result["attempted"]
    failed = attempted - result["correct"]
    values = dict(result["metrics"])
    if not args.trace:
        values["ok_ratio"] = result["correct"] / attempted
    names = {m["name"] for m in declared}
    if set(values) - names or (not args.trace and names - set(values)):
        raise RuntimeError(
            f"measured {sorted(values)}, declared {sorted(names)}")
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "trace": args.trace, "samples": result["samples"],
                      "environment": environment(probe_before, probe_after)}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": values.get(m["name"], 0.0),
                                "unit": m["unit"]} for m in declared},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
