"""One set-up sample of a library workload, in a fresh process.

    python3 perfbench/setup_probe.py <sweep_grid|large_dag> WORKDIR

Imports ``repro``, makes the workload's fixed warm-up call and prints
``ready`` and the seconds the warm-up spent generating its input; the
parent times the process from spawn to that line and subtracts them.
``src`` must be on ``PYTHONPATH``.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))


def main(argv: list[str]) -> int:
    import repro  # noqa: F401

    from perfbench.library_load import warm_up

    generated = warm_up(argv[0], Path(argv[1]))
    print(f"ready {generated!r}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
