"""Run ``repro serve`` with the benchmark's span recorders installed.

    python3 perfbench/serve_traced.py SPANS.json serve --port N --jobs-dir D

Installs :func:`perfbench.serve_load.install_server_probes`, runs the
``repro`` command line unchanged and, once the server has drained after
SIGTERM, writes every recorded span to ``SPANS.json``.  ``src`` must be on
``PYTHONPATH``.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.serve_load import install_server_probes  # noqa: E402
from perfbench.spans import SpanRecorder  # noqa: E402


def main(argv: list[str]) -> int:
    spans_path, repro_argv = argv[0], argv[1:]
    recorder = SpanRecorder()
    install_server_probes(recorder)
    from repro.cli import main as repro_main

    code = repro_main(repro_argv)
    recorder.dump(spans_path)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
