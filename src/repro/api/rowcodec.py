"""Compact binary row codec for batch solve responses.

``POST /v1/solve_batch`` answers with thousands of tiny result rows; as
per-row JSON objects they cost more to serialise and parse than the solves
themselves did.  This codec packs the numeric columns of all rows into one
base64 float64 matrix inside a single JSON frame:

- ``data``: little-endian float64, row-major ``count x len(columns)``;
  ``None`` travels as NaN, booleans as 0.0/1.0;
- ``solvers``: legend of solver names, indexed by the ``solver_id`` column;
- ``names``: per-row instance names (plain JSON — tiny next to the matrix);
- ``errors``: sparse ``[index, error_type, message]`` triples for failed
  rows;
- ``speeds`` (optional): one flat float64 vector of per-task speeds for all
  rows plus an int64 offset vector.  Task *names* never travel — the client
  reattaches them from its own request graphs, whose task order the server
  preserved.

The frame is versioned with the wire protocol's ``schema_version`` and
decodes into :class:`~repro.api.protocol.SolveResponse` rows.
"""

from __future__ import annotations

import base64
from typing import Any, Mapping, Sequence

import numpy as np

from repro.api.protocol import SCHEMA_VERSION, SolveResponse, check_schema_version
from repro.utils.errors import TransportError

#: Numeric column layout of the packed matrix (stable within a schema
#: version; decoders reject frames with a different layout).
BATCH_COLUMNS = ("ok", "n_tasks", "energy", "makespan", "optimal",
                 "lower_bound", "seconds", "solver_id")

#: Frame discriminator, so a batch response is self-describing.
FRAME_KIND = "solve-batch-rows"


def _b64(array: np.ndarray) -> str:
    return base64.b64encode(np.ascontiguousarray(array).tobytes()).decode("ascii")


def _unb64(data: Any, dtype: str, what: str) -> np.ndarray:
    try:
        return np.frombuffer(base64.b64decode(data, validate=True),
                             dtype=dtype)
    except (TypeError, ValueError) as exc:
        raise TransportError(f"malformed batch frame: bad {what}: {exc}") from exc


def encode_rows(rows: Sequence[Any], *,
                speeds_vectors: Sequence[np.ndarray | None] | None = None
                ) -> dict[str, Any]:
    """Pack result rows (``BatchResult`` or ``SolveResponse``) into a frame.

    ``speeds_vectors`` aligns with ``rows``: per-row float64 speed vectors
    in the row's task order, or ``None`` for rows without speeds (failed
    instances, ``keep_speeds=False``).  When omitted entirely, no speeds
    frame is emitted.
    """
    count = len(rows)
    # the legend lists solvers in order of first use
    solvers = list(dict.fromkeys(row.solver for row in rows
                                 if row.solver is not None))
    solver_id = {solver: i for i, solver in enumerate(solvers)}
    # one list per column, in BATCH_COLUMNS order; numpy reads None as
    # NaN and booleans as 0/1
    matrix = np.array([
        [row.ok for row in rows],
        [row.n_tasks for row in rows],
        [row.energy for row in rows],
        [row.makespan for row in rows],
        [row.optimal for row in rows],
        [row.lower_bound for row in rows],
        [row.seconds for row in rows],
        [solver_id.get(row.solver) for row in rows],
    ], dtype="<f8").T
    frame: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "kind": FRAME_KIND,
        "count": count,
        "columns": list(BATCH_COLUMNS),
        "data": _b64(matrix),
        "solvers": solvers,
        "names": [row.name for row in rows],
        "errors": [[i, row.error_type or "", row.error or ""]
                   for i, row in enumerate(rows) if not row.ok],
    }
    if speeds_vectors is not None:
        ptr = np.zeros(count + 1, dtype="<i8")
        chunks: list[np.ndarray] = []
        for i, vec in enumerate(speeds_vectors):
            length = 0 if vec is None else int(vec.shape[0])
            ptr[i + 1] = ptr[i] + length
            if length:
                chunks.append(np.ascontiguousarray(vec, dtype="<f8"))
        flat = np.concatenate(chunks) if chunks else np.empty(0, dtype="<f8")
        frame["speeds"] = {"ptr": _b64(ptr), "data": _b64(flat)}
    return frame


def decode_rows(frame: Any, *,
                task_names: Sequence[Sequence[str] | None] | None = None
                ) -> list[SolveResponse]:
    """Unpack a batch frame into :class:`SolveResponse` rows.

    ``task_names`` aligns with the rows and supplies each instance's task
    order (the client's own request graphs); required to materialise the
    ``speeds`` dicts when the frame carries a speeds vector.
    """
    if not isinstance(frame, Mapping) or frame.get("kind") != FRAME_KIND:
        raise TransportError(
            f"malformed batch frame: expected kind {FRAME_KIND!r}")
    check_schema_version(frame, what="batch frame")
    if list(frame.get("columns") or []) != list(BATCH_COLUMNS):
        raise TransportError(
            f"malformed batch frame: column layout {frame.get('columns')!r} "
            f"does not match {list(BATCH_COLUMNS)!r}")
    try:
        count = int(frame["count"])
        names = [str(n) for n in frame.get("names") or []]
        solvers = [str(s) for s in frame.get("solvers") or []]
    except (TypeError, ValueError, KeyError) as exc:
        raise TransportError(f"malformed batch frame: {exc}") from exc
    matrix = _unb64(frame.get("data"), "<f8", "data matrix")
    if matrix.shape[0] != count * len(BATCH_COLUMNS):
        raise TransportError(
            f"malformed batch frame: data matrix holds {matrix.shape[0]} "
            f"cells, expected {count}x{len(BATCH_COLUMNS)}")
    matrix = matrix.reshape(count, len(BATCH_COLUMNS))
    if len(names) != count:
        raise TransportError(
            f"malformed batch frame: {len(names)} names for {count} rows")

    error_of: dict[int, tuple[str, str]] = {}
    for entry in frame.get("errors") or []:
        try:
            error_of[int(entry[0])] = (str(entry[1]), str(entry[2]))
        except (TypeError, ValueError, IndexError) as exc:
            raise TransportError(
                f"malformed batch frame: bad error entry {entry!r}") from exc

    speeds_ptr = speeds_flat = None
    speeds_frame = frame.get("speeds")
    if speeds_frame is not None:
        if not isinstance(speeds_frame, Mapping):
            raise TransportError("malformed batch frame: speeds is not an object")
        speeds_ptr = _unb64(speeds_frame.get("ptr"), "<i8", "speeds offsets")
        speeds_flat = _unb64(speeds_frame.get("data"), "<f8", "speeds vector")
        if speeds_ptr.shape[0] != count + 1 \
                or (count and speeds_ptr[-1] != speeds_flat.shape[0]):
            raise TransportError("malformed batch frame: speeds offsets "
                                 "do not tile the speeds vector")

    rows: list[SolveResponse] = []
    for i in range(count):
        ok = bool(matrix[i, 0] == 1.0)
        solver = None
        if not np.isnan(matrix[i, 7]):
            sid = int(matrix[i, 7])
            if not 0 <= sid < len(solvers):
                raise TransportError(
                    f"malformed batch frame: solver id {sid} out of range")
            solver = solvers[sid]
        error_type, error = error_of.get(i, (None, None))
        speeds = None
        if speeds_ptr is not None and ok:
            lo, hi = int(speeds_ptr[i]), int(speeds_ptr[i + 1])
            if hi > lo:
                tasks = task_names[i] if task_names is not None else None
                if tasks is None or len(tasks) != hi - lo:
                    raise TransportError(
                        f"malformed batch frame: row {i} carries {hi - lo} "
                        "speeds but the request-side task order is unknown")
                speeds = {str(t): float(s)
                          for t, s in zip(tasks, speeds_flat[lo:hi])}
        rows.append(SolveResponse(
            ok=ok, name=names[i],
            n_tasks=int(matrix[i, 1]) if not np.isnan(matrix[i, 1]) else 0,
            energy=None if np.isnan(matrix[i, 2]) else float(matrix[i, 2]),
            makespan=None if np.isnan(matrix[i, 3]) else float(matrix[i, 3]),
            solver=solver,
            optimal=None if np.isnan(matrix[i, 4]) else bool(matrix[i, 4]),
            lower_bound=None if np.isnan(matrix[i, 5]) else float(matrix[i, 5]),
            seconds=float(matrix[i, 6]) if not np.isnan(matrix[i, 6]) else 0.0,
            error=error, error_type=error_type, speeds=speeds))
    return rows
