"""Linear-programming solver for the Vdd-Hopping model (Theorem 3).

Decision variables
    ``time[i, k]`` — time task ``T_i`` spends running at mode ``s_k``;
    ``t[i]``       — completion time of ``T_i``.

Linear program
    minimise    sum_{i,k} P(s_k) * time[i, k]
    subject to  sum_k s_k * time[i, k] == w_i                (work completion)
                t[v] >= t[u] + sum_k time[v, k]              for every edge (u, v)
                t[i] >= sum_k time[i, k]                     (start times >= 0)
                0 <= t[i] <= D,   time[i, k] >= 0

The LP has ``n * m + n`` variables and ``n + |E| + n`` constraints, so it is
solved in polynomial time — this is exactly the argument of Theorem 3.

The program is *declared* through :mod:`repro.modeling` — two named
variable blocks, the work-completion equalities, and the shared precedence
polytope via :func:`repro.modeling.declare_precedence` — and materialises
to sparse CSR exactly once.  No dense row buffers, no hand-rolled COO: a
10,000-task instance costs megabytes instead of the ~GBs its dense
equivalent would (each precedence row holds ``m + 2`` non-zeros out of
``n * m + n`` columns).  :meth:`VddLP.constraint_memory` reports the
actual sparse footprint next to the dense equivalent.

Any LP backend registered on :data:`repro.modeling.BACKENDS` can consume
the result: SciPy's HiGHS (default, sparse-native) or the optional
cvxpy-family backends when installed.  The same declaration over the same
modes is the time-sharing relaxation of the Discrete and Incremental
models (:mod:`repro.discrete.relaxation`).  Every solve is certified:
:func:`repro.core.validation.check_certificate` turns the backend's
precedence-row multipliers into a lower bound on the optimum, recorded as
the solution's ``lower_bound`` with the relative ``certificate_gap``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np
from scipy import sparse

from repro.core.models import VddHoppingModel
from repro.core.problem import MinEnergyProblem
from repro.core.solution import HoppingAssignment, Solution, make_solution
from repro.core.validation import check_certificate
from repro.modeling import BACKENDS, LinearModel, declare_precedence
from repro.utils.errors import InvalidModelError

__all__ = ["VddLP", "build_vdd_lp", "solve_mode_lp", "solve_vdd_lp"]


@dataclass
class VddLP:
    """The assembled LP in matrix form.

    Columns are ``time[i, k]`` at ``i * n_modes + k``, then ``t[i]``.
    ``a_ub`` and ``a_eq`` are ``scipy.sparse`` CSR matrices; use
    ``.toarray()`` for a dense view on small instances.  ``model`` is the
    underlying :class:`repro.modeling.LinearModel` declaration — hand it to
    :data:`repro.modeling.BACKENDS` to solve with any registered backend.
    """

    c: np.ndarray
    a_ub: sparse.csr_matrix
    b_ub: np.ndarray
    a_eq: sparse.csr_matrix
    b_eq: np.ndarray
    bounds: list[tuple[float, float | None]]
    model: LinearModel

    def constraint_memory(self) -> dict[str, int]:
        """Actual sparse constraint-matrix bytes vs the dense equivalent."""
        sparse_bytes = 0
        dense_bytes = 0
        for mat in (self.a_ub, self.a_eq):
            sparse_bytes += mat.data.nbytes + mat.indices.nbytes + mat.indptr.nbytes
            dense_bytes += mat.shape[0] * mat.shape[1] * 8
        return {"sparse_bytes": int(sparse_bytes),
                "dense_equivalent_bytes": int(dense_bytes)}


def declare_vdd_lp(problem: MinEnergyProblem) -> LinearModel:
    """Declare the Vdd-Hopping LP over ``problem.model.modes``.

    Serves Vdd-Hopping, Discrete and Incremental models alike: for the
    latter two it is the time-sharing relaxation.
    """
    model = problem.model
    if not model.is_mode_based():
        raise InvalidModelError(
            f"the Vdd-Hopping LP needs a mode-based model, got {model.name}"
        )
    idx = problem.graph.index()
    n = idx.n_tasks
    modes_arr = np.asarray(model.modes, dtype=float)
    m = len(model.modes)

    lm = LinearModel(name="vdd-hopping-lp")
    time = lm.add_variables("time", n * m, lower=0.0)
    completion = lm.add_variables("completion", n, lower=0.0,
                                  upper=problem.deadline)
    lm.add_objective(time, np.tile(
        np.array([problem.power.power(s) for s in model.modes]), n))

    # equality: work completion — row i holds the mode speeds over the
    # time[i, :] block
    lm.add_constraints(
        "work", sense="eq", rhs=idx.works.astype(float),
        terms=[(time,
                np.repeat(np.arange(n, dtype=np.int64), m),
                np.arange(n * m, dtype=np.int64),
                np.tile(modes_arr, n))])

    # the shared precedence polytope: task i's duration is the sum of its
    # per-mode time variables
    declare_precedence(
        lm, completion=completion, duration_block=time,
        duration_cols=np.arange(n * m, dtype=np.int64).reshape(n, m),
        edge_src=idx.edge_src, edge_dst=idx.edge_dst)
    return lm


def build_vdd_lp(problem: MinEnergyProblem) -> VddLP:
    """Assemble the Vdd-Hopping LP for a problem instance (sparse CSR)."""
    lm = declare_vdd_lp(problem)
    mat = lm.materialize()
    return VddLP(c=mat.c, a_ub=mat.a_ub, b_ub=mat.b_ub, a_eq=mat.a_eq,
                 b_eq=mat.b_eq, bounds=mat.bounds, model=lm)


def solve_mode_lp(problem: MinEnergyProblem, backend: str
                  ) -> tuple[np.ndarray, float, dict[str, Any]]:
    """Solve the Vdd-Hopping LP of a mode-based problem and certify it.

    Returns the LP point, the lower bound that
    :func:`~repro.core.validation.check_certificate` derives from the
    backend's precedence-row multipliers (from the zero flow, sound but
    loose, when the backend reports none) and the backend metadata with
    ``lp_objective``, ``certificate_gap`` (``(lp_objective - bound) /
    lp_objective``) and the LP's size.

    Raises
    ------
    InfeasibleProblemError
        If the deadline cannot be met at the fastest mode.
    UnknownBackendError
        If no registered LP backend matches ``backend``.
    SolverError
        If the LP backend fails.
    """
    problem.ensure_feasible()
    lp = build_vdd_lp(problem)
    result = BACKENDS.solve(lp.model, backend=backend)
    # the precedence rows are the first <= rows, in edge order
    n_edges = problem.graph.index().n_edges
    flow = (np.zeros(n_edges) if result.duals is None
            else np.maximum(result.duals[:n_edges], 0.0))
    bound = check_certificate(problem, flow)
    metadata = dict(result.metadata)
    metadata["lp_objective"] = result.objective
    metadata["certificate_gap"] = (result.objective - bound) / result.objective
    metadata["n_variables"] = int(lp.c.size)
    metadata["n_constraints"] = int(lp.a_ub.shape[0] + lp.a_eq.shape[0])
    metadata.update(lp.constraint_memory())
    return result.x, bound, metadata


def solve_vdd_lp(problem: MinEnergyProblem, *, backend: str = "highs") -> Solution:
    """Optimal Vdd-Hopping solution via linear programming (Theorem 3).

    The solution's ``lower_bound`` is the certified bound of
    :func:`solve_mode_lp`.

    Parameters
    ----------
    problem:
        The instance; its model must be a :class:`VddHoppingModel`.
    backend:
        Any LP backend registered on :data:`repro.modeling.BACKENDS` —
        ``"highs"`` (default, sparse-native) or an optional backend such
        as ``"cvxpy"`` when installed.

    Raises
    ------
    InvalidModelError
        If the model is not Vdd-Hopping.
    InfeasibleProblemError
        If the deadline cannot be met at the fastest mode.
    UnknownBackendError
        If no registered LP backend matches ``backend``.
    SolverError
        If the LP backend fails.
    """
    if not isinstance(problem.model, VddHoppingModel):
        raise InvalidModelError(
            f"solve_vdd_lp expects a VddHoppingModel, got {problem.model.name}"
        )
    x, bound, metadata = solve_mode_lp(problem, backend)
    modes = problem.model.modes
    graph = problem.graph
    segments: dict[str, list[tuple[float, float]]] = {}
    m = len(modes)
    for i, name in enumerate(graph.index().names):
        segs = []
        for k, s in enumerate(modes):
            t = float(x[i * m + k])
            if t > 1e-12:
                segs.append((s, t))
        if not segs:
            # degenerate numerical case: give the task an infinitesimal slot
            # at the fastest mode (its work is positive so this cannot
            # normally happen with a correct LP solution)
            segs = [(modes[-1], graph.work(name) / modes[-1])]
        # rescale so the executed work matches exactly (the LP meets the
        # equality only up to solver tolerance)
        executed = sum(s * t for s, t in segs)
        target = graph.work(name)
        if executed > 0 and abs(executed - target) > 0:
            factor = target / executed
            segs = [(s, t * factor) for s, t in segs]
        segments[name] = segs

    assignment = HoppingAssignment(segments=segments)
    return make_solution(problem, assignment, solver=f"vdd-lp-{backend}",
                         optimal=True, lower_bound=bound, metadata=metadata)
