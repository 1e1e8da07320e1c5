"""Continuous solver for general DAGs: the convex program, solved sparsely.

For a general DAG ``MinEnergy(G, D)`` is a convex program over task
durations ``d`` and completion times ``t``: minimise
``sum_i w_i**alpha / d_i**(alpha-1)`` subject to the linear precedence,
start-time, deadline and speed-cap rows.  This module solves it at any
size (10,000-task general DAGs in seconds):

* the normalised program (deadline -> 1, mean work -> 1) is *declared*
  through :mod:`repro.modeling` — one ``d`` block, one ``t`` block, the
  shared precedence polytope — and materialises to one CSR system (no
  dense row buffers at any point);
* transitively redundant precedence rows are pruned first with a
  vectorised two-hop bitset filter (an Erdős-layered 2,000-task DAG keeps
  ~4% of its 300k edges — every dropped row is implied by a longer path,
  so the feasible region is unchanged);
* the iteration starts from uniform scaling (every task at the one speed
  at which the critical path meets the deadline), pushed strictly inside
  the polytope, and the backend starts the duals at that point's energy
  scale;
* the convex program itself is handed to a backend registered on
  :data:`repro.modeling.BACKENDS` — by default ``mehrotra-ipm``, the
  primal-dual Mehrotra predictor-corrector interior point
  (:mod:`repro.modeling.backends.mehrotra`).  Every row of the program
  touches at most one duration, so the duration block of its KKT
  matrices ``H + Gᵀ diag(λ/s) G`` is diagonal: the backend eliminates it
  and factorises only the n x n Schur complement on the completion times
  (the DAG's sparsity plus each task's predecessors joined; the duration
  of a task with more than 31 predecessors stays in the factorised
  system, so a wide join does not make it dense) — ~10-30 factorisations
  regardless of size.  The first is SuperLU's; where its factors fill in
  (Erdős DAGs up to ~1000 tasks, layered and diamond DAGs up to a few
  hundred: fill above 0.19·sqrt(n/1000) of n²), the rest are dense LAPACK
  Cholesky factors, up to 4x cheaper there; sparser ones (larger layered
  and diamond DAGs, Erdős DAGs from ~1250 tasks) stay on SuperLU, up to
  14x cheaper than dense there.  ``factorization`` and ``fill`` in the
  metadata record which path ran.

The entry point :func:`solve_general_convex_sparse` is registered as the
``convex-sparse`` backend (alias ``convex``) of the Continuous model and
is where ``solve_continuous`` sends every instance the closed forms and
the Theorem-2 passes do not settle.  (SciPy's own sparse interior point,
``minimize(method="trust-constr")`` over the same sparse Jacobian/Hessian,
was benchmarked first: its barrier loop re-centres away from the active
deadline face and needs ~0.3 s/iteration at n=500 — the specialised
iteration here converges in a fraction of the iterations at a fraction of
the per-iteration cost.)

Every returned point is feasibility-repaired (cut to the deadline, and
never worse than the warm start), so callers get a valid solution even
when the iteration stops early at ``max_iterations`` or on a singular KKT
factor.
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np
from scipy import sparse

from repro.core.problem import MinEnergyProblem
from repro.core.solution import (
    Solution,
    SpeedAssignment,
    asap_times,
    compute_makespan,
    make_solution,
    tail_times,
)
from repro.graphs.analysis import longest_path_length
from repro.graphs.taskgraph import GraphIndex
from repro.modeling import BACKENDS, ConvexModel, declare_precedence
from repro.utils.errors import SolverError

#: Normalised slack (1 minus the all-out makespan over the deadline) below
#: which the interior is too thin to iterate in.  On random zero-slack
#: DAGs, relaxing the cap by 2x this keeps every answer a KKT point from
#: 1e-7 to 3e-7; at 3e-8 SuperLU reports a singular KKT factor at the
#: first iteration, and from 1e-6 the deadline fit visibly moves the
#: answer off the optimum.
_MIN_SLACK_ROOM = 1e-7


def prune_redundant_edges(idx: GraphIndex) -> tuple[np.ndarray, np.ndarray]:
    """Drop precedence edges implied by a two-hop path (vectorised bitsets).

    An edge ``(u, v)`` is redundant for the scheduling polytope whenever a
    longer path ``u -> w -> v`` exists: the chained constraints
    ``t_w >= t_u + d_w`` and ``t_v >= t_w + d_v`` imply
    ``t_v >= t_u + d_v`` because ``d_w > 0``.  Successor/predecessor sets
    are packed into uint64 bitsets and all edges are tested with one
    chunked ``&``-reduction, so the filter is O(n·m/64) — about 0.1 s for
    the 300k edges of a 2,000-task Erdős DAG, of which it removes ~96%.

    Returns the surviving ``(edge_src, edge_dst)`` arrays (the originals
    when nothing can be pruned).
    """
    esrc, edst = idx.edge_src, idx.edge_dst
    m = len(esrc)
    n = idx.n_tasks
    if m == 0 or n == 0:
        return esrc, edst
    words = (n + 63) // 64
    succ_bits = np.zeros((n, words), dtype=np.uint64)
    pred_bits = np.zeros((n, words), dtype=np.uint64)
    one = np.uint64(1)
    np.bitwise_or.at(succ_bits, (esrc, edst // 64), one << (edst % 64).astype(np.uint64))
    np.bitwise_or.at(pred_bits, (edst, esrc // 64), one << (esrc % 64).astype(np.uint64))
    keep = np.ones(m, dtype=bool)
    # chunk the m x words intersection table to bound peak memory (~400 MB)
    chunk = max(1, 50_000_000 // words)
    for lo in range(0, m, chunk):
        hi = min(lo + chunk, m)
        inter = succ_bits[esrc[lo:hi]] & pred_bits[edst[lo:hi]]
        keep[lo:hi] = ~inter.any(axis=1)
    if keep.all():
        return esrc, edst
    return esrc[keep], edst[keep]


def declare_continuous_program(n: int, esrc: np.ndarray, edst: np.ndarray,
                               d_lower: np.ndarray,
                               works: np.ndarray | None = None,
                               alpha: float | None = None) -> ConvexModel:
    """Declare the normalised Continuous program as a :class:`ConvexModel`.

    Variable layout ``x = [d_0..d_{n-1}, t_0..t_{n-1}]`` (normalised time,
    deadline = 1).  Inequality rows, in materialisation order:

    * one per precedence edge ``(u, v)``: ``t_u - t_v + d_v <= 0``;
    * one per task: ``d_i - t_i <= 0`` (start times are non-negative);
    * one per task: ``t_i <= 1`` (the deadline, a folded upper bound);
    * one per task: ``-d_i <= -d_lower_i`` (the speed cap, a folded lower
      bound).

    When ``works``/``alpha`` are given the energy objective
    ``sum w_i**alpha * d_i**(1 - alpha)`` is declared on the ``d`` block.
    """
    model = ConvexModel(name="continuous-sparse")
    d = model.add_variables("d", n, lower=np.asarray(d_lower, dtype=float))
    t = model.add_variables("t", n, lower=None, upper=1.0)
    if works is not None and alpha is not None:
        model.add_power_objective(d, np.asarray(works, dtype=float) ** alpha,
                                  1.0 - alpha)
    declare_precedence(
        model, completion=t, duration_block=d,
        duration_cols=np.arange(n, dtype=np.int64).reshape(n, 1),
        edge_src=esrc, edge_dst=edst)
    return model


def build_sparse_constraints(n: int, esrc: np.ndarray, edst: np.ndarray,
                             d_lower: np.ndarray
                             ) -> tuple[sparse.csr_matrix, np.ndarray]:
    """CSR inequality system ``G x <= h`` of the normalised program.

    A thin view over :func:`declare_continuous_program`'s materialisation,
    kept for callers (and tests) that want the raw arrays.
    """
    mat = declare_continuous_program(n, esrc, edst, d_lower).materialize()
    return mat.g_matrix, mat.h


def _interior_start(idx: GraphIndex, d_feas: np.ndarray, d_lower: np.ndarray
                    ) -> np.ndarray | None:
    """A strictly interior ``[d, t]`` point blended from a feasible one.

    Blends the feasible durations a quarter of the way towards the
    speed-cap floor's slack so the deadline face is not active, bumps every
    duration off the cap by a depth-scaled epsilon, and spreads completion
    times level by level into the remaining slack so every precedence and
    start-time row holds strictly.  Returns ``None`` when the instance has
    (numerically) no interior: the deadline equals the fastest makespan.
    """
    n = idx.n_tasks
    ms_floor = float(asap_times(idx, d_lower)[1].max())
    slack_room = 1.0 - ms_floor
    if slack_room < _MIN_SLACK_ROOM:
        return None
    ms_feas = float(asap_times(idx, d_feas)[1].max())
    target = 1.0 - 0.25 * slack_room
    d_up = d_feas * min(target / max(ms_feas, 1e-300), 1.0)
    beta = 0.95
    depth = int(idx.level.max()) + 1 if n else 1
    eps = min(1e-9, 0.1 * slack_room / (depth + 1))
    d0 = (1.0 - beta) * d_lower + beta * np.maximum(d_up, d_lower) + eps
    _s0, f0 = asap_times(idx, d0)
    fmax = float(f0.max())
    if fmax >= 1.0 - 1e-12:
        return None
    lev = idx.level.astype(float)
    delta = 0.5 * (1.0 - fmax) / (lev.max() + 2.0)
    t0 = f0 + delta * (lev + 1.0)
    return np.concatenate([d0, t0])


def _fit_deadline(idx: GraphIndex, d: np.ndarray, d_lower: np.ndarray
                  ) -> np.ndarray:
    """Shorten durations, never below ``d_lower``, to meet the deadline 1.

    One pass in topological order: every task starts when its
    predecessors finish and keeps its duration unless that would leave
    too little time for its successors at the speed cap; then it is cut
    to that latest finish.  The cut never goes below ``d_lower`` while the
    all-out schedule meets the deadline, and only the tasks that overshoot
    lose time (a uniform rescale would push cap-bound tasks past the cap).
    """
    latest = (1.0 - tail_times(idx, d_lower)).tolist()
    lower = d_lower.tolist()
    out = d.tolist()
    pred_ptr = idx.pred_ptr.tolist()
    pred_idx = idx.pred_idx.tolist()
    finish = [0.0] * idx.n_tasks
    for u in idx.topo_order.tolist():
        start = max((finish[p] for p in pred_idx[pred_ptr[u]:pred_ptr[u + 1]]),
                    default=0.0)
        out[u] = max(lower[u], min(out[u], latest[u] - start))
        finish[u] = start + out[u]
    return np.asarray(out)


def solve_general_convex_sparse(problem: MinEnergyProblem, *,
                                max_iterations: int = 200,
                                tolerance: float = 1e-9,
                                backend: str = "mehrotra-ipm") -> Solution:
    """Sparse interior-point Continuous solver for arbitrary DAGs.

    Every matrix it touches is ``scipy.sparse`` and the iteration count is
    size-independent, so 10,000-task general DAGs solve in seconds without
    any task-count cap.

    Parameters
    ----------
    problem:
        The instance; its model's ``s_max`` (finite or infinite) is
        honoured.
    max_iterations:
        Cap on interior-point iterations (each is one KKT
        factorisation; typical instances converge in 10-30).  Passed to
        the backend when it declares the option.
    tolerance:
        Relative duality-gap target of the stopping test (ditto).
    backend:
        Any convex backend registered on :data:`repro.modeling.BACKENDS`
        (default ``"mehrotra-ipm"``; optional ``"cvxpy"``/``"ecos"``/
        ``"scs"`` when installed).

    Raises
    ------
    InfeasibleProblemError
        If the deadline cannot be met at the maximum speed.
    SolverError
        For a graph with no work.
    UnknownBackendError
        If no registered convex backend matches ``backend``.
    """
    entry = BACKENDS.resolve(backend, kind="convex")
    problem.ensure_feasible()
    graph = problem.graph
    idx = graph.index()
    n = idx.n_tasks
    alpha = problem.power.alpha
    deadline = problem.deadline
    s_max = problem.model.max_speed
    works_raw = idx.works

    if n == 1:
        speed = works_raw[0] / deadline
        return make_solution(problem, SpeedAssignment({idx.names[0]: speed}),
                             solver="continuous-convex-sparse", optimal=True)

    # ---- normalisation: deadline -> 1, mean work -> 1
    work_scale = float(np.mean(works_raw))
    works = works_raw / work_scale
    s_max_n = s_max * deadline / work_scale if math.isfinite(s_max) else math.inf
    if math.isfinite(s_max_n):
        d_lower = works / s_max_n
    else:
        d_lower = np.full(n, 1e-9)
    d_lower = np.maximum(d_lower, 1e-9)

    cp_norm = longest_path_length(graph, weight=works)
    if cp_norm <= 0:
        raise SolverError("graph has no work")

    def objective(d: np.ndarray) -> float:
        return float(np.sum(works ** alpha * d ** (1.0 - alpha)))

    def makespan_of(d: np.ndarray) -> float:
        return compute_makespan(graph, d)

    warm_d = np.maximum(works / cp_norm, d_lower)
    stage = "uniform-scaling-warm-start"

    x0 = _interior_start(idx, warm_d, d_lower)
    ipm_lower = d_lower
    if x0 is None:
        # (near-)zero slack: the cap pins every critical task and leaves
        # the program no interior to iterate in, yet the tasks off the
        # critical paths can still slow down.  Iterate with the cap relaxed
        # by a hair; the clamp to d_lower and the deadline fit below
        # restore both, costing those few tasks that hair of time.
        ipm_lower = d_lower * (1.0 - 2.0 * _MIN_SLACK_ROOM)
        x0 = _interior_start(idx, warm_d, ipm_lower)
    if x0 is None:
        # the deadline sits below the all-out makespan, within the
        # feasibility tolerance: only the all-out point is left
        durations = d_lower * deadline
        speeds = {name: works_raw[i] / durations[i]
                  for i, name in enumerate(idx.names)}
        return make_solution(
            problem, SpeedAssignment(speeds),
            solver="continuous-convex-sparse", optimal=True,
            metadata={"stage": "speed-cap-saturated", "iterations": 0},
        )

    esrc, edst = prune_redundant_edges(idx)
    model = declare_continuous_program(n, esrc, edst, ipm_lower,
                                       works=works, alpha=alpha)
    # pass only the options the chosen backend declares (cvxpy-family
    # backends have no iteration/tolerance knobs)
    options = {name: value
               for name, value in (("max_iterations", max_iterations),
                                   ("tolerance", tolerance))
               if entry.accepts(name)}
    result = BACKENDS.solve(model, backend=backend, options=options,
                            hints={"x0": x0})
    x = result.x
    diagnostics = result.metadata

    best_d = np.clip(x[:n], d_lower, 1.0)
    converged = bool(diagnostics.get("converged", True))
    ipm_stage = "ipm" if converged else "ipm-stopped"
    if makespan_of(best_d) > 1.0:
        best_d = _fit_deadline(idx, best_d, d_lower)
        ipm_stage += "-deadline-fit"
    if makespan_of(best_d) <= 1.0 + 1e-9 and objective(best_d) <= objective(warm_d):
        stage = ipm_stage
    else:
        best_d = warm_d  # repaired point is worse (or infeasible): keep warm

    durations = best_d * deadline
    speeds = {name: works_raw[i] / durations[i]
              for i, name in enumerate(idx.names)}
    if math.isfinite(s_max):
        worst = max(speeds.values()) / s_max
        if worst > 1.0 + 1e-6:
            raise SolverError(
                f"convex-sparse produced speeds exceeding s_max by "
                f"{worst - 1.0:.2%} (stage {stage})"
            )
    assignment = SpeedAssignment(speeds)
    metadata: dict[str, Any] = {
        "stage": stage,
        "iterations": int(diagnostics.get("iterations", 0)),
        "converged": converged,
        "duality_gap": diagnostics.get("duality_gap", 0.0),
        "n_constraints": int(diagnostics.get("n_constraints",
                                             model.materialize().g_matrix.shape[0])),
        "n_edges_pruned": int(idx.n_edges - len(esrc)),
        "backend": diagnostics.get("backend", backend),
        "factorization": diagnostics.get("factorization"),
        "fill": diagnostics.get("fill"),
        "build_seconds": diagnostics.get("build_seconds"),
        "solve_seconds": diagnostics.get("solve_seconds"),
        "model_fingerprint": diagnostics.get("model_fingerprint"),
        "objective": float(assignment.energy(graph, problem.power)),
    }
    return make_solution(problem, assignment, solver="continuous-convex-sparse",
                         optimal=True, metadata=metadata)
