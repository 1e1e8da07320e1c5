"""Solver-independent optimality check for Continuous-model solutions.

The Continuous program over durations ``d`` and completion times ``t``
has linear constraints, so a feasible point is optimal exactly when the
objective gradient is a non-negative combination of the gradients of its
active constraints (KKT stationarity).  :func:`kkt_residual` measures how
far a solution is from that, without trusting the solver that produced it.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import nnls

from repro.core.solution import Solution, asap_times

#: Optimal points score below ~4e-4; stalled or merely feasible ones
#: (an iteration-capped run 0.21% above the optimum, uniform scaling)
#: score 2e-2 and up.
KKT_TOLERANCE = 1e-3


def kkt_residual(solution: Solution, active_tol: float = 1e-6) -> float:
    """Relative residual ``min ||grad f + A^T lam|| / ||grad f||``, ``lam >= 0``.

    Durations come from ``solution.speeds()`` and completion times from
    the ASAP schedule; ``A`` stacks the rows of ``g(d, t) <= 0`` active
    within ``active_tol`` (relative): precedence ``t_u - t_v + d_v``, start
    ``d_i - t_i``, deadline ``t_i - D`` and speed cap ``w_i/s_max - d_i``.
    """
    problem = solution.problem
    idx = problem.graph.index()
    n = idx.n_tasks
    speeds = solution.speeds()
    s = np.array([speeds[name] for name in idx.names])
    d = idx.works / s
    start, finish = asap_times(idx, d)
    eps = active_tol * problem.deadline
    rows = []
    for u, v in zip(idx.edge_src, idx.edge_dst):
        if start[v] - finish[u] <= eps:
            rows.append({n + u: 1.0, n + v: -1.0, v: 1.0})
    s_max = problem.model.max_speed
    for i in range(n):
        if start[i] <= eps:
            rows.append({i: 1.0, n + i: -1.0})
        if finish[i] >= problem.deadline - eps:
            rows.append({n + i: 1.0})
        if math.isfinite(s_max) and s[i] >= s_max * (1.0 - active_tol):
            rows.append({i: -1.0})
    a_matrix = np.zeros((len(rows), 2 * n))
    for k, row in enumerate(rows):
        for col, value in row.items():
            a_matrix[k, col] = value
    alpha = problem.power.alpha
    grad = np.concatenate([(1.0 - alpha) * idx.works ** alpha * d ** -alpha,
                           np.zeros(n)])
    _lam, residual = nnls(a_matrix.T, -grad)
    return float(residual / np.linalg.norm(grad))
