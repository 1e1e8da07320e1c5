"""Mehrotra predictor-corrector interior-point backend (convex programs).

This is the sparse primal-dual iteration formerly private to
:mod:`repro.continuous.sparse`, lifted out and generalised over any
materialised :class:`~repro.modeling.model.MaterializedConvex`: the model
supplies ``G x <= h`` in CSR plus a declarative
:class:`~repro.modeling.model.PowerObjective` from which the backend
derives gradients and diagonal Hessians itself.

Each iteration factorises one sparse SPD matrix ``H + Gᵀ diag(λ/s) G``
(SuperLU) and reuses the factorisation for the predictor and corrector
solves; linear constraints mean the iterates stay exactly primal-feasible,
so stopping early still leaves a point the caller can repair.  The
iteration needs a strictly interior start — callers pass it via the
``x0`` hint (the Continuous solver computes one from its warm starts).
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from repro.core.registry import OptionSpec
from repro.modeling.backends.registry import BACKENDS
from repro.modeling.model import MaterializedConvex
from repro.utils.errors import SolverError

#: Fraction-to-boundary factor of the interior-point steps.
_TAU = 0.995

#: Largest per-iteration relative change of any objective-block variable;
#: keeps the Newton model of the ``d**-alpha`` objective trustworthy
#: (without it the iteration can oscillate between two near-optimal
#: clusters on loose deadlines).
_MAX_REL_STEP = 0.5

_OPTIONS = (
    OptionSpec("max_iterations", (int,), default=200,
               doc="cap on interior-point iterations (each is one sparse "
                   "factorisation; typical instances converge in 25-60)"),
    OptionSpec("tolerance", (float, int), default=1e-9,
               doc="relative duality-gap target of the stopping test"),
)


def _max_step(values: np.ndarray, deltas: np.ndarray) -> float:
    """Largest step in ``[0, 1]`` keeping ``values + step * deltas > 0``."""
    negative = deltas < 0
    if not negative.any():
        return 1.0
    return min(1.0, _TAU * float(np.min(-values[negative] / deltas[negative])))


@BACKENDS.register("mehrotra-ipm", kinds=("convex",), options=_OPTIONS,
                   doc="sparse Mehrotra predictor-corrector interior point "
                       "(SuperLU-factorised KKT systems)")
def _solve_mehrotra(mat: MaterializedConvex, options: Mapping[str, Any],
                    hints: Mapping[str, Any]
                    ) -> tuple[np.ndarray, float, dict[str, Any]]:
    obj = mat.objective
    if obj is None:
        raise SolverError(
            f"mehrotra-ipm needs a power objective on model {mat.name!r}"
        )
    x0 = hints.get("x0")
    if x0 is None:
        raise SolverError(
            f"mehrotra-ipm needs a strictly interior start for model "
            f"{mat.name!r}: pass it as the 'x0' hint"
        )
    max_iterations = int(options.get("max_iterations", 200))
    tolerance = float(options.get("tolerance", 1e-9))

    g_matrix = mat.g_matrix
    h = mat.h
    g_t = sparse.csr_matrix(g_matrix.T)
    n_cons = g_matrix.shape[0]
    n_vars = mat.n_vars
    block = obj.block_slice()

    x = np.asarray(x0, dtype=float).copy()
    s = h - g_matrix @ x
    if not (s > 0).all():  # defensive: the interior start guarantees this
        raise SolverError("interior-point start is not strictly feasible")
    lam = np.clip(1.0 / s, 1e-6, 1e8)

    converged = False
    gap = float(s @ lam)
    iteration = 0
    for iteration in range(1, max_iterations + 1):
        grad = obj.gradient(x)
        hess = obj.hessian_diagonal(x)
        gap = float(s @ lam)
        dual_residual = grad + g_t @ lam
        grad_scale = max(1.0, float(np.abs(grad).max()))
        if (gap < tolerance * max(1.0, abs(obj.value(x)))
                and float(np.abs(dual_residual).max()) < 1e-6 * grad_scale):
            converged = True
            break

        weights = lam / s
        kkt = (sparse.diags(hess)
               + g_t @ sparse.diags(weights) @ g_matrix).tocsc()
        # primal regularisation: variables outside the objective block have
        # no Hessian of their own, and one with no tight row would
        # otherwise leave a (near-)singular pivot
        regularisation = 1e-9 * max(1.0, float(np.mean(hess[block])))
        kkt = kkt + sparse.identity(n_vars, format="csc") * regularisation
        try:
            lu = splu(kkt)
        except RuntimeError:
            kkt = kkt + sparse.identity(n_vars, format="csc") * (regularisation * 1e4)
            try:
                lu = splu(kkt)
            except RuntimeError:
                # the weights span too many decades to factorise; x is still
                # strictly primal-feasible, so hand it back unconverged
                break

        # predictor: pure Newton step towards complementarity zero
        dx_aff = lu.solve(-grad)
        ds_aff = -(g_matrix @ dx_aff)
        dlam_aff = (-lam * s - lam * ds_aff) / s
        step_p = _max_step(s, ds_aff)
        step_d = _max_step(lam, dlam_aff)
        gap_aff = float((s + step_p * ds_aff) @ (lam + step_d * dlam_aff))
        sigma = (max(gap_aff, 0.0) / gap) ** 3

        # corrector: recentre to sigma * mu with the Mehrotra correction,
        # reusing the factorisation
        mu_target = sigma * gap / n_cons
        correction = (mu_target - ds_aff * dlam_aff) / s
        dx = lu.solve(-grad - g_t @ correction)
        ds = -(g_matrix @ dx)
        dlam = (mu_target - ds_aff * dlam_aff - lam * s - lam * ds) / s
        step_p = _max_step(s, ds)
        step_d = _max_step(lam, dlam)
        relative_move = (float(np.max(np.abs(dx[block]) / x[block]))
                         if obj.size else 0.0)
        if relative_move * step_p > _MAX_REL_STEP:
            # the dual residual depends on x: a full dual step after a
            # clamped primal one overshoots and the iteration can cycle
            step_p = step_d = min(_MAX_REL_STEP / relative_move, step_d)
        x = x + step_p * dx
        s = s + step_p * ds
        lam = lam + step_d * dlam

    return x, obj.value(x), {
        "iterations": iteration,
        "duality_gap": gap,
        "converged": converged,
        "n_constraints": int(n_cons),
    }
