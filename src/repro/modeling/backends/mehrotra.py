"""Mehrotra predictor-corrector interior-point backend (convex programs).

This is the sparse primal-dual iteration formerly private to
:mod:`repro.continuous.sparse`, lifted out over a materialised
:class:`~repro.modeling.model.MaterializedConvex`: the model supplies
``G x <= h`` in CSR plus a declarative
:class:`~repro.modeling.model.PowerObjective` from which the backend
derives gradients and diagonal Hessians itself.

Each iteration solves its predictor and corrector Newton systems with one
matrix ``K = H + Gᵀ diag(λ/s) G``.  The backend requires every row of
``G`` to touch at most one column of the objective block (in the
Continuous program the precedence, start-time and speed-cap rows each
touch one duration, the deadline rows none), so ``K``'s objective block is
diagonal and is eliminated exactly: only the Schur complement on the
remaining variables (the completion times) is factorised, and the
objective-block step follows by back-substitution (:class:`SchurKKT`).
A duration coupled to more than :data:`_MAX_COUPLING` completion times (a
task with that many predecessors) would make the Schur complement dense
there, so it stays in the factorised system instead.
The first factorisation is SuperLU's, and the fill of its factors picks
the later ones (:data:`_DENSE_FILL`): LAPACK Cholesky of the Schur
complement in one reused dense buffer where it fills in (Erdős DAGs up to
~1000 tasks, small layered and diamond ones), SuperLU elsewhere.
Linear constraints mean the iterates stay exactly primal-feasible, so
stopping early still leaves a point the caller can repair.  The iteration
needs a strictly interior start — callers pass it via the ``x0`` hint (the
Continuous solver computes one from uniform scaling).  The duals start on
the central path at the objective's scale, ``λ = μ0 / s`` with
``μ0 = 10·f(x0) / m`` over the ``m`` rows, as in Mehrotra's starting-point
heuristic: a start gap of ``m`` whatever the objective's size (``λ = 1/s``)
takes about a third more iterations.
"""

from __future__ import annotations

import math
from typing import Any, Mapping

import numpy as np
from scipy import sparse
from scipy.linalg.lapack import dgetrf, dgetrs, dpotrf, dpotrs
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

#: Most columns an eliminated objective column may couple to (see
#: :class:`SchurKKT`).  Eliminating the duration of a fork-join's sink
#: pays at 32 predecessors and costs from 64 on (11x slower at 512); on
#: layered DAGs with up to 46 predecessors per task, 32 is as fast as
#: eliminating every duration.
_MAX_COUPLING = 32

#: Fill ``(L.nnz + U.nnz) / n_S**2`` of the first SuperLU factor of an
#: n_S = 1000 Schur complement above which :class:`SchurKKT` factorises it
#: densely with LAPACK Cholesky; the threshold scales as ``sqrt(n_S)``.
#: The dense factor's n_S**3 / 3 flops outgrow SuperLU's per-entry work as
#: n_S grows, so their break-even fill rises with n_S.  Timed per factor
#: (densifying and two solves included; one x86 core, OpenBLAS) on layered,
#: Erdős and diamond DAGs with n_S from 24 to 2000, SuperLU is faster at
#: fill 0.12 with n_S 500 and at 0.16 with n_S 1500, dense Cholesky at
#: 0.115 with n_S 169 and at 0.16 with n_S 100-250: no fixed fill picks
#: the faster path on all of them, this scaled one does on every case.
_DENSE_FILL = 0.19

_OPTIONS = (
    OptionSpec("max_iterations", (int,), default=200,
               doc="cap on interior-point iterations (each is one "
                   "factorisation; typical instances converge in 10-30)"),
    OptionSpec("tolerance", (float, int), default=1e-9,
               doc="relative duality-gap target of the stopping test"),
)


def _max_step(values: np.ndarray, deltas: np.ndarray) -> float:
    """Largest step in ``[0, 1]`` keeping ``values + step * deltas > 0``."""
    negative = deltas < 0
    if not negative.any():
        return 1.0
    return min(1.0, _TAU * float(np.min(-values[negative] / deltas[negative])))


def _pairs_in_rows(indptr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every pair ``p <= q`` of entries sharing a row of a CSR pattern, as
    two arrays of entry positions."""
    row_end = np.repeat(indptr[1:], np.diff(indptr))
    repeats = row_end - np.arange(indptr[-1])
    p = np.repeat(np.arange(indptr[-1]), repeats)
    q = p + np.arange(len(p)) - np.repeat(np.cumsum(repeats) - repeats,
                                          repeats)
    return p, q


class SchurKKT:
    """The Newton matrix ``K = diag(hess) + Gᵀ diag(w) G + reg·I`` of a
    convex model, solved with the columns ``d`` of its objective block
    eliminated.

    With at most one objective column per row of ``G``, ``K_dd`` is the
    diagonal ``k_d``, so ``K [x_d; x_t] = [r_d; r_t]`` reduces to the SPD
    system ``S x_t = r_t - K_td (r_d / k_d)`` over the other variables
    ``t``, with ``S = K_tt - K_td diag(1/k_d) K_dt``, and then
    ``x_d = (r_d - K_dt x_t) / k_d``.  Eliminating a ``d`` column adds a
    dense clique over the columns it couples to (its ``K_dt`` row) to
    ``S``, so a column coupling more than :data:`_MAX_COUPLING` of them
    (the duration of a task with many predecessors, such as the sink of a
    wide join) is not eliminated: it joins ``t``, where the factorisation
    orders it like any other variable.

    The sparsity of ``S``, ``K_dt`` and ``k_d`` depends on ``G`` alone, so
    it is built once, with index maps that fill their values from the row
    weights ``w`` in a few ``np.bincount`` calls (``S`` is summed on its
    lower triangle and mirrored).  The first factorisation is SuperLU's
    with a COLAMD column order, and the fill of its factors picks the path
    of every later one (``factorization``, ``fill``):

    * up to :data:`_DENSE_FILL` times ``sqrt(n_S / 1000)``, ``S`` is
      assembled in that column order and SuperLU keeps it.  All of its
      factorisations pivot partially: a factor without pivoting was no
      faster, and it breaks down on some ``S`` whose diagonal spans ~25
      decades;
    * above it, the first factor is dropped and the lower triangle of
      ``S`` is scattered into one dense buffer, factorised in place by
      LAPACK ``dpotrf``.  ``S`` is SPD, but late in an iteration it is a
      difference of terms up to ~25 decades apart, and rounding can leave
      a pivot that is not positive (about one 96-task layered DAG in 150,
      for a few factorisations each): that factorisation is redone on the
      same ``S`` by LU with partial pivoting (``dgetrf``), as SuperLU
      would.  A singular LU fails it the way a singular SuperLU factor
      does.

    ``block`` is the objective block's column slice of ``g_matrix``;
    ``name`` names the model in the error raised when a row touches two
    of its columns.
    """

    def __init__(self, g_matrix: sparse.csr_matrix, block: slice,
                 name: str) -> None:
        g = sparse.csr_matrix(g_matrix, copy=True)
        g.sum_duplicates()
        n_rows, n_vars = g.shape
        rows = np.repeat(np.arange(n_rows), np.diff(g.indptr))
        cols, vals = g.indices.astype(np.int64), g.data
        in_block = (cols >= block.start) & (cols < block.stop)
        per_row = np.bincount(rows[in_block], minlength=n_rows)
        if n_rows and per_row.max() > 1:
            row = int(np.argmax(per_row))
            raise SolverError(
                f"mehrotra-ipm eliminates the objective block of model "
                f"{name!r}, so no constraint row may touch two of its "
                f"columns; row {row} touches {per_row[row]}"
            )
        # the d columns: objective columns coupling few others
        block_of_row = np.full(n_rows, -1, dtype=np.int64)
        block_of_row[rows[in_block]] = cols[in_block]
        owner = block_of_row[rows[~in_block]]
        couplings = np.unique(owner[owner >= 0] * n_vars
                              + cols[~in_block][owner >= 0]) // n_vars
        is_d = np.zeros(n_vars, dtype=bool)
        is_d[block] = (np.bincount(couplings, minlength=n_vars)[block]
                       <= _MAX_COUPLING)
        d_index, t_cols = np.flatnonzero(is_d), np.flatnonzero(~is_d)
        n_d, n_t = len(d_index), len(t_cols)
        local = np.empty(n_vars, dtype=np.int64)
        local[d_index] = np.arange(n_d)
        local[t_cols] = np.arange(n_t)
        in_d = is_d[cols]
        d_rows, d_cols = rows[in_d], local[cols[in_d]]
        d_vals = vals[in_d]
        d_of_row = np.full(n_rows, -1, dtype=np.int64)
        d_of_row[d_rows] = d_cols
        d_coef = np.zeros(n_rows)
        d_coef[d_rows] = d_vals

        # k_d = hess + reg + sum over rows of w * (d coefficient)**2; the
        # Hessian of an objective column left in t goes on S's diagonal
        self._d_row = d_rows.astype(np.int32)
        self._d_col = d_cols.astype(np.int32)
        self._d_sq = d_vals ** 2
        kept = t_cols[(t_cols >= block.start) & (t_cols < block.stop)]
        self._hess_d = (d_index - block.start).astype(np.int32)
        self._hess_t = (kept - block.start).astype(np.int32)
        self._hess_t_pos = local[kept].astype(np.int32)

        # G restricted to t, still grouped by row
        t_row = rows[~in_d]
        t_col = local[cols[~in_d]]
        t_val = vals[~in_d]
        t_ptr = np.concatenate(
            [[0], np.cumsum(np.bincount(t_row, minlength=n_rows))])

        # K_dt: one term per t entry of a row with a d column
        coupled = d_of_row[t_row] >= 0
        kdt_keys = d_of_row[t_row[coupled]] * n_t + t_col[coupled]
        kdt_unique, kdt_pos = np.unique(kdt_keys, return_inverse=True)
        self._kdt_pos = kdt_pos.astype(np.int32)
        self._kdt_src = t_row[coupled].astype(np.int32)
        self._kdt_coef = d_coef[t_row[coupled]] * t_val[coupled]
        self._kdt_row = (kdt_unique // n_t).astype(np.int32)
        self._kdt_col = (kdt_unique % n_t).astype(np.int32)
        self._kdt = np.zeros(len(kdt_unique))
        kdt_ptr = np.concatenate(
            [[0], np.cumsum(np.bincount(self._kdt_row, minlength=n_d))])

        # S = reg·I + Σ_r w_r g_rt g_rtᵀ − Σ_j u_j u_jᵀ, u_j = K_dt[j] / √k_j,
        # summed on the lower triangle: one term per pair p <= q of a row.
        # Columns ascend within the rows of both patterns, so the pair's
        # key ``col[q] * n_t + col[p]`` names a lower-triangle entry.
        gtt_p, gtt_q = _pairs_in_rows(t_ptr)
        sch_p, sch_q = _pairs_in_rows(kdt_ptr)
        kdt_col = self._kdt_col.astype(np.int64)
        lower, s_pos = np.unique(np.concatenate([
            np.arange(n_t, dtype=np.int64) * (n_t + 1),
            t_col[gtt_q] * n_t + t_col[gtt_p],
            kdt_col[sch_q] * n_t + kdt_col[sch_p],
        ]), return_inverse=True)
        self._s_pos = s_pos.astype(np.int32)
        self._lower_row = (lower // n_t).astype(np.int32)
        self._lower_col = (lower % n_t).astype(np.int32)
        self._gtt_src = t_row[gtt_p].astype(np.int32)
        self._gtt_coef = t_val[gtt_p] * t_val[gtt_q]
        self._sch_p = sch_p.astype(np.int32)
        self._sch_q = sch_q.astype(np.int32)
        self._assemble(np.arange(n_t))

        self._d_index = d_index
        self._t_cols = t_cols
        self._k_d = np.ones(n_d)
        self._lu: Any = None
        self._ordered = False
        self._dense: np.ndarray | None = None
        self._pivots: np.ndarray | None = None
        #: ``"superlu"`` or ``"cholesky"``: what factorises ``S`` from the
        #: second factorisation on
        self.factorization = "superlu"
        #: ``(L.nnz + U.nnz) / n_S**2`` of the first factorisation
        self.fill: float | None = None

    def factor(self, weights: np.ndarray, hess: np.ndarray,
               reg: float) -> bool:
        """Factorise ``S`` for row weights ``weights`` and the objective
        block's Hessian diagonal ``hess``.

        Returns ``False`` when LU (SuperLU's, or the dense fallback of a
        failed Cholesky factor) finds ``S`` singular even with the
        regularisation ``reg`` raised ten thousand fold.
        """
        if not self._ordered and self._lu is not None:
            # the second factorisation: the first one's fill picks the path
            threshold = _DENSE_FILL * math.sqrt(len(self._t_cols) / 1000)
            if self.fill is not None and self.fill > threshold:
                self._densify()
            else:
                self._reorder(self._lu.perm_c)
        for shift in (reg, 1e4 * reg):
            lower = self._fill(weights, hess, shift)
            if self._dense is not None:
                self._pivots = None
                self._scatter(lower)
                if dpotrf(self._dense, lower=1, clean=0,
                          overwrite_a=1)[1] == 0:
                    return True
                # rounding left a pivot that is not positive: LU with
                # partial pivoting of the same S, as SuperLU would do
                self._scatter(lower, mirrored=True)
                _lu, pivots, info = dgetrf(self._dense, overwrite_a=1)
                if info == 0:
                    self._pivots = pivots
                    return True
                continue
            self._s.data = lower[self._mirror]
            try:
                self._lu = splu(self._s, permc_spec=(
                    "NATURAL" if self._ordered else "COLAMD"))
            except RuntimeError:
                continue
            if self.fill is None:
                self.fill = ((self._lu.L.nnz + self._lu.U.nnz)
                             / max(1, len(self._t_cols)) ** 2)
            return True
        return False

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """``K⁻¹ rhs`` with the current factorisation."""
        r_d = rhs[self._d_index]
        scaled = (r_d / self._k_d)[self._kdt_row] * self._kdt
        r_t = rhs[self._t_cols] - np.bincount(
            self._kdt_col, scaled, minlength=len(self._t_cols))
        if self._dense is None:
            x_t = self._lu.solve(r_t)
        elif self._pivots is None:
            x_t = dpotrs(self._dense, r_t, lower=1)[0]
        else:
            x_t = dgetrs(self._dense, self._pivots, r_t)[0]
        out = np.empty(len(rhs))
        out[self._d_index] = (r_d - np.bincount(
            self._kdt_row, self._kdt * x_t[self._kdt_col],
            minlength=len(r_d))) / self._k_d
        out[self._t_cols] = x_t
        return out

    def _fill(self, weights: np.ndarray, hess: np.ndarray,
              reg: float) -> np.ndarray:
        """Update ``k_d`` and ``K_dt``; returns ``S``'s lower triangle."""
        k_d = hess[self._hess_d] + reg + np.bincount(
            self._d_col, weights[self._d_row] * self._d_sq,
            minlength=len(self._hess_d))
        kdt = np.bincount(self._kdt_pos,
                          weights[self._kdt_src] * self._kdt_coef,
                          minlength=len(self._kdt))
        scaled = kdt / np.sqrt(k_d)[self._kdt_row]
        diagonal = np.full(len(self._t_cols), reg)
        diagonal[self._hess_t_pos] += hess[self._hess_t]
        terms = np.concatenate([diagonal,
                                weights[self._gtt_src] * self._gtt_coef,
                                -scaled[self._sch_p] * scaled[self._sch_q]])
        self._k_d = k_d
        self._kdt = kdt
        return np.bincount(self._s_pos, terms,
                           minlength=len(self._lower_row))

    def _assemble(self, perm: np.ndarray) -> None:
        """Lay out ``S`` in full CSC with ``t`` renumbered by ``perm`` (old
        index -> new), and the map filling it from its lower triangle."""
        n_t = len(perm)
        rows, cols = perm[self._lower_row], perm[self._lower_col]
        off = np.flatnonzero(rows != cols)
        keys = (np.concatenate([cols, rows[off]]).astype(np.int64) * n_t
                + np.concatenate([rows, cols[off]]))
        order = np.argsort(keys)
        self._mirror = np.concatenate(
            [np.arange(len(rows)), off])[order].astype(np.int32)
        keys = keys[order]
        indptr = np.concatenate(
            [[0], np.cumsum(np.bincount(keys // n_t, minlength=n_t))])
        self._s = sparse.csc_matrix(
            (np.zeros(len(keys)), (keys % n_t).astype(np.int32),
             indptr.astype(np.int32)), shape=(n_t, n_t))

    def _densify(self) -> None:
        """Move to the dense path: one column-major buffer, which every
        factorisation refills and overwrites."""
        n_t = len(self._t_cols)
        self._lu = self._s = self._mirror = None
        self._dense = np.zeros((n_t, n_t), order="F")
        self._dense_flat = self._dense.ravel(order="F")
        rows = self._lower_row.astype(np.int64)
        cols = self._lower_col.astype(np.int64)
        self._dense_pos = cols * n_t + rows
        self._strict = np.flatnonzero(rows != cols)
        self._dense_upper = (rows * n_t + cols)[self._strict]
        self.factorization = "cholesky"

    def _scatter(self, lower: np.ndarray, mirrored: bool = False) -> None:
        """Write ``S`` into the dense buffer: its lower triangle, and with
        ``mirrored`` its upper one too."""
        self._dense.fill(0.0)
        self._dense_flat[self._dense_pos] = lower
        if mirrored:
            self._dense_flat[self._dense_upper] = lower[self._strict]

    def _reorder(self, perm_c: np.ndarray) -> None:
        """Renumber ``t`` so that ``S`` is assembled in the column order
        ``perm_c`` of the first factorisation."""
        self._assemble(perm_c)
        self._kdt_col = perm_c[self._kdt_col].astype(np.int32)
        self._t_cols = self._t_cols[np.argsort(perm_c)]
        self._ordered = True


@BACKENDS.register("mehrotra-ipm", kinds=("convex",), options=_OPTIONS,
                   doc="sparse Mehrotra predictor-corrector interior point "
                       "(Schur complement of the KKT systems factorised by "
                       "SuperLU, or by dense Cholesky where it fills in)")
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
    block = obj.block_slice()
    kkt = SchurKKT(g_matrix, block, mat.name)

    x = np.asarray(x0, dtype=float).copy()
    s = h - g_matrix @ x
    if not (s > 0).all():  # defensive: the interior start guarantees this
        raise SolverError("interior-point start is not strictly feasible")
    # duals on the central path at the objective's scale, so that the
    # start's gap sᵀλ is ten times f(x0): a gap far below the objective
    # (μ0 = 1 gives the row count, against ~1e7 on a 500-task Erdős DAG)
    # first climbs, over a dozen short steps.  Any factor from 3 to 50
    # takes about as many iterations.
    f0 = obj.value(x)
    mu0 = 10.0 * f0 / n_cons if math.isfinite(f0) and f0 > 0 else 1.0
    lam = np.clip(mu0 / s, 1e-6 * mu0, 1e8 * mu0)

    converged = False
    gap = float(s @ lam)
    iteration = 0
    for iteration in range(1, max_iterations + 1):
        grad = obj.gradient(x)
        hess = obj.hessian_diagonal(x)[block]
        gap = float(s @ lam)
        dual_residual = grad + g_t @ lam
        grad_scale = max(1.0, float(np.abs(grad).max()))
        if (gap < tolerance * max(1.0, abs(obj.value(x)))
                and float(np.abs(dual_residual).max()) < 1e-6 * grad_scale):
            converged = True
            break

        # primal regularisation: variables outside the objective block have
        # no Hessian of their own, and one with no tight row would
        # otherwise leave a (near-)singular pivot
        regularisation = 1e-9 * max(1.0, float(np.mean(hess)))
        if not kkt.factor(lam / s, hess, regularisation):
            # the weights span too many decades to factorise; x is still
            # strictly primal-feasible, so hand it back unconverged
            break

        # predictor: pure Newton step towards complementarity zero
        dx_aff = kkt.solve(-grad)
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
        dx = kkt.solve(-grad - g_t @ correction)
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
        "factorization": kkt.factorization,
        "fill": kkt.fill,
    }
