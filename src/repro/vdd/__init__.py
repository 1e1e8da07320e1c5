"""Solvers for the Vdd-Hopping energy model (Theorem 3).

Under Vdd-Hopping a task may split its execution across several modes, so
``MinEnergy(G, D)`` becomes a linear program: the decision variables are the
time each task spends in each mode plus the task completion times, all
constraints (work completion, precedence, deadline) are linear, and the
objective ``sum_k P(s_k) * time_{i,k}`` is linear as well.

Modules:

* :mod:`repro.vdd.lp` — the LP formulation, solved by SciPy's HiGHS (or
  any LP backend registered on :data:`repro.modeling.BACKENDS`), its
  optimum certified by :func:`repro.core.validation.check_certificate`;
* :mod:`repro.vdd.mixing` — the fast two-adjacent-mode construction: keep
  the Continuous-optimal durations and emulate each ideal speed by mixing
  the two bracketing modes (an upper bound on the LP optimum, exact when
  the continuous speeds are themselves modes).
"""

from repro.vdd.lp import solve_vdd_lp, build_vdd_lp
from repro.vdd.mixing import solve_vdd_mixing, two_mode_mix
from repro.vdd.solve import solve_vdd_hopping

__all__ = [
    "solve_vdd_lp",
    "build_vdd_lp",
    "solve_vdd_mixing",
    "two_mode_mix",
    "solve_vdd_hopping",
]
