"""Solvers for the Continuous energy model.

The paper's results implemented here:

* **Theorem 1** — closed-form optimal speeds for fork (and, by symmetry,
  join) graphs, including the ``s_max``-saturated branch
  (:mod:`repro.continuous.closed_forms`);
* **Theorem 2** — polynomial algorithms for trees and series-parallel
  graphs via equivalent-load composition
  (:mod:`repro.continuous.series_parallel`);
* the general case — ``MinEnergy(G, D)`` is a convex program over
  durations and completion times; :mod:`repro.continuous.sparse` solves
  it with a sparse primal-dual interior point;
* lower bounds used by every other model's evaluation
  (:mod:`repro.continuous.bounds`).

:func:`solve_continuous` dispatches to the best applicable method.
"""

from repro.continuous.closed_forms import (
    solve_single_task,
    solve_chain,
    solve_fork,
    solve_join,
    fork_optimal_speeds,
)
from repro.continuous.series_parallel import (
    equivalent_load,
    solve_series_parallel,
)
from repro.continuous.tree import solve_tree, is_tree
from repro.continuous.sparse import solve_general_convex_sparse
from repro.continuous.bounds import (
    continuous_lower_bound,
    load_lower_bound,
    critical_path_lower_bound,
)
from repro.continuous.solve import solve_continuous

__all__ = [
    "solve_single_task",
    "solve_chain",
    "solve_fork",
    "solve_join",
    "fork_optimal_speeds",
    "equivalent_load",
    "solve_series_parallel",
    "solve_tree",
    "is_tree",
    "solve_general_convex_sparse",
    "continuous_lower_bound",
    "load_lower_bound",
    "critical_path_lower_bound",
    "solve_continuous",
]
