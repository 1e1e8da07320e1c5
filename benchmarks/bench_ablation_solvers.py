"""Ablation — design choices called out in DESIGN.md.

Two ablations of the library's own design decisions (not paper results):

* **LP backend**: the Vdd-Hopping LP solved by every *available* backend
  registered on the modeling layer's registry (HiGHS, plus whichever
  optional cvxpy-family backends are installed — the table grows
  automatically with registrations).  Each row reports the backend's
  certified ``lower_bound`` and ``certificate_gap``: HiGHS's duals prove
  its optimum to rounding, and a backend that reports no duals gets the
  zero-flow bound, which is sound but loose.
* **Continuous method**: the series-parallel equivalent-load algorithm vs
  the general convex program (``convex-sparse``) on the same SP instances.
  Both must return the same optimum; the closed form is expected to be
  orders of magnitude faster, which is why the dispatcher prefers it.
"""

import time

from conftest import run_once

from repro.core.models import ContinuousModel, VddHoppingModel
from repro.core.problem import MinEnergyProblem
from repro.continuous.series_parallel import solve_series_parallel
from repro.continuous.sparse import solve_general_convex_sparse
from repro.graphs import generators
from repro.graphs.analysis import longest_path_length
from repro.modeling import BACKENDS
from repro.utils.tables import Table
from repro.vdd.lp import solve_vdd_lp


def _ablation_lp_backends(sizes=(6, 10, 14), seed=21) -> Table:
    table = Table(columns=["n_tasks", "backend", "energy", "lower_bound",
                           "certificate_gap", "seconds",
                           "build_seconds", "solve_seconds"],
                  title="Ablation A1 - Vdd-Hopping LP backend sweep "
                        "(every available registered backend, certified)")
    backends = BACKENDS.available("lp")
    for i, n in enumerate(sizes):
        graph = generators.layered_dag(n, seed=seed + i)
        model = VddHoppingModel(modes=(0.4, 0.7, 1.0))
        deadline = 1.5 * longest_path_length(graph)
        problem = MinEnergyProblem(graph=graph, deadline=deadline, model=model)
        for backend in backends:
            start = time.perf_counter()
            solution = solve_vdd_lp(problem, backend=backend)
            seconds = time.perf_counter() - start
            table.add_row(n, backend, solution.energy, solution.lower_bound,
                          solution.metadata["certificate_gap"], seconds,
                          solution.metadata["build_seconds"],
                          solution.metadata["solve_seconds"])
    return table


def _ablation_sp_vs_convex(sizes=(8, 16, 32), seed=22) -> Table:
    table = Table(columns=["n_tasks", "sp_energy", "convex_energy",
                           "relative_difference", "sp_seconds", "convex_seconds"],
                  title="Ablation A2 - series-parallel closed form vs convex program")
    for i, n in enumerate(sizes):
        graph = generators.random_series_parallel(n, seed=seed + i)
        deadline = 2.0 * longest_path_length(graph)
        problem = MinEnergyProblem(graph=graph, deadline=deadline,
                                   model=ContinuousModel(s_max=10.0))
        start = time.perf_counter()
        sp = solve_series_parallel(problem)
        sp_seconds = time.perf_counter() - start
        start = time.perf_counter()
        convex = solve_general_convex_sparse(problem)
        convex_seconds = time.perf_counter() - start
        diff = abs(sp.energy - convex.energy) / convex.energy
        table.add_row(n, sp.energy, convex.energy, diff, sp_seconds, convex_seconds)
    return table


def test_ablation_lp_backends(benchmark):
    table = run_once(benchmark, _ablation_lp_backends)
    for backend, gap in zip(table.column("backend"),
                            table.column("certificate_gap")):
        assert gap >= -1e-12
        if backend == "highs":
            assert gap <= 1e-9


def test_ablation_sp_vs_convex(benchmark):
    table = run_once(benchmark, _ablation_sp_vs_convex)
    assert max(table.column("relative_difference")) < 1e-4
    # the closed form is never slower than the convex program on SP graphs
    for sp_s, cv_s in zip(table.column("sp_seconds"), table.column("convex_seconds")):
        assert sp_s <= cv_s
