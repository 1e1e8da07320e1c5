"""Experiment drivers E1-E10.

Each function runs one experiment of the index in DESIGN.md section 4 and
returns a :class:`repro.utils.tables.Table` whose rows are what the
corresponding table/figure of an evaluation section would contain.  The
functions accept size parameters so that the pytest-benchmark wrappers can
run them at a moderate scale while EXPERIMENTS.md records a larger run.

All drivers validate every produced solution with
:func:`repro.core.validation.check_solution`, so a run doubles as an
end-to-end integrity check of the library.
"""

from __future__ import annotations

import math
import time
from typing import Callable, Sequence

from repro.baselines.naive import solve_no_reclaim, solve_uniform_scaling
from repro.continuous.closed_forms import solve_fork
from repro.continuous.series_parallel import solve_series_parallel
from repro.continuous.solve import solve_continuous
from repro.continuous.sparse import solve_general_convex_sparse
from repro.continuous.tree import solve_tree
from repro.core.models import (
    ContinuousModel,
    DiscreteModel,
    IncrementalModel,
    VddHoppingModel,
)
from repro.core.problem import MinEnergyProblem
from repro.core.validation import check_solution
from repro.discrete.exact import solve_discrete_exact
from repro.discrete.hardness import decide_two_partition_via_energy, two_partition_gadget
from repro.discrete.heuristics import solve_discrete_best_heuristic
from repro.discrete.solve import solve_discrete
from repro.experiments.workloads import (
    WorkloadSpec,
    make_workload,
    matching_models,
    standard_mode_sets,
    workload_ensemble,
)
from repro.graphs import generators
from repro.incremental.approx import solve_incremental_approx, theorem5_ratio
from repro.utils.rng import make_rng
from repro.utils.tables import Table
from repro.vdd.lp import solve_vdd_lp
from repro.vdd.mixing import solve_vdd_mixing


# --------------------------------------------------------------------------- #
# E1 — Theorem 1: fork closed form agrees with the convex solver
# --------------------------------------------------------------------------- #
def experiment_e1_fork_closed_form(*, sizes: Sequence[int] = (2, 4, 8, 16, 32, 64),
                                   slacks: Sequence[float] = (1.2, 2.0, 4.0),
                                   seed: int = 1) -> Table:
    """Compare the Theorem 1 closed form against the numerical optimum.

    One row per (fork size, deadline slack): the closed-form energy, the
    convex-solver energy, their relative difference, and whether the
    ``s_max``-saturated branch of the theorem was used.
    """
    table = Table(
        columns=["n_leaves", "slack", "closed_form_energy", "convex_energy",
                 "relative_difference", "saturated_branch"],
        title="E1 - Theorem 1 fork closed form vs convex optimum",
    )
    rng = make_rng(seed)
    for n in sizes:
        for slack in slacks:
            graph = generators.fork(n, seed=int(rng.integers(0, 2**31 - 1)))
            s_max = 1.0
            min_makespan = (graph.work("T0") + max(graph.work(f"T{i+1}") for i in range(n))) / s_max
            problem = MinEnergyProblem(graph=graph, deadline=slack * min_makespan,
                                       model=ContinuousModel(s_max=s_max))
            closed = solve_fork(problem)
            convex = solve_general_convex_sparse(problem)
            check_solution(closed)
            check_solution(convex)
            saturated = math.isclose(max(closed.speeds().values()), s_max, rel_tol=1e-6)
            diff = abs(closed.energy - convex.energy) / convex.energy
            table.add_row(n, slack, closed.energy, convex.energy, diff, saturated)
    return table


# --------------------------------------------------------------------------- #
# E2 — Theorem 2: trees and series-parallel graphs
# --------------------------------------------------------------------------- #
def experiment_e2_tree_sp(*, sizes: Sequence[int] = (8, 16, 32, 64),
                          slack: float = 2.0, seed: int = 2) -> Table:
    """Compare the polynomial tree/SP algorithms against the convex solver."""
    table = Table(
        columns=["graph_class", "n_tasks", "poly_energy", "convex_energy",
                 "relative_difference", "poly_solver"],
        title="E2 - Theorem 2 tree / series-parallel algorithms vs convex optimum",
    )
    rng = make_rng(seed)
    for n in sizes:
        for cls in ("tree", "series_parallel"):
            graph_seed = int(rng.integers(0, 2**31 - 1))
            if cls == "tree":
                graph = generators.random_tree(n, seed=graph_seed)
            else:
                graph = generators.random_series_parallel(n, seed=graph_seed)
            spec_speed = 1.0
            from repro.graphs.analysis import longest_path_length

            min_makespan = longest_path_length(graph) / spec_speed
            problem = MinEnergyProblem(graph=graph, deadline=slack * min_makespan,
                                       model=ContinuousModel())
            poly = solve_tree(problem) if cls == "tree" else solve_series_parallel(problem)
            convex = solve_general_convex_sparse(
                problem.with_model(ContinuousModel(s_max=100.0 * spec_speed))
            )
            check_solution(poly)
            check_solution(convex)
            diff = abs(poly.energy - convex.energy) / convex.energy
            table.add_row(cls, graph.n_tasks, poly.energy, convex.energy, diff, poly.solver)
    return table


# --------------------------------------------------------------------------- #
# E3 — Theorem 3: Vdd-Hopping LP
# --------------------------------------------------------------------------- #
def experiment_e3_vdd_lp(*, n_tasks: int = 20, mode_counts: Sequence[int] = (2, 3, 4, 6, 8),
                         slack: float = 1.5, repetitions: int = 3, seed: int = 3) -> Table:
    """Vdd-Hopping LP optimum vs the Continuous lower bound and the mixing heuristic.

    Sanity relations checked per instance: ``continuous <= LP <= mixing`` and
    ``LP <= discrete heuristic`` (hopping can only help).
    """
    table = Table(
        columns=["n_modes", "continuous_lb", "vdd_lp", "vdd_mixing",
                 "discrete_heuristic", "lp_over_lb", "mixing_over_lp"],
        title="E3 - Theorem 3 Vdd-Hopping LP (mean over repetitions)",
    )
    mode_sets = standard_mode_sets(1.0)
    for m in mode_counts:
        sums = {"lb": 0.0, "lp": 0.0, "mix": 0.0, "disc": 0.0}
        base = WorkloadSpec(graph_class="layered", n_tasks=n_tasks, n_processors=3,
                            slack=slack, seed=seed + m)
        problems = workload_ensemble(base, repetitions=repetitions)
        for problem in problems:
            models = matching_models(1.0, m, mode_sets=mode_sets)
            continuous = solve_continuous(problem.with_model(models["continuous"]))
            vdd_problem = problem.with_model(models["vdd"])
            lp = solve_vdd_lp(vdd_problem)
            mixing = solve_vdd_mixing(vdd_problem)
            disc = solve_discrete_best_heuristic(problem.with_model(models["discrete"]))
            for s in (continuous, lp, mixing, disc):
                check_solution(s)
            sums["lb"] += continuous.energy
            sums["lp"] += lp.energy
            sums["mix"] += mixing.energy
            sums["disc"] += disc.energy
        k = float(len(problems))
        lb, lp_e, mix, disc_e = (sums["lb"] / k, sums["lp"] / k,
                                 sums["mix"] / k, sums["disc"] / k)
        table.add_row(m, lb, lp_e, mix, disc_e, lp_e / lb, mix / lp_e)
    return table


# --------------------------------------------------------------------------- #
# E4 — Theorem 4: NP-hardness gadget and exact-search growth
# --------------------------------------------------------------------------- #
def experiment_e4_discrete_exact(*, sizes: Sequence[int] = (6, 8, 10, 12),
                                 repetitions: int = 3, seed: int = 4) -> Table:
    """Exact branch-and-bound growth and 2-Partition round-trip.

    One row per instance size: mean explored nodes of exact search on random
    layered DAGs (with 3 modes), plus the fraction of random 2-Partition
    gadgets answered consistently with a brute-force subset-sum check.
    """
    table = Table(
        columns=["n_tasks", "mean_nodes_explored", "mean_exact_energy",
                 "mean_heuristic_energy", "heuristic_over_exact",
                 "two_partition_agreement"],
        title="E4 - Theorem 4 exact search growth and 2-Partition reduction",
    )
    rng = make_rng(seed)
    modes = (0.4, 0.7, 1.0)
    for n in sizes:
        nodes = 0.0
        exact_sum = 0.0
        heur_sum = 0.0
        agreement = 0
        for _rep in range(repetitions):
            spec = WorkloadSpec(graph_class="layered", n_tasks=n, n_processors=2,
                                slack=1.6, seed=int(rng.integers(0, 2**31 - 1)))
            problem = make_workload(spec, model=DiscreteModel(modes=modes))
            exact = solve_discrete_exact(problem)
            heuristic = solve_discrete_best_heuristic(problem)
            check_solution(exact)
            check_solution(heuristic)
            nodes += exact.metadata["nodes_explored"]
            exact_sum += exact.energy
            heur_sum += heuristic.energy

            # 2-Partition round-trip on a small random instance
            values = [int(v) for v in rng.integers(1, 12, size=min(n, 10))]
            if sum(values) % 2 == 1:
                values[0] += 1
            expected = _brute_force_two_partition(values)
            answered = decide_two_partition_via_energy(values)
            agreement += int(expected == answered)
        k = float(repetitions)
        table.add_row(n, nodes / k, exact_sum / k, heur_sum / k,
                      (heur_sum / k) / (exact_sum / k), agreement / k)
    return table


def _brute_force_two_partition(values: list[int]) -> bool:
    """Reference subset-sum decision used to validate the reduction."""
    total = sum(values)
    if total % 2 == 1:
        return False
    target = total // 2
    reachable = {0}
    for v in values:
        reachable |= {r + v for r in reachable if r + v <= target}
    return target in reachable


# --------------------------------------------------------------------------- #
# E5 — Theorem 5 / Proposition 1: Incremental approximation ratios
# --------------------------------------------------------------------------- #
def experiment_e5_incremental_approx(*, n_tasks: int = 16,
                                     deltas: Sequence[float] = (0.35, 0.175, 0.1, 0.05),
                                     k_values: Sequence[int] = (1, 4, 1000),
                                     repetitions: int = 3, seed: int = 5) -> Table:
    """Measured vs guaranteed approximation ratios for the Incremental model.

    For every grid increment ``delta`` and accuracy parameter ``K``, reports
    the Theorem 5 a-priori bound and the worst measured ratio against the
    Continuous lower bound across the ensemble; the measured ratio must not
    exceed the bound.
    """
    table = Table(
        columns=["delta", "k", "a_priori_ratio", "worst_measured_ratio",
                 "mean_measured_ratio", "within_guarantee"],
        title="E5 - Theorem 5 Incremental approximation ratios",
    )
    s_min, s_max = 0.3, 1.0
    for delta in deltas:
        model = IncrementalModel.from_range(s_min, s_max, delta)
        for k in k_values:
            worst = 0.0
            total = 0.0
            count = 0
            base = WorkloadSpec(graph_class="layered", n_tasks=n_tasks, n_processors=3,
                                slack=1.4, seed=seed)
            for problem in workload_ensemble(base, repetitions=repetitions):
                inc_problem = problem.with_model(model)
                solution = solve_incremental_approx(inc_problem, k=k)
                check_solution(solution)
                ratio = solution.metadata["a_posteriori_ratio"]
                worst = max(worst, ratio)
                total += ratio
                count += 1
            bound = theorem5_ratio(model, k)
            table.add_row(delta, k, bound, worst, total / count, worst <= bound + 1e-9)
    return table


# --------------------------------------------------------------------------- #
# E6 — report-style figure: energy ratio vs number of modes
# --------------------------------------------------------------------------- #
def experiment_e6_modes_sweep(*, n_tasks: int = 24,
                              mode_counts: Sequence[int] = (2, 3, 4, 6, 8, 12, 16),
                              slack: float = 1.5, repetitions: int = 3,
                              seed: int = 6) -> Table:
    """Energy ratio over the Continuous lower bound as the mode count grows.

    The figure's expected shape: every mode-based model converges towards
    1.0 as modes are added; Vdd-Hopping converges fastest (it interpolates
    between modes), the Discrete heuristic is the slowest, and the
    Incremental model sits close to Vdd-Hopping once its grid is fine.
    """
    table = Table(
        columns=["n_modes", "discrete_ratio", "vdd_ratio", "incremental_ratio"],
        title="E6 - energy ratio vs Continuous lower bound as a function of mode count",
    )
    mode_sets = standard_mode_sets(1.0)
    for m in mode_counts:
        sums = {"disc": 0.0, "vdd": 0.0, "inc": 0.0}
        base = WorkloadSpec(graph_class="layered", n_tasks=n_tasks, n_processors=4,
                            slack=slack, seed=seed + m)
        problems = workload_ensemble(base, repetitions=repetitions)
        for problem in problems:
            models = matching_models(1.0, m, mode_sets=mode_sets)
            lb = solve_continuous(problem.with_model(models["continuous"])).energy
            disc = solve_discrete(problem.with_model(models["discrete"]), exact=False)
            vdd = solve_vdd_lp(problem.with_model(models["vdd"]))
            inc = solve_incremental_approx(problem.with_model(models["incremental"]))
            for s in (disc, vdd, inc):
                check_solution(s)
            sums["disc"] += disc.energy / lb
            sums["vdd"] += vdd.energy / lb
            sums["inc"] += inc.energy / lb
        k = float(len(problems))
        table.add_row(m, sums["disc"] / k, sums["vdd"] / k, sums["inc"] / k)
    return table


# --------------------------------------------------------------------------- #
# E7 — report-style figure: energy ratio vs deadline tightness
# --------------------------------------------------------------------------- #
def experiment_e7_deadline_sweep(*, n_tasks: int = 24,
                                 slacks: Sequence[float] = (1.05, 1.2, 1.5, 2.0, 3.0, 4.0),
                                 n_modes: int = 5, repetitions: int = 3,
                                 seed: int = 7) -> Table:
    """Energy ratio over the Continuous lower bound as the deadline loosens.

    Expected shape: ratios are worst near a tight deadline (speeds are forced
    onto the few fast modes) and improve as the deadline loosens, until every
    model hits the slowest admissible speed and the ratios flatten.
    """
    table = Table(
        columns=["slack", "discrete_ratio", "vdd_ratio", "incremental_ratio",
                 "uniform_baseline_ratio"],
        title="E7 - energy ratio vs deadline tightness (D / minimum makespan)",
    )
    mode_sets = standard_mode_sets(1.0)
    for slack in slacks:
        sums = {"disc": 0.0, "vdd": 0.0, "inc": 0.0, "uniform": 0.0}
        base = WorkloadSpec(graph_class="layered", n_tasks=n_tasks, n_processors=4,
                            slack=slack, seed=seed)
        problems = workload_ensemble(base, repetitions=repetitions)
        for problem in problems:
            models = matching_models(1.0, n_modes, mode_sets=mode_sets)
            lb = solve_continuous(problem.with_model(models["continuous"])).energy
            disc = solve_discrete(problem.with_model(models["discrete"]), exact=False)
            vdd = solve_vdd_lp(problem.with_model(models["vdd"]))
            inc = solve_incremental_approx(problem.with_model(models["incremental"]))
            uniform = solve_uniform_scaling(problem.with_model(models["discrete"]))
            for s in (disc, vdd, inc, uniform):
                check_solution(s)
            sums["disc"] += disc.energy / lb
            sums["vdd"] += vdd.energy / lb
            sums["inc"] += inc.energy / lb
            sums["uniform"] += uniform.energy / lb
        k = float(len(problems))
        table.add_row(slack, sums["disc"] / k, sums["vdd"] / k, sums["inc"] / k,
                      sums["uniform"] / k)
    return table


# --------------------------------------------------------------------------- #
# E8 — report-style table: per-graph-class comparison
# --------------------------------------------------------------------------- #
def experiment_e8_graph_classes(*, n_tasks: int = 24, n_modes: int = 5,
                                slack: float = 1.5, repetitions: int = 3,
                                seed: int = 8,
                                classes: Sequence[str] = ("chain", "fork", "tree",
                                                          "series_parallel", "layered")
                                ) -> Table:
    """Energy ratios per graph class for every model (one table row per class)."""
    table = Table(
        columns=["graph_class", "continuous_energy", "discrete_ratio", "vdd_ratio",
                 "incremental_ratio"],
        title="E8 - per-graph-class comparison of the energy models",
    )
    mode_sets = standard_mode_sets(1.0)
    for cls in classes:
        sums = {"cont": 0.0, "disc": 0.0, "vdd": 0.0, "inc": 0.0}
        base = WorkloadSpec(graph_class=cls, n_tasks=n_tasks, n_processors=4,
                            slack=slack, seed=seed)
        problems = workload_ensemble(base, repetitions=repetitions)
        for problem in problems:
            models = matching_models(1.0, n_modes, mode_sets=mode_sets)
            cont = solve_continuous(problem.with_model(models["continuous"]))
            lb = cont.energy
            disc = solve_discrete(problem.with_model(models["discrete"]), exact=False)
            vdd = solve_vdd_lp(problem.with_model(models["vdd"]))
            inc = solve_incremental_approx(problem.with_model(models["incremental"]))
            for s in (cont, disc, vdd, inc):
                check_solution(s)
            sums["cont"] += cont.energy
            sums["disc"] += disc.energy / lb
            sums["vdd"] += vdd.energy / lb
            sums["inc"] += inc.energy / lb
        k = float(len(problems))
        table.add_row(cls, sums["cont"] / k, sums["disc"] / k, sums["vdd"] / k,
                      sums["inc"] / k)
    return table


# --------------------------------------------------------------------------- #
# E9 — report-style table: energy reclaimed vs the no-reclaim baseline
# --------------------------------------------------------------------------- #
def experiment_e9_reclaiming_gain(*, n_tasks: int = 24, n_modes: int = 5,
                                  slacks: Sequence[float] = (1.2, 1.5, 2.0, 3.0),
                                  repetitions: int = 3, seed: int = 9) -> Table:
    """Fraction of the no-reclaim energy saved by each strategy.

    This is the paper's motivation quantified: how much energy does speed
    re-selection reclaim from a schedule that simply runs everything at
    ``s_max``?  Expected shape: savings grow roughly like ``1 - 1/slack**2``
    for the Continuous model and the other models follow it from below.
    """
    table = Table(
        columns=["slack", "no_reclaim_energy", "continuous_saving", "vdd_saving",
                 "discrete_saving", "incremental_saving", "uniform_saving"],
        title="E9 - energy reclaimed relative to the no-reclaim baseline",
    )
    mode_sets = standard_mode_sets(1.0)
    for slack in slacks:
        sums = {"base": 0.0, "cont": 0.0, "vdd": 0.0, "disc": 0.0, "inc": 0.0,
                "uniform": 0.0}
        base = WorkloadSpec(graph_class="layered", n_tasks=n_tasks, n_processors=4,
                            slack=slack, seed=seed)
        problems = workload_ensemble(base, repetitions=repetitions)
        for problem in problems:
            models = matching_models(1.0, n_modes, mode_sets=mode_sets)
            baseline = solve_no_reclaim(problem.with_model(models["discrete"]))
            cont = solve_continuous(problem.with_model(models["continuous"]))
            vdd = solve_vdd_lp(problem.with_model(models["vdd"]))
            disc = solve_discrete(problem.with_model(models["discrete"]), exact=False)
            inc = solve_incremental_approx(problem.with_model(models["incremental"]))
            uniform = solve_uniform_scaling(problem.with_model(models["discrete"]))
            for s in (baseline, cont, vdd, disc, inc, uniform):
                check_solution(s)
            sums["base"] += baseline.energy
            sums["cont"] += 1.0 - cont.energy / baseline.energy
            sums["vdd"] += 1.0 - vdd.energy / baseline.energy
            sums["disc"] += 1.0 - disc.energy / baseline.energy
            sums["inc"] += 1.0 - inc.energy / baseline.energy
            sums["uniform"] += 1.0 - uniform.energy / baseline.energy
        k = float(len(problems))
        table.add_row(slack, sums["base"] / k, sums["cont"] / k, sums["vdd"] / k,
                      sums["disc"] / k, sums["inc"] / k, sums["uniform"] / k)
    return table


# --------------------------------------------------------------------------- #
# E10 — scalability of the solvers
# --------------------------------------------------------------------------- #
def experiment_e10_scalability(*, sizes: Sequence[int] = (10, 20, 40, 80),
                               n_modes: int = 5, slack: float = 1.5,
                               seed: int = 10) -> Table:
    """Wall-clock solver time as a function of the task count.

    Expected shape: the SP/tree algorithms and the heuristics stay
    near-linear, the LP grows polynomially, and the convex solver dominates
    the cost for large non-SP graphs.
    """
    table = Table(
        columns=["n_tasks", "continuous_seconds", "vdd_lp_seconds",
                 "discrete_heuristic_seconds", "incremental_seconds"],
        title="E10 - solver wall-clock time vs instance size",
    )
    mode_sets = standard_mode_sets(1.0)
    rng = make_rng(seed)
    for n in sizes:
        spec = WorkloadSpec(graph_class="layered", n_tasks=n, n_processors=4,
                            slack=slack, seed=int(rng.integers(0, 2**31 - 1)))
        problem = make_workload(spec)
        models = matching_models(1.0, n_modes, mode_sets=mode_sets)
        timings = {}
        for label, build in (
            ("continuous", lambda: solve_continuous(problem.with_model(models["continuous"]))),
            ("vdd", lambda: solve_vdd_lp(problem.with_model(models["vdd"]))),
            ("discrete", lambda: solve_discrete(problem.with_model(models["discrete"]), exact=False)),
            ("incremental", lambda: solve_incremental_approx(problem.with_model(models["incremental"]))),
        ):
            start = time.perf_counter()
            solution = build()
            timings[label] = time.perf_counter() - start
            check_solution(solution)
        table.add_row(n, timings["continuous"], timings["vdd"], timings["discrete"],
                      timings["incremental"])
    return table


# --------------------------------------------------------------------------- #
# E10-SPARSE — sparse solver paths on large general DAGs
# --------------------------------------------------------------------------- #
def experiment_e10_sparse_scaling(*, sizes: Sequence[int] = (1000, 5000, 10_000),
                                  n_modes: int = 5, slack: float = 1.5,
                                  seed: int = 10) -> Table:
    """Sparse solver paths on large general (layered) DAGs.

    One row per size: the sparse interior-point Continuous solver
    (``convex-sparse``, with the factorisation its KKT systems took) and
    the incremental discrete heuristic.  Expected shape: the 1k/5k/10k
    rows complete in seconds, on SuperLU factors.
    """
    table = Table(
        columns=["n_tasks", "convex_sparse_seconds", "convex_sparse_energy",
                 "convex_sparse_factorization",
                 "discrete_heuristic_seconds", "discrete_winner", "greedy_moves"],
        title="E10-SPARSE - sparse solver paths on large general DAGs",
    )
    mode_sets = standard_mode_sets(1.0)
    rng = make_rng(seed)
    for n in sizes:
        spec = WorkloadSpec(graph_class="layered", n_tasks=n, n_processors=4,
                            slack=slack, seed=int(rng.integers(0, 2**31 - 1)))
        problem = make_workload(spec)
        models = matching_models(1.0, n_modes, mode_sets=mode_sets)
        continuous_problem = problem.with_model(models["continuous"])

        start = time.perf_counter()
        sparse_solution = solve_general_convex_sparse(continuous_problem)
        sparse_seconds = time.perf_counter() - start
        check_solution(sparse_solution)

        start = time.perf_counter()
        discrete_solution = solve_discrete_best_heuristic(
            problem.with_model(models["discrete"]))
        discrete_seconds = time.perf_counter() - start
        check_solution(discrete_solution)

        table.add_row(n, sparse_seconds, sparse_solution.energy,
                      sparse_solution.metadata.get("factorization"),
                      discrete_seconds, discrete_solution.solver,
                      discrete_solution.metadata.get("moves_applied"))
    return table


# --------------------------------------------------------------------------- #
# E3-SCALE — the Vdd-Hopping LP at 10k tasks (sparse assembly)
# --------------------------------------------------------------------------- #
def experiment_e3_lp_scaling(*, sizes: Sequence[int] = (1000, 5000, 10_000),
                             n_modes: int = 5, slack: float = 1.5,
                             seed: int = 3) -> Table:
    """Sparse Vdd-Hopping LP assembly and solve times on large general DAGs.

    One row per size: CSR assembly time, HiGHS solve time, the actual
    constraint-matrix bytes next to what the former dense assembly would
    have allocated, and the process peak RSS after the solve.  Expected
    shape: assembly stays sub-second at 10k tasks with a memory ratio in
    the thousands (the dense equivalent would be >100 GB).
    """
    import resource

    table = Table(
        columns=["n_tasks", "assemble_seconds", "solve_seconds", "lp_energy",
                 "n_variables", "n_constraints", "sparse_mb",
                 "dense_equiv_mb", "memory_ratio", "peak_rss_mb"],
        title="E3-SCALE - sparse Vdd-Hopping LP at large task counts",
    )
    from repro.vdd.lp import build_vdd_lp

    mode_sets = standard_mode_sets(1.0)
    rng = make_rng(seed)
    for n in sizes:
        spec = WorkloadSpec(graph_class="layered", n_tasks=n, n_processors=4,
                            slack=slack, seed=int(rng.integers(0, 2**31 - 1)))
        problem = make_workload(spec)
        models = matching_models(1.0, n_modes, mode_sets=mode_sets)
        vdd_problem = problem.with_model(models["vdd"])

        start = time.perf_counter()
        lp = build_vdd_lp(vdd_problem)
        assemble_seconds = time.perf_counter() - start
        memory = lp.constraint_memory()

        # solve_vdd_lp re-assembles internally; subtract the measured
        # assembly time so the column reports the pure solve
        start = time.perf_counter()
        solution = solve_vdd_lp(vdd_problem)
        solve_seconds = max(time.perf_counter() - start - assemble_seconds, 0.0)
        check_solution(solution)

        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        table.add_row(
            n, assemble_seconds, solve_seconds, solution.energy,
            solution.metadata["n_variables"], solution.metadata["n_constraints"],
            memory["sparse_bytes"] / 1e6, memory["dense_equivalent_bytes"] / 1e6,
            memory["dense_equivalent_bytes"] / max(memory["sparse_bytes"], 1),
            peak_rss_mb,
        )
    return table


# --------------------------------------------------------------------------- #
# SWEEP — batch sweep engine over (class, size, slack, alpha) grids
# --------------------------------------------------------------------------- #
def experiment_batch_sweep(*, graph_classes: Sequence[str] = ("chain", "fork", "tree",
                                                              "series_parallel", "layered"),
                           sizes: Sequence[int] = (16, 64),
                           slacks: Sequence[float] = (1.2, 2.0),
                           alphas: Sequence[float] = (3.0,),
                           model: str = "continuous", n_modes: int = 5,
                           s_max: float = 1.0,
                           repetitions: int = 2, seed: int = 11,
                           workers: int | None = None,
                           cache=None, shard=None) -> Table:
    """Batch sweep over graph class / size / deadline / alpha grids.

    One row per solved instance (failures captured in the ``error`` column,
    result-cache hits flagged in the ``cache_hit`` column); the fan-out runs
    through :func:`repro.batch.solve_many`, so ``workers`` turns the sweep
    into a process-pool run and ``cache`` (a
    :class:`repro.cache.ResultCache`) makes repeated grids near-free.
    ``shard`` (``"I/N"`` or a :class:`repro.batch.ShardSpec`) restricts the
    run to one deterministic slice of the grid.  This is the driver behind
    the ``repro sweep`` CLI subcommand.
    """
    from repro.batch import sweep

    return sweep(graph_classes=graph_classes, sizes=sizes, slacks=slacks,
                 alphas=alphas, model=model, n_modes=n_modes, s_max=s_max,
                 repetitions=repetitions, seed=seed, workers=workers,
                 cache=cache, shard=shard,
                 title="SWEEP - batch sweep engine grid")


#: Registry used by the benchmark harness and the documentation generator.
EXPERIMENT_REGISTRY: dict[str, Callable[..., Table]] = {
    "E1": experiment_e1_fork_closed_form,
    "E2": experiment_e2_tree_sp,
    "E3": experiment_e3_vdd_lp,
    "E4": experiment_e4_discrete_exact,
    "E5": experiment_e5_incremental_approx,
    "E6": experiment_e6_modes_sweep,
    "E7": experiment_e7_deadline_sweep,
    "E8": experiment_e8_graph_classes,
    "E9": experiment_e9_reclaiming_gain,
    "E10": experiment_e10_scalability,
    "E10-SPARSE": experiment_e10_sparse_scaling,
    "E3-SCALE": experiment_e3_lp_scaling,
    "SWEEP": experiment_batch_sweep,
}
