"""Polynomial heuristics for the Discrete (and Incremental) models.

Because the exact problem is NP-complete (Theorem 4), practical instances
are solved by heuristics with a-posteriori quality certificates:

* :func:`solve_discrete_round_up` — solve the Continuous relaxation (with
  ``s_max`` equal to the fastest mode) and round every ideal speed **up** to
  the next available mode.  Rounding up only shrinks durations, so the
  assignment stays feasible; this is the construction behind Theorem 5 and
  Proposition 1, and its energy is within ``(1 + gap / s)**(alpha-1)`` of
  the Continuous lower bound, where ``gap`` is the mode gap used for each
  task;
* :func:`solve_discrete_greedy_reclaim` — start from the fastest mode
  everywhere and greedily lower the mode of whichever task yields the
  largest energy saving while the ASAP schedule still meets the deadline
  (the classical slack-reclamation loop);
* :func:`solve_discrete_best_heuristic` — run both and keep the better one.

Every returned solution carries the Continuous optimum as ``lower_bound``,
so callers can report optimality gaps without solving the NP-hard problem.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.core.models import ContinuousModel, DiscreteModel, IncrementalModel
from repro.core.problem import MinEnergyProblem
from repro.core.solution import (
    SpeedAssignment,
    Solution,
    compute_makespan,
    make_solution,
    tail_times,
)
from repro.utils.errors import InvalidModelError
from repro.utils.numerics import leq_with_tol


def _require_mode_model(problem: MinEnergyProblem) -> DiscreteModel | IncrementalModel:
    model = problem.model
    if not isinstance(model, (DiscreteModel, IncrementalModel)):
        raise InvalidModelError(
            f"expected a Discrete or Incremental model, got {model.name}"
        )
    return model


def solve_discrete_round_up(problem: MinEnergyProblem) -> Solution:
    """Round the Continuous optimum up to the next available mode.

    Feasibility: each task's duration can only decrease when its speed is
    rounded up, and the Continuous solution met every constraint, so the
    rounded assignment does too.
    """
    from repro.continuous.solve import solve_continuous

    model = _require_mode_model(problem)
    problem.ensure_feasible()
    relaxed = problem.with_model(ContinuousModel(s_max=model.max_speed))
    continuous = solve_continuous(relaxed)
    ideal = continuous.speeds()

    speeds: dict[str, float] = {}
    for name in problem.graph.task_names():
        target = max(ideal[name], model.min_speed)
        speeds[name] = model.round_up(min(target, model.max_speed))
    assignment = SpeedAssignment(speeds)
    return make_solution(
        problem, assignment, solver="discrete-round-up", optimal=False,
        lower_bound=continuous.energy,
        metadata={"continuous_solver": continuous.solver},
    )


def _tail_update(idx, durations: np.ndarray, tail: np.ndarray,
                 changed: int, max_visits: int | None = None) -> bool:
    """Repair ``tail`` in place over the ancestor cone of ``changed``.

    The backward counterpart of :meth:`GraphIndex.asap_update`: only
    ancestors whose longest downstream path moves are visited, with the
    same early exit and the same optional visit budget.  Returns ``False``
    when the budget was exceeded (the caller must rebuild with
    :func:`~repro.core.solution.tail_times`).
    """
    pred_ptr = idx.pred_ptr
    pred_idx = idx.pred_idx
    succ_ptr = idx.succ_ptr
    succ_idx = idx.succ_idx
    position = idx.topo_position
    heap = [(-int(position[p]), int(p))
            for p in pred_idx[pred_ptr[changed]:pred_ptr[changed + 1]]]
    heapq.heapify(heap)
    pending = {u for _, u in heap}
    visits = 0
    while heap:
        _, u = heapq.heappop(heap)
        pending.discard(u)
        visits += 1
        if max_visits is not None and visits > max_visits:
            return False
        best = 0.0
        for v in succ_idx[succ_ptr[u]:succ_ptr[u + 1]]:
            candidate = durations[v] + tail[v]
            if candidate > best:
                best = candidate
        if best == tail[u]:
            continue
        tail[u] = best
        for p in pred_idx[pred_ptr[u]:pred_ptr[u + 1]]:
            if p not in pending:
                pending.add(int(p))
                heapq.heappush(heap, (-int(position[p]), int(p)))
    return True


def solve_discrete_greedy_reclaim(problem: MinEnergyProblem, *,
                                  max_passes: int | None = None) -> Solution:
    """Greedy slack reclamation: lower one task's mode at a time.

    Starting from every task at the fastest mode, the move with the largest
    energy saving whose ASAP schedule still meets the deadline is applied,
    until no single-task downgrade is feasible.  Three structural facts
    turn the classical O(n²·modes) rescan loop into an O(cone)-per-step
    incremental one that accepts 10,000-task graphs:

    * a downgrade's energy saving depends only on the task's work and the
      two modes, never on the other tasks — so all candidate moves live in
      one max-heap, computed once;
    * downgrades only lengthen durations, so ASAP times are monotone
      non-decreasing over the run — a move that is infeasible now can never
      become feasible later and is discarded permanently;
    * with exact ASAP starts and exact longest *downstream* paths
      (``tail``) in hand, the makespan after a single-duration change is
      ``max(makespan, start + duration + tail)`` — every probe is O(1) and
      nothing needs reverting.

    Only *applied* moves propagate: the forward cone through
    :meth:`repro.graphs.taskgraph.GraphIndex.asap_update` and the ancestor
    cone through the mirrored tail repair, each with a visit budget that
    falls back to one full vectorised pass when a change ripples through
    most of the graph (cheaper than a huge node-by-node walk).  The move
    sequence is identical to the original full-rescan formulation.

    Parameters
    ----------
    max_passes:
        Optional cap on the number of applied moves (defaults to
        ``n_tasks * n_modes``, which is an upper bound on the number of
        possible downgrades).

    Notes
    -----
    The attached ``lower_bound`` is the cheap critical-path/load bound, not
    the full Continuous optimum (which the round-up heuristic already
    computes); callers that want the tight bound should use
    :func:`repro.continuous.bounds.continuous_lower_bound` directly.
    """
    from repro.continuous.bounds import critical_path_lower_bound
    from repro.core.solution import asap_times

    model = _require_mode_model(problem)
    problem.ensure_feasible()
    graph = problem.graph
    idx = graph.index()
    names = idx.names
    works = idx.works
    modes = list(model.modes)
    n_modes = len(modes)
    power = problem.power
    deadline = problem.deadline
    n = idx.n_tasks

    def finish_solution(mode_of, metadata):
        assignment = SpeedAssignment(
            {names[i]: modes[m] for i, m in enumerate(mode_of)})
        lower = critical_path_lower_bound(problem)
        return make_solution(
            problem, assignment, solver="discrete-greedy-reclaim",
            optimal=False, lower_bound=lower, metadata=metadata,
        )

    if max_passes is None:
        max_passes = n * n_modes

    # loose-deadline shortcut: if even the all-slowest schedule meets the
    # deadline, every single downgrade is feasible along the way and the
    # greedy provably ends with every task at the slowest mode
    total_moves = n * (n_modes - 1)
    if n_modes > 1 and max_passes >= total_moves:
        if leq_with_tol(compute_makespan(graph, works / modes[0]), deadline):
            return finish_solution([0] * n, {"moves_applied": total_moves,
                                             "all_slowest_shortcut": True})

    mode_of = [n_modes - 1] * n
    durations = works / modes[-1]
    start, finish = asap_times(idx, durations)
    makespan = float(finish.max()) if n else 0.0
    tail = tail_times(idx, durations)
    # beyond this cone size a full vectorised pass is cheaper than the
    # node-by-node walk
    budget = max(128, n // 16)

    def saving_of(i: int, m: int) -> float:
        return (power.energy_for_work(works[i], modes[m])
                - power.energy_for_work(works[i], modes[m - 1]))

    # ties break on the task index, matching the original ascending scan
    heap = [(-saving_of(i, n_modes - 1), i) for i in range(n)
            if n_modes > 1 and saving_of(i, n_modes - 1) > 0.0]
    heapq.heapify(heap)

    applied = 0
    probed = 0
    full_rebuilds = 0
    while heap and applied < max_passes:
        _neg_saving, i = heapq.heappop(heap)
        target = mode_of[i] - 1
        probed += 1
        new_duration = works[i] / modes[target]
        new_makespan = max(makespan, float(start[i]) + new_duration + float(tail[i]))
        if not leq_with_tol(new_makespan, deadline):
            continue  # infeasible now, infeasible forever: drop the task
        durations[i] = new_duration
        mode_of[i] = target
        makespan = new_makespan
        applied += 1
        touched = idx.asap_update(durations, start, finish, i,
                                  max_visits=budget)
        if touched is None:
            start, finish = asap_times(idx, durations)
            makespan = float(finish.max())
            full_rebuilds += 1
        if not _tail_update(idx, durations, tail, i, max_visits=budget):
            tail = tail_times(idx, durations)
            full_rebuilds += 1
        if target > 0:
            saving = saving_of(i, target)
            if saving > 0.0:
                heapq.heappush(heap, (-saving, i))

    return finish_solution(mode_of, {"moves_applied": applied,
                                     "moves_probed": probed,
                                     "full_rebuilds": full_rebuilds})


def solve_discrete_best_heuristic(problem: MinEnergyProblem, *,
                                  greedy_threshold: int = 10_000,
                                  greedy_depth_threshold: int = 2048) -> Solution:
    """Run both heuristics and return the one with the lower energy.

    Parameters
    ----------
    greedy_threshold:
        Task-count ceiling for the greedy slack-reclamation pass.  Since
        the greedy moved to incremental affected-cone updates (each probe
        is O(1) against exact start/tail path bounds and only applied
        moves propagate, via :meth:`GraphIndex.asap_update`), 10,000-task
        general DAGs run it comfortably; the guard remains only as an
        escape hatch for extreme grids.
    greedy_depth_threshold:
        Level-count ceiling for the greedy pass.  On path-shaped graphs
        (depth close to the task count) every affected cone *is* the rest
        of the path, so the incremental updates degenerate to Θ(n) per
        applied move; such instances are served by the chain Pareto DP or
        round-up instead.  Wide 10k-task DAGs (~100 levels) are unaffected.
    """
    round_up = solve_discrete_round_up(problem)
    idx = problem.graph.index()
    if problem.graph.n_tasks > greedy_threshold:
        round_up.metadata["greedy_skipped"] = (
            f"n_tasks {problem.graph.n_tasks} > greedy_threshold {greedy_threshold}"
        )
        return round_up
    if idx.n_levels > greedy_depth_threshold:
        round_up.metadata["greedy_skipped"] = (
            f"n_levels {idx.n_levels} > greedy_depth_threshold "
            f"{greedy_depth_threshold}"
        )
        return round_up
    greedy = solve_discrete_greedy_reclaim(problem)
    best = round_up if round_up.energy <= greedy.energy else greedy
    best.metadata["round_up_energy"] = round_up.energy
    best.metadata["greedy_energy"] = greedy.energy
    return best
