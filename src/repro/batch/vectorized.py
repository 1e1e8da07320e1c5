"""Struct-of-arrays batch solver for small Continuous instances.

The closed-form/tree/series-parallel solvers of Theorem 1/2 cost
microseconds of arithmetic per instance, but the scalar pipeline wraps each
one in graph construction, registry dispatch and (in the service) a process
pool hop — at the many-small-graphs shape the per-instance overhead
dominates by orders of magnitude.  This module removes it: B instances are
packed into one :class:`PackedBatch` of flat NumPy arrays (concatenated
task works with per-instance offsets, batch-wide edge ids) and solved *all
at once* with one bottom-up equivalent-load pass and one top-down window
pass.  No per-instance Python dispatch, no pickling, no pool hop.

Packed batches
--------------
A :class:`PackedBatch` is the vector core's one input, and a
:class:`BatchPacker` is the one way to fill it: :meth:`BatchPacker.add`
appends a wire graph dict and :meth:`BatchPacker.add_problem` a
:class:`MinEnergyProblem`, to plain lists that become arrays once.
``POST /v1/solve_batch`` decodes straight into a packer
(:meth:`repro.api.protocol.SolveRequest.from_wire` with ``pack=``);
:func:`solve_batch` packs its problems and :class:`WireInstance` entries
(a ``/v1/solve`` after :meth:`~repro.api.protocol.SolveRequest.to_instance`)
with the same two methods, so the micro-batcher's tick reads a single
request exactly as the batch route reads a row.

Every reduction over instances is a ``bincount`` over per-task instance
ids: it is safe for instances without tasks, and it sums each instance's
terms in that instance's own order, so a row does not depend on which
other instances share its batch.

Unified computation forest
--------------------------
Every vectorizable instance lowers to the combine nodes of
:mod:`repro.continuous.series_parallel` (P-combine: tree tasks and SP
parallel compositions; S-combine: SP series compositions), each with one
parent id (-1 at a root), and the core merges all of them into one forest.
A tree task's parent comes from its one edge towards the root (one scatter
over the batch's edges); an SP instance brings its
:func:`~repro.continuous.series_parallel.sp_plan`.  Pointer jumping
(:func:`~repro.continuous.series_parallel.node_depths`) gives every node
its depth and finds the parent cycles of a fake tree, and
:func:`~repro.continuous.series_parallel.fold_and_split` runs Theorem 2's
two passes over the whole batch: the same function, on the same arrays,
as :func:`~repro.continuous.tree.solve_tree` and
:func:`~repro.continuous.series_parallel.solve_series_parallel`, so a row
solved here carries the speeds those solvers give its instance.  Siblings
fold in task order, so the order of an edge list does not change a result.

Instances the vector core cannot express — non-tree/non-SP DAGs, discrete
models, instances whose uncapped speeds violate a finite ``s_max`` (the
scalar path then switches to the saturated closed forms or the convex
program), or anything above ``VECTORIZE_MAX_TASKS`` — silently fall back to
the scalar :func:`repro.solve.solve`, with the same per-instance error
capture as :func:`repro.batch.solve_many`.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Any, Mapping, NamedTuple, Sequence

import numpy as np

from repro.batch.engine import BatchResult, _WorkItem, _solve_one
from repro.continuous.series_parallel import (
    CombinePlan, fold_and_split, node_depths, sp_plan)
from repro.core.models import ContinuousModel
from repro.core.power import CUBIC, PowerLaw
from repro.core.problem import MinEnergyProblem, default_problem_name
from repro.graphs.io import (
    edge_ids, graph_dict_name, graph_from_dict, task_count)
from repro.utils.errors import InvalidGraphError
from repro.utils.numerics import DEFAULT_ABS_TOL, DEFAULT_REL_TOL

#: Instances above this task count go to the scalar path: the vector win is
#: per-instance overhead amortisation, which stops mattering for graphs
#: whose solve itself is no longer trivial.
VECTORIZE_MAX_TASKS = 256

#: Solver labels recorded on vector-solved rows (the batch twins of
#: ``continuous-tree`` / ``continuous-series-parallel``).
TREE_BATCH_SOLVER = "continuous-tree-batch"
SP_BATCH_SOLVER = "continuous-sp-batch"


# --------------------------------------------------------------------------- #
# packed batches
# --------------------------------------------------------------------------- #
class WireInstance(NamedTuple):
    """One deadline-given Continuous request as :meth:`BatchPacker.add`
    reads it: the wire graph dict and its scalars, no arrays.

    :meth:`repro.api.protocol.SolveRequest.to_instance` returns one, so a
    ``/v1/solve`` is packed by :func:`solve_batch` exactly as
    ``/v1/solve_batch`` packs a row.  ``s_max`` of ``None`` is uncapped.
    """

    graph: Mapping[str, Any]
    deadline: float
    s_max: float | None = None
    alpha: float = 3.0
    name: str = ""

    @property
    def n_tasks(self) -> int:
        return task_count(self.graph)


def _graph_dict_problem(data: Mapping[str, Any], *, deadline: float,
                        alpha: float, s_max: float | None,
                        name: str) -> MinEnergyProblem:
    """The Continuous problem over a ``graph_to_dict`` payload."""
    power = CUBIC if alpha == 3.0 else PowerLaw(alpha=alpha)
    return MinEnergyProblem(
        graph=graph_from_dict(data), deadline=deadline,
        model=ContinuousModel(s_max=math.inf if s_max is None else s_max),
        power=power, name=name)


def _row_name(graph: Mapping[str, Any], deadline: float, name: str) -> str:
    """The given name, else the one the problem of ``graph`` would get."""
    return name or default_problem_name(graph_dict_name(graph), deadline)


@dataclass
class PackedBatch:
    """Many small Continuous instances as flat arrays: the core's input.

    Instance ``i`` owns tasks ``task_off[i]:task_off[i + 1]`` of ``works``
    and edges ``edge_off[i]:edge_off[i + 1]`` of ``edge_src``/``edge_dst``,
    whose endpoints are batch-wide task ids.  ``names`` are the row names
    (the given name, else the problem's default); ``sources`` keeps what
    each instance came from — a :class:`MinEnergyProblem` or a wire graph
    dict — for the scalar fallback and the task names of speed maps.
    """

    works: np.ndarray
    task_off: np.ndarray
    edge_src: np.ndarray
    edge_dst: np.ndarray
    edge_off: np.ndarray
    deadline: np.ndarray
    s_max: np.ndarray
    alpha: np.ndarray
    names: list[str]
    sources: list[MinEnergyProblem | Mapping[str, Any]]

    def __len__(self) -> int:
        return len(self.names)

    def n_tasks(self, i: int) -> int:
        return int(self.task_off[i + 1] - self.task_off[i])

    def task_names(self, i: int) -> Sequence[str]:
        source = self.sources[i]
        if isinstance(source, MinEnergyProblem):
            return source.graph.index().names
        return [str(task) for task in source["tasks"]]

    def problem(self, i: int) -> MinEnergyProblem:
        """The full problem of instance ``i`` (raises the library's typed
        error when its data does not make a valid problem)."""
        source = self.sources[i]
        if isinstance(source, MinEnergyProblem):
            return source
        return _graph_dict_problem(
            source, deadline=float(self.deadline[i]),
            alpha=float(self.alpha[i]), s_max=float(self.s_max[i]),
            name=self.names[i])


class BatchPacker:
    """Fill a :class:`PackedBatch`: the only way into one.

    :meth:`add` appends a wire graph dict, :meth:`add_problem` a problem
    object.  Everything accumulates in plain lists, edges as
    instance-local task ids, and becomes arrays once, in :meth:`build`.
    """

    def __init__(self) -> None:
        self._works: list[float] = []
        self._src: list[int] = []
        self._dst: list[int] = []
        self._task_off = [0]
        self._edge_off = [0]
        self._deadline: list[float] = []
        self._s_max: list[float] = []
        self._alpha: list[float] = []
        self._names: list[str] = []
        self._sources: list[MinEnergyProblem | Mapping[str, Any]] = []

    def add(self, graph: Mapping[str, Any], *, deadline: float,
            s_max: float | None, alpha: float, name: str) -> bool:
        """Append one instance; ``False`` (nothing appended) when the core
        cannot take it as sent: more than :data:`VECTORIZE_MAX_TASKS`
        tasks, a work ``float`` refuses, or an edge entry that does not
        name two of its tasks.  Such an instance goes the scalar way,
        which reports it as it would a single request.

        ``graph`` must map ``"tasks"`` to a mapping (the caller checked);
        tasks are named ``str(task)``, as :func:`graph_from_dict` names
        them.
        """
        tasks = graph["tasks"]
        if len(tasks) > VECTORIZE_MAX_TASKS:
            return False
        try:
            works = [float(w) for w in tasks.values()]
            src, dst = edge_ids(graph, {str(task): i
                                        for i, task in enumerate(tasks)})
        except (TypeError, ValueError, OverflowError, InvalidGraphError):
            return False
        self._append(works, src, dst, deadline,
                     math.inf if s_max is None else s_max, alpha,
                     _row_name(graph, deadline, name), graph)
        return True

    def add_problem(self, problem: MinEnergyProblem) -> bool:
        """Append a Continuous problem of at most
        :data:`VECTORIZE_MAX_TASKS` tasks; ``False`` (nothing appended)
        for any other problem."""
        model = problem.model
        if not isinstance(model, ContinuousModel) \
                or problem.n_tasks > VECTORIZE_MAX_TASKS:
            return False
        idx = problem.graph.index()
        self._append(idx.works.tolist(), idx.edge_src.tolist(),
                     idx.edge_dst.tolist(), problem.deadline, model.s_max,
                     problem.power.alpha, problem.name, problem)
        return True

    def _append(self, works: list[float], src: list[int], dst: list[int],
                deadline: float, s_max: float, alpha: float, name: str,
                source: MinEnergyProblem | Mapping[str, Any]) -> None:
        self._works += works
        self._src += src
        self._dst += dst
        self._task_off.append(self._task_off[-1] + len(works))
        self._edge_off.append(self._edge_off[-1] + len(src))
        self._deadline.append(deadline)
        self._s_max.append(s_max)
        self._alpha.append(alpha)
        self._names.append(name)
        self._sources.append(source)

    def build(self) -> PackedBatch:
        task_off = np.array(self._task_off, dtype=np.int64)
        edge_off = np.array(self._edge_off, dtype=np.int64)
        # instance-local edge ids become batch-wide ones here, once
        shift = np.repeat(task_off[:-1], np.diff(edge_off))
        return PackedBatch(
            works=np.array(self._works, dtype=np.float64),
            task_off=task_off,
            edge_src=np.array(self._src, dtype=np.int64) + shift,
            edge_dst=np.array(self._dst, dtype=np.int64) + shift,
            edge_off=edge_off,
            deadline=np.array(self._deadline, dtype=np.float64),
            s_max=np.array(self._s_max, dtype=np.float64),
            alpha=np.array(self._alpha, dtype=np.float64),
            names=self._names, sources=self._sources)


# --------------------------------------------------------------------------- #
# the packed solve
# --------------------------------------------------------------------------- #
class _Solved(NamedTuple):
    """What the packed passes found, per instance and per task."""

    ok: np.ndarray               # solved here; the rest take the scalar path
    series_parallel: np.ndarray  # solved through the SP lowering
    energy: np.ndarray
    load: np.ndarray             # equivalent load of the root
    speeds: np.ndarray           # per task, in batch task order


def _nothing_solved(count: int) -> _Solved:
    nothing = np.zeros(count, dtype=bool)
    return _Solved(ok=nothing, series_parallel=nothing,
                   energy=np.zeros(count), load=np.zeros(count),
                   speeds=np.zeros(0))


def _tree_orientation_masks(n: np.ndarray, m: np.ndarray,
                            indeg0: np.ndarray, indeg_over: np.ndarray,
                            outdeg0: np.ndarray, outdeg_over: np.ndarray
                            ) -> tuple[np.ndarray, np.ndarray]:
    """Per-instance (is_out_tree, is_in_tree) masks from degree statistics.

    Mirrors ``repro.continuous.tree._tree_orientation``: out-trees win when
    both orientations hold (single task / chain).  Acyclicity and
    connectivity are *not* decided here — the pointer jumping of
    :func:`~repro.continuous.series_parallel.node_depths` finds the parent
    cycles of a fake tree.
    """
    tree_count = m == np.maximum(n - 1, 0)
    out = tree_count & (indeg_over == 0) & (indeg0 == 1)
    inn = tree_count & (outdeg_over == 0) & (outdeg0 == 1)
    return out, inn & ~out


def _solve_vectorized(batch: PackedBatch) -> _Solved:
    """Solve every tree/SP-shaped instance of ``batch`` at once.

    Instances the core cannot take come back with ``ok`` false; the
    caller routes them through the scalar path, which raises the library's
    usual typed errors.  Never raises for a malformed instance.
    """
    B = len(batch)
    N = int(batch.task_off[-1])
    n_inst = np.diff(batch.task_off)
    m_inst = np.diff(batch.edge_off)
    works_all = batch.works
    deadlines, alphas, caps = batch.deadline, batch.alpha, batch.s_max
    inst_of_node = np.repeat(np.arange(B, dtype=np.int64), n_inst)

    def per_instance(mask: np.ndarray) -> np.ndarray:
        """How many flagged tasks each instance owns."""
        return np.bincount(inst_of_node[mask], minlength=B)

    # basic scalar eligibility (vectorized over instances); a cap the
    # scalar model refuses (not positive, NaN) is the scalar path's to report
    with np.errstate(invalid="ignore"):
        eligible = ((n_inst >= 1)
                    & np.isfinite(deadlines) & (deadlines > 0.0)
                    & np.isfinite(alphas) & (alphas > 1.0) & (caps > 0.0))
        eligible &= per_instance(~np.isfinite(works_all)
                                 | (works_all <= 0.0)) == 0
    if not eligible.any():
        return _nothing_solved(B)

    src_all, dst_all = batch.edge_src, batch.edge_dst
    indeg = np.bincount(dst_all, minlength=N)
    outdeg = np.bincount(src_all, minlength=N)
    is_out, is_in = _tree_orientation_masks(
        n_inst, m_inst, per_instance(indeg == 0), per_instance(indeg > 1),
        per_instance(outdeg == 0), per_instance(outdeg > 1))
    is_out &= eligible
    is_in &= eligible
    is_tree_inst = is_out | is_in

    # non-tree eligible instances: try the series-parallel lowering
    # (per-instance Python — SP needs the recursive decomposition anyway);
    # a non-SP or malformed graph is left to the scalar path
    sp_plans: list[tuple[int, CombinePlan]] = []
    for i in np.flatnonzero(eligible & ~is_tree_inst).tolist():
        try:
            sp_plans.append((i, sp_plan(batch.problem(i).graph)))
        except Exception:
            continue

    if not is_tree_inst.any() and not sp_plans:
        return _nothing_solved(B)

    # ------------------------------------------------------------------ #
    # one node universe: the batch's tasks, then every SP plan's nodes,
    # each with one parent (-1 at a root).  A tree task's parent is the
    # other end of its one edge towards the root: the source of an
    # out-tree edge, the target of an in-tree edge.  Every other task is
    # a childless root, and its outputs are not read.
    # ------------------------------------------------------------------ #
    edge_inst = inst_of_node[src_all]
    out_edge, in_edge = is_out[edge_inst], is_in[edge_inst]
    parent = np.full(N, -1, dtype=np.int64)
    parent[dst_all[out_edge]] = src_all[out_edge]
    parent[src_all[in_edge]] = dst_all[in_edge]

    sp_inst = np.array([i for i, _p in sp_plans], dtype=np.int64)
    plans = [p for _i, p in sp_plans]
    sp_off = np.zeros(len(plans) + 1, dtype=np.int64)
    np.cumsum([p.works.shape[0] for p in plans], out=sp_off[1:])
    sp_off += N
    g_works = np.concatenate([works_all] + [p.works for p in plans])
    g_is_p = np.concatenate([np.ones(N, dtype=bool)]
                            + [p.is_p for p in plans])
    g_parent = np.concatenate(
        [parent] + [np.where(p.parent < 0, -1, p.parent + sp_off[j])
                    for j, p in enumerate(plans)])
    g_inst = np.concatenate(
        [inst_of_node] + [np.full(p.works.shape[0], i, dtype=np.int64)
                          for i, p in sp_plans])

    depth, stuck = node_depths(g_parent)
    if stuck.any():
        # fake trees (degree stats matched but a parent cycle hides nodes):
        # the whole instance goes to the scalar path, and its tasks become
        # childless roots so the level passes stay well-formed
        bad = np.zeros(B, dtype=bool)
        bad[g_inst[stuck]] = True
        is_tree_inst &= ~bad
        if not is_tree_inst.any() and not sp_plans:
            return _nothing_solved(B)
        reset = bad[g_inst]
        g_parent[reset] = -1
        depth[reset] = 0

    # Theorem 2's passes over every node at once (siblings fold in id
    # order: task order, not edge-list order)
    loads, speeds_nodes = fold_and_split(g_works, g_is_p, g_parent, depth,
                                         deadlines[g_inst], alphas[g_inst])

    # ------------------------------------------------------------------ #
    # per-instance tail: speeds, cap checks and energies as segment
    # reductions over the task offsets
    # ------------------------------------------------------------------ #
    # tree-chunk node ids are batch task ids; SP tasks sit in their plans
    task_node = np.arange(N, dtype=np.int64)
    tree_roots = np.flatnonzero((g_parent[:N] < 0)
                                & is_tree_inst[inst_of_node])
    root_node = np.zeros(B, dtype=np.int64)
    root_node[inst_of_node[tree_roots]] = tree_roots
    ok = is_tree_inst.copy()
    series_parallel = np.zeros(B, dtype=bool)
    if plans:
        series_parallel[sp_inst] = True
        task_node[series_parallel[inst_of_node]] = np.concatenate(
            [p.task_node + sp_off[j] for j, p in enumerate(plans)])
        root_node[sp_inst] = sp_off[:-1]
        ok |= series_parallel

    speeds = speeds_nodes[task_node]
    cap = caps[inst_of_node]
    with np.errstate(invalid="ignore", over="ignore"):
        # degenerate windows, or uncapped Theorem 2 speeds over s_max: the
        # scalar dispatcher handles those (saturated closed form / convex)
        rejected = ~np.isfinite(speeds) | (
            speeds > cap + DEFAULT_ABS_TOL + DEFAULT_REL_TOL * cap)
        energy = np.bincount(
            inst_of_node, minlength=B,
            weights=works_all * speeds ** (alphas[inst_of_node] - 1.0))
    ok &= per_instance(rejected) == 0
    return _Solved(ok=ok, series_parallel=series_parallel, energy=energy,
                   load=loads[root_node], speeds=speeds)


# --------------------------------------------------------------------------- #
# public batch API
# --------------------------------------------------------------------------- #
def batch_key(method: str | None, exact: bool | None,
              options: dict[str, Any] | None, keep_speeds: bool,
              validate: bool) -> tuple:
    """The grouping key of a micro-batch: requests with equal keys share
    one :func:`solve_batch` call.

    Option values arrive from the wire unvalidated (a JSON list or object
    is not hashable), so they compare by ``repr``; the schema check of
    :func:`repro.solve.solve` then answers a bad one with a typed row.
    """
    return (method, exact,
            tuple(sorted((k, repr(v)) for k, v in (options or {}).items())),
            keep_speeds, validate)


def solve_batch(items: Sequence[MinEnergyProblem | WireInstance] | PackedBatch,
                *, method: str | None = None, exact: bool | None = None,
                options: dict[str, Any] | None = None,
                keep_speeds: bool = False,
                validate: bool = False) -> list[BatchResult]:
    """Solve a batch of instances, vectorizing every eligible one.

    ``items`` is a :class:`PackedBatch`, or a sequence mixing
    :class:`MinEnergyProblem` objects and :class:`WireInstance` entries,
    whose small Continuous instances with automatic dispatch a
    :class:`BatchPacker` packs into one.  The packed instances go through
    the struct-of-arrays solver; everything else (explicit
    methods/options, discrete models, non-tree/SP shapes, capped instances
    the uncapped closed form would violate, large graphs) takes the scalar
    path with :func:`repro.batch.solve_many`-style per-instance error
    capture.  Results come back in input order.
    """
    started = time.perf_counter()
    opts = dict(options or {})
    packed_input = isinstance(items, PackedBatch)
    if packed_input:
        batch, slots = items, list(range(len(items)))
    else:
        packer = BatchPacker()
        slots = []
        if method in (None, "auto") and exact is None and not opts:
            for i, item in enumerate(items):
                try:
                    if isinstance(item, WireInstance):
                        packed = packer.add(
                            item.graph, deadline=item.deadline,
                            s_max=item.s_max, alpha=item.alpha,
                            name=item.name)
                    else:
                        packed = packer.add_problem(item)
                except Exception:  # the scalar path reports it
                    continue
                if packed:
                    slots.append(i)
        batch = packer.build()

    rows: list[BatchResult | None] = [None] * len(items)
    if len(batch):
        solved = _solve_vectorized(batch)
        done = np.flatnonzero(solved.ok).tolist()
        # the packed solve's time, amortised over the rows it answered
        share = (time.perf_counter() - started) / max(1, len(done))
        energy, load = solved.energy.tolist(), solved.load.tolist()
        sp = solved.series_parallel.tolist()
        deadline, off = batch.deadline.tolist(), batch.task_off.tolist()
        for j in done:
            i = slots[j]
            row = BatchResult(
                index=i, name=batch.names[j], ok=True,
                n_tasks=off[j + 1] - off[j], energy=energy[j],
                makespan=deadline[j],  # optimal windows exhaust the deadline
                solver=SP_BATCH_SOLVER if sp[j] else TREE_BATCH_SOLVER,
                optimal=True, seconds=share,
                metadata={"cache_hit": False, "vectorized": True,
                          "equivalent_load": load[j]})
            if keep_speeds or validate:
                speeds = dict(zip(batch.task_names(j),
                                  solved.speeds[off[j]:off[j + 1]].tolist()))
                row.speeds = speeds if keep_speeds else None
                if validate:
                    row = _validated(row, batch, j, speeds)
            rows[i] = row

    # scalar fallback for everything the vector core declined
    for i, row in enumerate(rows):
        if row is not None:
            continue
        try:
            if packed_input:
                problem = batch.problem(i)
            else:
                item = items[i]
                problem = (_graph_dict_problem(
                    item.graph, deadline=item.deadline, alpha=item.alpha,
                    s_max=item.s_max, name=item.name)
                    if isinstance(item, WireInstance) else item)
        except Exception as exc:
            name, n_tasks = ((batch.names[i], batch.n_tasks(i))
                             if packed_input else
                             (_row_name(item.graph, item.deadline, item.name),
                              item.n_tasks))
            rows[i] = BatchResult.failure(i, name, n_tasks,
                                          type(exc).__name__, str(exc))
            continue
        rows[i], _env = _solve_one(_WorkItem(
            index=i, problem=problem, method=method, exact=exact,
            validate=validate, keep_speeds=keep_speeds, options=opts,
            seed=None, want_envelope=False))
    return rows  # type: ignore[return-value]


def _validated(result: BatchResult, batch: PackedBatch, j: int,
               speeds: dict[str, float]) -> BatchResult:
    """Re-check a vector-solved instance with the full validation pipeline."""
    from repro.core.solution import SpeedAssignment, make_solution
    from repro.core.validation import check_solution

    try:
        solution = make_solution(batch.problem(j),
                                 SpeedAssignment(speeds=speeds),
                                 solver=result.solver or "", optimal=True,
                                 metadata=dict(result.metadata))
        check_solution(solution)
        # trust the validated pipeline's energy/makespan readings
        result.energy = solution.energy
        result.makespan = solution.makespan
    except Exception as exc:
        return BatchResult.failure(result.index, result.name, result.n_tasks,
                                   type(exc).__name__, str(exc))
    return result
