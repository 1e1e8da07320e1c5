"""Struct-of-arrays batch solver for small Continuous instances.

The closed-form/tree/series-parallel solvers of Theorem 1/2 cost
microseconds of arithmetic per instance, but the scalar pipeline wraps each
one in graph construction, registry dispatch and (in the service) a process
pool hop — at the many-small-graphs shape the per-instance overhead
dominates by orders of magnitude.  This module removes it: ``solve_batch``
packs B instances into flat NumPy arrays (concatenated node works with
per-instance offset vectors and a level-sorted child CSR) and solves *all of
them at once* with one segment-reduced bottom-up equivalent-load pass and
one top-down window pass.  No per-instance Python dispatch, no pickling, no
pool hop.

Unified computation forest
--------------------------
Every vectorizable instance lowers to a forest of *combine nodes* carrying a
work amount and a child list.  Two combine kinds cover all shapes:

- **P-combine** (``load = work + (sum load_c ** alpha) ** (1/alpha)``):
  tree nodes (Theorem 2's out/in-tree recursion, fork/join/chain/single are
  the degenerate cases) and SP parallel compositions (with ``work = 0``);
- **S-combine** (``load = work + sum load_c``): SP series compositions
  (``work = 0``).

The kind collapses into per-node exponent arrays (``1/alpha`` vs ``1``), so
the two passes run branch-free over the whole batch.  The top-down pass
splits each node's window among its children (Theorem 2's proportional
rule), and every task's optimal speed is ``load / window`` — exactly the
scalar solvers' numbers modulo floating-point reassociation (equal well
within 1e-9).

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
from typing import Any, Sequence

import numpy as np

from repro.batch.engine import BatchResult, _WorkItem, _solve_one
from repro.core.models import ContinuousModel
from repro.core.problem import MinEnergyProblem
from repro.graphs.sp_decomposition import (
    NotSeriesParallelError,
    SPLeaf,
    SPParallel,
    sp_decompose,
)
from repro.graphs.taskgraph import TaskGraph
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
# instance specs
# --------------------------------------------------------------------------- #
@dataclass
class InstanceSpec:
    """One solve instance in array form (the wire-to-vector fast path).

    A spec is the minimal data the packed solver needs: the work vector in
    task order, the edge list as index pairs, and the scalar parameters.
    Specs built straight from a decoded request dict skip ``TaskGraph``
    construction entirely; the full problem object is only materialised
    lazily (``materialise``) when the instance has to take the scalar
    fallback path.
    """

    works: np.ndarray
    task_names: Sequence[str]
    edges_src: np.ndarray
    edges_dst: np.ndarray
    deadline: float
    alpha: float = 3.0
    s_max: float = math.inf
    name: str = ""
    graph_name: str = ""
    #: original ``graph_to_dict`` payload, kept for lazy problem rebuild
    graph_data: dict[str, Any] | None = None
    #: set when the spec was derived from an existing problem object
    problem: MinEnergyProblem | None = None

    @property
    def n_tasks(self) -> int:
        return int(self.works.shape[0])

    @property
    def display_name(self) -> str:
        if self.name:
            return self.name
        return f"MinEnergy({self.graph_name}, D={self.deadline:g})"

    def materialise(self) -> MinEnergyProblem:
        """The full problem object (built on demand for fallback/validation)."""
        if self.problem is None:
            from repro.core.power import CUBIC, PowerLaw
            from repro.graphs.io import graph_from_dict

            if self.graph_data is None:  # pragma: no cover - spec invariant
                raise InvalidGraphError(
                    "instance spec carries neither a problem nor graph data")
            graph = graph_from_dict(self.graph_data)
            power = CUBIC if self.alpha == 3.0 else PowerLaw(alpha=self.alpha)
            self.problem = MinEnergyProblem(
                graph=graph, deadline=self.deadline,
                model=ContinuousModel(s_max=self.s_max), power=power,
                name=self.name)
        return self.problem


def spec_from_problem(problem: MinEnergyProblem) -> InstanceSpec:
    """Lower a (Continuous-model) problem to an :class:`InstanceSpec`.

    The caller is responsible for eligibility checks; the returned spec
    keeps a reference to the problem so the scalar fallback never rebuilds
    anything.
    """
    idx = problem.graph.index()
    model = problem.model
    s_max = model.s_max if isinstance(model, ContinuousModel) else math.inf
    return InstanceSpec(
        works=idx.works, task_names=idx.names,
        edges_src=idx.edge_src, edges_dst=idx.edge_dst,
        deadline=problem.deadline, alpha=problem.power.alpha, s_max=s_max,
        name=problem.name, graph_name=problem.graph.name, problem=problem)


def spec_from_graph_dict(data: dict[str, Any], *, deadline: float,
                         alpha: float = 3.0, s_max: float = math.inf,
                         name: str = "") -> InstanceSpec:
    """Lower a ``graph_to_dict`` payload straight to a spec (no TaskGraph).

    Only the structure needed for packing is extracted; semantic validation
    (positive works, acyclicity, ...) happens implicitly — instances that
    fail the vector path's structural checks are rebuilt as real problems,
    which re-raise the library's usual typed errors.
    """
    try:
        tasks = data["tasks"]
        works = np.fromiter(tasks.values(), dtype=np.float64, count=len(tasks))
    except (TypeError, KeyError, AttributeError, ValueError) as exc:
        raise InvalidGraphError(f"malformed graph payload: {exc}") from exc
    index_of = {task: i for i, task in enumerate(tasks)}
    edges = data.get("edges") or ()
    try:
        src = np.fromiter((index_of[e[0]] for e in edges), dtype=np.int64,
                          count=len(edges))
        dst = np.fromiter((index_of[e[1]] for e in edges), dtype=np.int64,
                          count=len(edges))
    except (KeyError, IndexError, TypeError) as exc:
        raise InvalidGraphError(f"malformed edge list: {exc}") from exc
    return InstanceSpec(
        works=works, task_names=tuple(index_of), edges_src=src, edges_dst=dst,
        deadline=deadline, alpha=alpha, s_max=s_max, name=name,
        graph_name=str(data.get("name", "")), graph_data=data)


# --------------------------------------------------------------------------- #
# per-instance lowering of series-parallel graphs
# --------------------------------------------------------------------------- #
@dataclass
class _Plan:
    """Node arrays of one lowered instance (SP decomposition forest)."""

    works: np.ndarray          # per combine node
    is_p: np.ndarray           # bool: P-combine (alpha-norm) vs S-combine
    level: np.ndarray          # depth from the root of the combine tree
    child_ptr: np.ndarray      # CSR over local node ids
    child_idx: np.ndarray
    task_node: np.ndarray      # local node id of each task, in task order


def _sp_plan(graph: TaskGraph) -> _Plan:
    """Flatten ``sp_decompose(graph)`` into combine-node arrays.

    Leaves are P-combine nodes carrying the task work (they have no
    children, so the kind is irrelevant to the load pass but makes the
    top-down rule uniform); series/parallel compositions are zero-work
    S/P-combine nodes.  Raises :class:`NotSeriesParallelError` for non-SP
    graphs.
    """
    root = sp_decompose(graph)
    index_of = graph.index().index_of
    works: list[float] = []
    is_p: list[bool] = []
    level: list[int] = [0]
    children: list[list[int]] = []
    task_node = np.empty(graph.n_tasks, dtype=np.int64)

    # breadth-first walk; ids are queue positions, so they come out grouped
    # by depth and node 0 is the combine root
    queue: list[Any] = [root]
    head = 0
    while head < len(queue):
        node = queue[head]
        my_id = head
        head += 1
        if isinstance(node, SPLeaf):
            works.append(node.work)
            is_p.append(True)
            children.append([])
            task_node[index_of[node.task]] = my_id
            continue
        works.append(0.0)
        is_p.append(isinstance(node, SPParallel))
        if not node.children:  # pragma: no cover - decomposition invariant
            raise NotSeriesParallelError("empty composition in decomposition")
        kid_ids = []
        for child in node.children:
            kid_ids.append(len(queue))
            queue.append(child)
            level.append(level[my_id] + 1)
        children.append(kid_ids)

    counts = np.fromiter((len(c) for c in children), dtype=np.int64,
                         count=len(children))
    ptr = np.zeros(len(children) + 1, dtype=np.int64)
    np.cumsum(counts, out=ptr[1:])
    flat = np.fromiter((c for kids in children for c in kids),
                       dtype=np.int64, count=int(ptr[-1]))
    return _Plan(
        works=np.asarray(works, dtype=np.float64),
        is_p=np.asarray(is_p, dtype=bool),
        level=np.asarray(level, dtype=np.int64),
        child_ptr=ptr, child_idx=flat, task_node=task_node)


# --------------------------------------------------------------------------- #
# the packed solve
# --------------------------------------------------------------------------- #
@dataclass
class _VectorOutcome:
    """Per-instance outcome of the packed solve."""

    solved: bool
    solver: str = ""
    energy: float = 0.0
    equivalent_load: float = 0.0
    speeds: np.ndarray | None = None
    fallback_reason: str = ""


def _tree_orientation_masks(n: np.ndarray, m: np.ndarray,
                            indeg0: np.ndarray, indeg_over: np.ndarray,
                            outdeg0: np.ndarray, outdeg_over: np.ndarray
                            ) -> tuple[np.ndarray, np.ndarray]:
    """Per-instance (is_out_tree, is_in_tree) masks from degree statistics.

    Mirrors ``repro.continuous.tree._tree_orientation``: out-trees win when
    both orientations hold (single task / chain).  Acyclicity and
    connectivity are *not* decided here — the global BFS checks them by
    counting reached nodes.
    """
    tree_count = m == np.maximum(n - 1, 0)
    out = tree_count & (indeg_over == 0) & (indeg0 == 1)
    inn = tree_count & (outdeg_over == 0) & (outdeg0 == 1)
    return out, inn & ~out


def _segment_sums(values: np.ndarray, ptr_lo: np.ndarray,
                  ptr_hi: np.ndarray) -> np.ndarray:
    """Contiguous segment sums via cumulative sums (empty segments ok)."""
    csum = np.empty(values.shape[0] + 1, dtype=np.float64)
    csum[0] = 0.0
    np.cumsum(values, out=csum[1:])
    return csum[ptr_hi] - csum[ptr_lo]


def _csr_gather(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Flat source indices for gathering CSR rows ``[s, s+c)`` back to back."""
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    out_ptr = np.zeros(counts.shape[0], dtype=np.int64)
    np.cumsum(counts[:-1], out=out_ptr[1:])
    return (np.repeat(starts - out_ptr, counts)
            + np.arange(total, dtype=np.int64))


def _solve_vectorized(specs: Sequence[InstanceSpec],
                      keep_speeds: bool) -> list[_VectorOutcome]:
    """Solve all tree/SP-shaped specs at once; flag the rest for fallback.

    Returns one outcome per spec, aligned with the input.  The function
    never raises for a malformed instance — structural misfits come back
    with ``solved=False`` and a reason, and the caller routes them through
    the scalar path (which raises the library's usual typed errors).
    """
    B = len(specs)
    outcomes = [_VectorOutcome(solved=False, fallback_reason="not packed")
                for _ in range(B)]
    if B == 0:
        return outcomes

    n_inst = np.fromiter((s.n_tasks for s in specs), dtype=np.int64, count=B)
    m_inst = np.fromiter((s.edges_src.shape[0] for s in specs),
                         dtype=np.int64, count=B)
    deadlines = np.fromiter((s.deadline for s in specs), dtype=np.float64,
                            count=B)
    alphas = np.fromiter((s.alpha for s in specs), dtype=np.float64, count=B)

    # basic scalar eligibility (vectorized over instances)
    with np.errstate(invalid="ignore"):
        eligible = ((n_inst >= 1)
                    & np.isfinite(deadlines) & (deadlines > 0.0)
                    & np.isfinite(alphas) & (alphas > 1.0))

    node_off = np.zeros(B + 1, dtype=np.int64)
    np.cumsum(n_inst, out=node_off[1:])
    N = int(node_off[-1])
    if N == 0:
        return outcomes

    works_all = np.ascontiguousarray(
        np.concatenate([s.works for s in specs]), dtype=np.float64)
    with np.errstate(invalid="ignore"):
        bad_work = ~np.isfinite(works_all) | (works_all <= 0.0)
    if bad_work.any():
        # minimum.reduceat-style: any bad work disqualifies the instance
        bad_inst = np.add.reduceat(bad_work.astype(np.int64),
                                   node_off[:-1]) > 0
        eligible &= ~bad_inst

    # global edge arrays (instance-offset node ids)
    src_all = np.concatenate(
        [s.edges_src + node_off[i] for i, s in enumerate(specs)])
    dst_all = np.concatenate(
        [s.edges_dst + node_off[i] for i, s in enumerate(specs)])

    indeg = np.bincount(dst_all, minlength=N)
    outdeg = np.bincount(src_all, minlength=N)
    indeg0 = np.add.reduceat((indeg == 0).astype(np.int64), node_off[:-1])
    indeg_over = np.add.reduceat((indeg > 1).astype(np.int64), node_off[:-1])
    outdeg0 = np.add.reduceat((outdeg == 0).astype(np.int64), node_off[:-1])
    outdeg_over = np.add.reduceat((outdeg > 1).astype(np.int64), node_off[:-1])
    is_out, is_in = _tree_orientation_masks(
        n_inst, m_inst, indeg0, indeg_over, outdeg0, outdeg_over)
    is_out &= eligible
    is_in &= eligible
    is_tree_inst = is_out | is_in

    # non-tree eligible instances: try the series-parallel lowering
    # (per-instance Python — SP needs the recursive decomposition anyway)
    sp_plans: list[tuple[int, _Plan]] = []
    for i in np.flatnonzero(eligible & ~is_tree_inst):
        spec = specs[i]
        try:
            graph = spec.materialise().graph
            sp_plans.append((int(i), _sp_plan(graph)))
        except NotSeriesParallelError:
            outcomes[i].fallback_reason = "not tree or series-parallel"
        except Exception as exc:  # malformed graph: scalar path re-raises
            outcomes[i].fallback_reason = f"lowering failed: {exc}"
    for i in np.flatnonzero(~eligible):
        outcomes[i].fallback_reason = "failed vector eligibility checks"

    tree_ids = np.flatnonzero(is_tree_inst)
    if tree_ids.size == 0 and not sp_plans:
        return outcomes

    # ------------------------------------------------------------------ #
    # tree chunk: child CSR + roots, fully vectorized over the batch
    # ------------------------------------------------------------------ #
    # per-edge orientation: out-tree edges parent=src, in-tree parent=dst
    tree_node = np.repeat(is_tree_inst, n_inst)
    inst_of_node = np.repeat(np.arange(B, dtype=np.int64), n_inst)
    edge_inst = np.repeat(np.arange(B, dtype=np.int64), m_inst)
    tree_edge = is_tree_inst[edge_inst]
    out_edge = is_out[edge_inst] & tree_edge
    parent = np.where(out_edge, src_all, dst_all)[tree_edge]
    child = np.where(out_edge, dst_all, src_all)[tree_edge]

    t_counts = np.bincount(parent, minlength=N)
    t_ptr = np.zeros(N + 1, dtype=np.int64)
    np.cumsum(t_counts, out=t_ptr[1:])
    t_child = child[np.argsort(parent, kind="stable")]

    roots_mask = (((indeg == 0) & is_out[inst_of_node])
                  | ((outdeg == 0) & is_in[inst_of_node])) & tree_node
    roots = np.flatnonzero(roots_mask)  # one per tree instance, id order

    # simultaneous BFS from every root: depths + reachability check
    depth = np.full(N, -1, dtype=np.int64)
    depth[roots] = 0
    frontier = roots
    d = 0
    while frontier.size:
        starts = t_ptr[frontier]
        counts = t_counts[frontier]
        gather = _csr_gather(starts, counts)
        if gather.size == 0:
            break
        children = t_child[gather]
        d += 1
        depth[children] = d
        frontier = children

    unreached = (depth < 0) & tree_node
    if unreached.any():
        # fake trees (degree stats matched but a parent cycle hides nodes):
        # kick the whole instance to the scalar path, clamp depths so the
        # packed passes stay well-formed (their outputs are discarded)
        bad = np.unique(inst_of_node[np.flatnonzero(unreached)])
        is_out[bad] = False
        is_in[bad] = False
        is_tree_inst[bad] = False
        for i in bad:
            outcomes[i].fallback_reason = "cyclic or disconnected instance"
        np.maximum(depth, 0, out=depth)
        tree_ids = np.flatnonzero(is_tree_inst)
        if tree_ids.size == 0 and not sp_plans:
            return outcomes
    else:
        np.maximum(depth, 0, out=depth)

    # ------------------------------------------------------------------ #
    # merge tree chunk + SP plans into one node universe
    # ------------------------------------------------------------------ #
    sp_sizes = np.fromiter((p.works.shape[0] for _, p in sp_plans),
                           dtype=np.int64, count=len(sp_plans))
    sp_off = np.zeros(len(sp_plans) + 1, dtype=np.int64)
    np.cumsum(sp_sizes, out=sp_off[1:])
    total_nodes = N + int(sp_off[-1])

    g_works = np.concatenate(
        [works_all] + [p.works for _, p in sp_plans]) \
        if sp_plans else works_all
    g_is_p = np.concatenate(
        [np.ones(N, dtype=bool)] + [p.is_p for _, p in sp_plans]) \
        if sp_plans else np.ones(N, dtype=bool)
    g_level = np.concatenate(
        [depth] + [p.level for _, p in sp_plans]) if sp_plans else depth
    g_inst = np.concatenate(
        [inst_of_node]
        + [np.full(p.works.shape[0], i, dtype=np.int64)
           for i, p in sp_plans]) if sp_plans else inst_of_node
    g_counts = np.concatenate(
        [t_counts]
        + [np.diff(p.child_ptr) for _, p in sp_plans]) \
        if sp_plans else t_counts
    g_child = np.concatenate(
        [t_child]
        + [p.child_idx + N + sp_off[j]
           for j, (_, p) in enumerate(sp_plans)]) if sp_plans else t_child
    g_alpha = alphas[g_inst]

    # roots of the merged universe
    sp_roots = N + sp_off[:-1]  # each plan's node 0 is its combine root
    root_nodes = np.concatenate([roots[is_tree_inst[inst_of_node[roots]]],
                                 sp_roots]) if sp_plans else \
        roots[is_tree_inst[inst_of_node[roots]]]

    # level-sort all nodes (stable keeps instance-major order within levels)
    order = np.argsort(g_level, kind="stable")
    pos = np.empty(total_nodes, dtype=np.int64)
    pos[order] = np.arange(total_nodes, dtype=np.int64)

    work_s = g_works[order]
    is_p_s = g_is_p[order]
    alpha_s = g_alpha[order]
    counts_s = g_counts[order]
    lev_s = g_level[order]
    ptr_s = np.zeros(total_nodes + 1, dtype=np.int64)
    np.cumsum(counts_s, out=ptr_s[1:])

    # children gathered into the sorted CSR, remapped to sorted positions
    g_ptr = np.zeros(total_nodes + 1, dtype=np.int64)
    np.cumsum(g_counts, out=g_ptr[1:])
    child_s = pos[g_child[_csr_gather(g_ptr[order], counts_s)]]

    # per-child combine exponent (parent kind folded into an array)
    child_exp = np.repeat(np.where(is_p_s, alpha_s, 1.0), counts_s)
    #: in the top-down split, S-combine children take a share proportional
    #: to their own load; P-combine children all get the full remainder
    child_takes_load = np.repeat(~is_p_s, counts_s)
    inv_exp = np.where(is_p_s, 1.0 / alpha_s, 1.0)

    n_levels = int(lev_s[-1]) + 1 if total_nodes else 0
    level_ptr = np.zeros(n_levels + 1, dtype=np.int64)
    np.cumsum(np.bincount(lev_s, minlength=n_levels), out=level_ptr[1:])

    # ------------------------------------------------------------------ #
    # bottom-up equivalent loads (Theorem 2), one sweep per level
    # ------------------------------------------------------------------ #
    loads = work_s.copy()
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for lvl in range(n_levels - 1, -1, -1):
            p0, p1 = int(level_ptr[lvl]), int(level_ptr[lvl + 1])
            c0, c1 = int(ptr_s[p0]), int(ptr_s[p1])
            if c0 == c1:
                continue
            powered = loads[child_s[c0:c1]] ** child_exp[c0:c1]
            seg = _segment_sums(powered, ptr_s[p0:p1] - c0,
                                ptr_s[p0 + 1:p1 + 1] - c0)
            np.power(seg, inv_exp[p0:p1], out=seg)
            loads[p0:p1] = work_s[p0:p1] + seg

        # --------------------------------------------------------------- #
        # top-down windows: root gets the deadline, children split it
        # --------------------------------------------------------------- #
        win = np.zeros(total_nodes, dtype=np.float64)
        win[pos[root_nodes]] = deadlines[g_inst[root_nodes]]
        for lvl in range(n_levels - 1):
            p0, p1 = int(level_ptr[lvl]), int(level_ptr[lvl + 1])
            c0, c1 = int(ptr_s[p0]), int(ptr_s[p1])
            if c0 == c1:
                continue
            seg_loads = loads[p0:p1]
            factor = win[p0:p1] / seg_loads
            factor = np.where(is_p_s[p0:p1],
                              factor * (seg_loads - work_s[p0:p1]), factor)
            rep = np.repeat(factor, counts_s[p0:p1])
            kids = child_s[c0:c1]
            win[kids] = rep * np.where(child_takes_load[c0:c1],
                                       loads[kids], 1.0)

        # ------------------------------------------------------------------ #
        # extract per-task speeds, energies, cap checks
        # ------------------------------------------------------------------ #
        # tree-chunk node ids coincide with instance-major task indices, so
        # pos[:N] maps every task to its sorted position directly
        task_pos = pos[:N]
        speeds_nodes = loads / np.where(win > 0.0, win, np.nan)

    # per-instance root node id (tree chunk); SP roots are each plan's node 0
    root_of = np.full(B, -1, dtype=np.int64)
    root_of[inst_of_node[roots]] = roots

    solver_of = {int(i): TREE_BATCH_SOLVER for i in tree_ids}
    solver_of.update({i: SP_BATCH_SOLVER for i, _ in sp_plans})
    plan_of = {i: j for j, (i, _p) in enumerate(sp_plans)}

    abs_tol, rel_tol = DEFAULT_ABS_TOL, DEFAULT_REL_TOL
    for i in sorted(solver_of):
        spec = specs[i]
        if i in plan_of:
            j = plan_of[i]
            positions = pos[sp_plans[j][1].task_node + N + sp_off[j]]
            root_pos = pos[N + sp_off[j]]
        else:
            positions = task_pos[node_off[i]:node_off[i + 1]]
            root_pos = pos[root_of[i]]
        speeds = speeds_nodes[positions]
        if not np.all(np.isfinite(speeds)):
            outcomes[i].fallback_reason = "degenerate windows"
            continue
        cap = spec.s_max
        if math.isfinite(cap):
            if float(speeds.max(initial=0.0)) > cap + abs_tol + rel_tol * cap:
                # the uncapped Theorem 2 solution violates s_max: the scalar
                # dispatcher handles this (saturated closed form / convex)
                outcomes[i].fallback_reason = "s_max violated"
                continue
        energy = float(np.dot(spec.works, speeds ** (spec.alpha - 1.0)))
        outcomes[i] = _VectorOutcome(
            solved=True, solver=solver_of[i], energy=energy,
            equivalent_load=float(loads[root_pos]),
            speeds=np.ascontiguousarray(speeds) if keep_speeds else None)
    return outcomes


# --------------------------------------------------------------------------- #
# public batch API
# --------------------------------------------------------------------------- #
def _spec_eligible(item: MinEnergyProblem | InstanceSpec, *,
                   method: str | None, exact: bool | None,
                   options: dict[str, Any] | None) -> InstanceSpec | None:
    """Lower ``item`` to a spec when the vector core may solve it."""
    if method not in (None, "auto") or exact is not None or options:
        return None
    if item.n_tasks > VECTORIZE_MAX_TASKS:
        return None
    if isinstance(item, InstanceSpec):
        return item
    if not isinstance(item.model, ContinuousModel):
        return None
    return spec_from_problem(item)


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


def solve_batch(items: Sequence[MinEnergyProblem | InstanceSpec], *,
                method: str | None = None, exact: bool | None = None,
                options: dict[str, Any] | None = None,
                keep_speeds: bool = False,
                validate: bool = False) -> list[BatchResult]:
    """Solve a batch of instances, vectorizing every eligible one.

    ``items`` mixes :class:`MinEnergyProblem` objects and
    :class:`InstanceSpec` fast-path entries.  Small Continuous instances
    with automatic dispatch go through the packed struct-of-arrays solver;
    everything else (explicit methods/options, discrete models, non-tree/SP
    shapes, capped instances the uncapped closed form would violate, large
    graphs) takes the scalar path with :func:`repro.batch.solve_many`-style
    per-instance error capture.  Results come back in input order.
    """
    started = time.perf_counter()
    opts = dict(options or {})
    specs: list[InstanceSpec | None] = []
    for item in items:
        try:
            specs.append(_spec_eligible(item, method=method, exact=exact,
                                        options=opts or None))
        except Exception:
            specs.append(None)

    vec_indices = [i for i, s in enumerate(specs) if s is not None]
    vec_specs = [specs[i] for i in vec_indices]
    outcomes = _solve_vectorized(vec_specs, keep_speeds or validate) \
        if vec_specs else []

    results: list[BatchResult | None] = [None] * len(items)
    n_vectorized = 0
    for local, i in enumerate(vec_indices):
        outcome = outcomes[local]
        if not outcome.solved:
            continue
        n_vectorized += 1
        spec = vec_specs[local]
        assert spec is not None
        speeds_dict = None
        if keep_speeds and outcome.speeds is not None:
            speeds_dict = {name: float(s) for name, s
                           in zip(spec.task_names, outcome.speeds)}
        result = BatchResult(
            index=i, name=spec.display_name, ok=True,
            n_tasks=spec.n_tasks, energy=outcome.energy,
            makespan=spec.deadline,  # optimal windows exhaust the deadline
            solver=outcome.solver, optimal=True, lower_bound=None,
            seconds=0.0, speeds=speeds_dict,
            metadata={"cache_hit": False, "vectorized": True,
                      "equivalent_load": outcome.equivalent_load})
        if validate:
            result = _validated(result, spec, outcome)
        results[i] = result

    # scalar fallback for everything the vector core declined
    elapsed_vec = time.perf_counter() - started
    for i, item in enumerate(items):
        if results[i] is not None:
            continue
        if isinstance(item, MinEnergyProblem):
            problem = item
        else:
            try:
                problem = item.materialise()
            except Exception as exc:
                results[i] = BatchResult.failure(
                    i, item.display_name, item.n_tasks, type(exc).__name__,
                    str(exc))
                continue
        results[i], _env = _solve_one(_WorkItem(
            index=i, problem=problem, method=method, exact=exact,
            validate=validate, keep_speeds=keep_speeds, options=opts,
            seed=None, want_envelope=False))

    # amortize the single packed solve across its instances
    if n_vectorized:
        share = elapsed_vec / n_vectorized
        for i in vec_indices:
            result = results[i]
            if result is not None and result.metadata.get("vectorized"):
                result.seconds = share
    return [r for r in results if r is not None]


def _validated(result: BatchResult, spec: InstanceSpec,
               outcome: _VectorOutcome) -> BatchResult:
    """Re-check a vector-solved instance with the full validation pipeline."""
    from repro.core.solution import SpeedAssignment, make_solution
    from repro.core.validation import check_solution

    try:
        problem = spec.materialise()
        assignment = SpeedAssignment(speeds={
            name: float(s) for name, s
            in zip(spec.task_names, outcome.speeds)})
        solution = make_solution(problem, assignment, solver=outcome.solver,
                                 optimal=True,
                                 metadata=dict(result.metadata))
        check_solution(solution)
        # trust the validated pipeline's energy/makespan readings
        result.energy = solution.energy
        result.makespan = solution.makespan
    except Exception as exc:
        return BatchResult.failure(result.index, result.name, result.n_tasks,
                                   type(exc).__name__, str(exc))
    return result
