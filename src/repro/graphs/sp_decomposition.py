"""Series-parallel recognition and decomposition of task graphs.

Theorem 2 of the paper states that ``MinEnergy(G, D)`` is polynomial for
trees and series-parallel graphs under the Continuous model.  The algorithm
(see :mod:`repro.continuous.series_parallel`) folds equivalent loads over a
*decomposition tree* whose leaves are tasks and whose internal nodes are
series or parallel compositions.  :func:`sp_decompose` writes that tree as a
:class:`CombinePlan`, one parent id per node, which is the form Theorem 2's
passes read.

Definition used here (task/vertex series-parallel, "SP-decomposable"):

* a single task is SP-decomposable;
* the *parallel composition* of SP-decomposable graphs (disjoint union,
  no cross edges) is SP-decomposable;
* the *series composition* ``A ; B`` of SP-decomposable graphs is
  SP-decomposable, where every task of ``A`` transitively precedes every
  task of ``B``.

The series criterion is slightly more permissive than "all sinks of ``A``
have a direct edge to all sources of ``B``": it only requires the pair to be
*time-separable* (``A x B`` contained in the transitive closure), which is
exactly the property the energy argument needs — in any feasible schedule
all of ``A`` finishes before any of ``B`` starts, so the deadline can be
split between the two blocks.  Every graph produced by
:func:`repro.graphs.generators.random_series_parallel`, every chain, every
fork/join, and every in/out-tree is SP-decomposable in this sense; wavefront
(diamond) graphs and general layered DAGs typically are not.
"""

from __future__ import annotations

from collections import deque
from typing import NamedTuple

import numpy as np

from repro.graphs.analysis import descendant_bitsets
from repro.graphs.taskgraph import TaskGraph
from repro.utils.errors import InvalidGraphError, NotSeriesParallelError

__all__ = ["CombinePlan", "NotSeriesParallelError", "is_series_parallel",
           "sp_decompose"]


class CombinePlan(NamedTuple):
    """Combine-node arrays of one lowered instance.

    A node is a *P-combine* (its load is its work plus the ``alpha``-norm
    of its children's loads) or an *S-combine* (its work plus their sum).
    In a decomposition, a task is a childless P-combine node carrying its
    work and a composition is a zero-work node of its kind.
    """

    works: np.ndarray      # per combine node
    is_p: np.ndarray       # bool: P-combine (alpha-norm) vs S-combine
    parent: np.ndarray     # id of each node's parent, -1 at the root
    task_node: np.ndarray  # node id of each task, in task order


def _weak_components(block: list[int], rank: list[int],
                     neighbours: list[list[int]]) -> list[list[int]]:
    """Weakly connected components of the sub-poset induced by ``block``.

    ``neighbours`` lists each task's successors and predecessors and
    ``rank`` each task's position in name order; :func:`sp_decompose`
    builds both once per call.  Components come in first-seen order over
    ``block``, their members in name order.
    """
    unseen = set(block)
    components: list[list[int]] = []
    for start in block:
        if start not in unseen:
            continue
        unseen.remove(start)
        comp: list[int] = []
        stack = [start]
        while stack:
            u = stack.pop()
            comp.append(u)
            for v in neighbours[u]:
                if v in unseen:
                    unseen.remove(v)
                    stack.append(v)
        comp.sort(key=rank.__getitem__)
        components.append(comp)
    return components


def _series_blocks(block: list[int], closure: np.ndarray, rank: np.ndarray
                   ) -> list[list[int]] | None:
    """Split ``block`` (two or more tasks) into the finest chain of series
    blocks, or ``None``.

    A valid boundary after position ``k`` (in an order sorted by descendant
    count within the block) requires every task of the prefix to transitively
    precede every task of the suffix.  All valid boundaries are found, which
    yields the finest ordinal-sum decomposition; ``None`` is returned when no
    boundary exists (the block is series-irreducible).

    ``closure`` is the packed-bitset transitive closure from
    :func:`repro.graphs.analysis.descendant_bitsets`: the prefix test is a
    running word-wise AND of the prefix rows against the mask of the block,
    so each candidate boundary costs O(n / 64) instead of comparing Python
    sets.
    """
    n = len(block)
    ids = np.asarray(block, dtype=np.int64)
    mask = np.zeros(closure.shape[1], dtype=np.uint64)
    np.bitwise_or.at(mask, ids >> 6,
                     np.uint64(1) << (ids.astype(np.uint64) & np.uint64(63)))
    # Potential "earlier" tasks (more in-block descendants) come first;
    # ties go by name for determinism.
    desc_in = np.bitwise_count(closure[ids] & mask).sum(axis=1, dtype=np.int64)
    ids = ids[np.lexsort((rank[ids], -desc_in))]
    # A boundary after position j is valid iff every task of positions
    # 0..j transitively precedes every task of positions j+1.. — i.e. the
    # cumulative prefix AND of the descendant rows contains all remaining
    # tasks.  (Checking the cumulative prefix instead of only the tasks
    # since the previous boundary is equivalent: each earlier block passed
    # the same test against a superset of the remaining tasks.)  Since no
    # task is its own strict descendant, the prefix AND restricted to the
    # block never contains prefix tasks, so containment reduces to a
    # popcount: exactly ``n - 1 - j`` in-block bits must survive.
    prefix_and = np.bitwise_and.accumulate(closure[ids], axis=0)
    prefix_and &= mask
    in_block = np.bitwise_count(prefix_and).sum(axis=1, dtype=np.int64)
    cuts = np.flatnonzero(in_block[:-1] == np.arange(n - 1, 0, -1)) + 1
    if not cuts.size:
        return None
    ordered = ids.tolist()
    bounds = [0, *cuts.tolist(), n]
    return [ordered[a:b] for a, b in zip(bounds, bounds[1:])]


def sp_decompose(graph: TaskGraph) -> CombinePlan:
    """Decompose ``graph`` into its finest series-parallel plan.

    The walk visits blocks of task ids breadth-first, starting from all
    tasks in task order, and a block's visit number is its node id.  A
    single task is a leaf.  Any other block splits into its weak
    components (a P-combine) or, when it is connected, into its series
    blocks (an S-combine); its groups queue as its children, so node 0 is
    the root and every node's children have consecutive ids.  Nothing
    recurses and the closure is queried through packed bitsets, so deep
    chains and caterpillar graphs neither overflow the interpreter stack
    nor materialise quadratic Python sets.

    Raises
    ------
    NotSeriesParallelError
        If the graph is not SP-decomposable.
    InvalidGraphError
        If the graph is empty or not a DAG.
    """
    graph.validate()
    if graph.n_tasks == 0:
        raise InvalidGraphError("cannot decompose an empty graph")
    closure = descendant_bitsets(graph)
    idx = graph.index()
    n = idx.n_tasks
    task_works = idx.works.tolist()
    succ_ptr, succ_idx = idx.succ_ptr.tolist(), idx.succ_idx.tolist()
    pred_ptr, pred_idx = idx.pred_ptr.tolist(), idx.pred_idx.tolist()
    neighbours = [succ_idx[succ_ptr[u]:succ_ptr[u + 1]]
                  + pred_idx[pred_ptr[u]:pred_ptr[u + 1]]
                  for u in range(n)]
    # each task's position in name order: both splits break ties by it
    rank = np.empty(n, dtype=np.int64)
    rank[sorted(range(n), key=idx.names.__getitem__)] = np.arange(n)
    rank_list = rank.tolist()

    works: list[float] = []
    is_p: list[bool] = []
    parent: list[int] = [-1]
    task_node = np.empty(n, dtype=np.int64)
    pending = deque([list(range(n))])
    while pending:
        block = pending.popleft()
        node = len(works)
        if len(block) == 1:
            works.append(task_works[block[0]])
            is_p.append(True)
            task_node[block[0]] = node
            continue
        groups = _weak_components(block, rank_list, neighbours)
        parallel = len(groups) > 1
        if not parallel:
            series = _series_blocks(block, closure, rank)
            if series is None:
                shown = sorted(idx.names[u] for u in block)
                raise NotSeriesParallelError(
                    f"graph {graph.name!r} is not series-parallel: block "
                    f"{shown[:6]}{'...' if len(shown) > 6 else ''} is "
                    "connected but admits no series cut"
                )
            groups = series
        works.append(0.0)
        is_p.append(parallel)
        pending.extend(groups)
        parent.extend([node] * len(groups))
    return CombinePlan(works=np.asarray(works, dtype=np.float64),
                       is_p=np.asarray(is_p, dtype=bool),
                       parent=np.asarray(parent, dtype=np.int64),
                       task_node=task_node)


def is_series_parallel(graph: TaskGraph) -> bool:
    """Whether the graph is SP-decomposable (see module docstring)."""
    try:
        sp_decompose(graph)
    except NotSeriesParallelError:
        return False
    return True
