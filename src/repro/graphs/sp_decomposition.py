"""Series-parallel recognition and decomposition of task graphs.

Theorem 2 of the paper states that ``MinEnergy(G, D)`` is polynomial for
trees and series-parallel graphs under the Continuous model.  The algorithm
(see :mod:`repro.continuous.series_parallel`) works on a *decomposition
tree* whose leaves are tasks and whose internal nodes are series or parallel
compositions.  This module builds that tree.

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

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.graphs.analysis import descendant_bitsets
from repro.graphs.taskgraph import TaskGraph
from repro.utils.errors import InvalidGraphError, NotSeriesParallelError

__all__ = ["NotSeriesParallelError", "SPNode", "SPLeaf", "SPSeries",
           "SPParallel", "is_series_parallel", "sp_decompose"]


@dataclass
class SPNode:
    """Base class of decomposition-tree nodes."""

    def leaves(self) -> list[str]:
        """Names of the tasks below this node (in deterministic order).

        Iterative pre-order walk — decomposition trees of deep caterpillar
        graphs can nest O(n) levels, which must not overflow the stack.
        """
        out: list[str] = []
        stack: list[SPNode] = [self]
        while stack:
            node = stack.pop()
            if isinstance(node, SPLeaf):
                out.append(node.task)
            else:
                stack.extend(reversed(node.children))  # type: ignore[union-attr]
        return out

    def size(self) -> int:
        """Number of task leaves below this node."""
        return len(self.leaves())


@dataclass
class SPLeaf(SPNode):
    """A single task."""

    task: str
    work: float


@dataclass
class SPSeries(SPNode):
    """A series composition: children execute strictly one after another."""

    children: list[SPNode] = field(default_factory=list)


@dataclass
class SPParallel(SPNode):
    """A parallel composition: children execute independently within the same window."""

    children: list[SPNode] = field(default_factory=list)


def _weak_components(nodes: list[str], index_of: Mapping[str, int],
                     names: Sequence[str],
                     neighbours: list[list[int]]) -> list[list[str]]:
    """Weakly connected components of the sub-poset induced by ``nodes``.

    ``neighbours`` lists each task's successors and predecessors by
    integer id; :func:`sp_decompose` builds it once for every call.  The
    output keeps the historical order (components in first-seen order,
    members sorted by name).
    """
    node_ids = [index_of[u] for u in nodes]
    in_set = set(node_ids)
    seen: set[int] = set()
    components: list[list[str]] = []
    for start in node_ids:
        if start in seen:
            continue
        comp: list[int] = []
        stack = [start]
        seen.add(start)
        while stack:
            u = stack.pop()
            comp.append(u)
            for v in neighbours[u]:
                if v in in_set and v not in seen:
                    seen.add(v)
                    stack.append(v)
        components.append(sorted(names[i] for i in comp))
    return components


def _series_blocks(
    nodes: list[str], closure: np.ndarray, index_of, n_words: int
) -> list[list[str]] | None:
    """Split ``nodes`` into the finest chain of series blocks, or ``None``.

    A valid boundary after position ``k`` (in an order sorted by descendant
    count within the block) requires every task of the prefix to transitively
    precede every task of the suffix.  All valid boundaries are found, which
    yields the finest ordinal-sum decomposition; ``None`` is returned when no
    boundary exists (the block is series-irreducible).

    ``closure`` is the packed-bitset transitive closure from
    :func:`repro.graphs.analysis.descendant_bitsets`: the prefix test is a
    running word-wise AND of the prefix rows against the mask of remaining
    nodes, so each candidate boundary costs O(n / 64) instead of comparing
    Python sets.
    """
    n = len(nodes)
    if n < 2:
        return None
    rows_unsorted = closure[[index_of[u] for u in nodes]]
    word = np.right_shift([index_of[u] for u in nodes], 6)
    bit = np.uint64(1) << (np.array([index_of[u] for u in nodes],
                                    dtype=np.uint64) & np.uint64(63))
    block_mask = np.zeros(n_words, dtype=np.uint64)
    np.bitwise_or.at(block_mask, word, bit)
    # descendant counts restricted to this block, batched in one call
    desc_in = np.bitwise_count(rows_unsorted & block_mask).sum(axis=1)
    # Sort so that potential "earlier" tasks (more in-block descendants) come
    # first; ties broken by name for determinism.
    perm = sorted(range(n), key=lambda i: (-int(desc_in[i]), nodes[i]))
    ordered = [nodes[i] for i in perm]
    # A boundary after position j is valid iff every task of positions
    # 0..j transitively precedes every task of positions j+1.. — i.e. the
    # cumulative prefix AND of the descendant rows contains all remaining
    # nodes.  (Checking the cumulative prefix instead of only the nodes
    # since the previous boundary is equivalent: each earlier block passed
    # the same test against a superset of the remaining nodes.)  Since no
    # node is its own strict descendant, the prefix AND restricted to the
    # block never contains prefix nodes, so containment reduces to a
    # popcount: exactly ``n - 1 - j`` in-block bits must survive.
    rows_sorted = rows_unsorted[perm]
    prefix_and = np.bitwise_and.accumulate(rows_sorted, axis=0)
    in_block = np.bitwise_count(prefix_and & block_mask).sum(axis=1)
    valid = in_block[:-1] == np.arange(n - 1, 0, -1)
    blocks: list[list[str]] = []
    start = 0
    for j in range(n - 1):
        if valid[j]:
            blocks.append(ordered[start:j + 1])
            start = j + 1
    blocks.append(ordered[start:])
    if len(blocks) < 2:
        return None
    return blocks


def sp_decompose(graph: TaskGraph) -> SPNode:
    """Decompose ``graph`` into a series-parallel tree.

    The decomposition is iterative (an explicit work stack instead of
    recursion) and queries the transitive closure through packed bitsets, so
    deep chains and caterpillar graphs neither overflow the interpreter
    stack nor materialise quadratic Python sets.

    Returns
    -------
    SPNode
        The root of the decomposition tree.

    Raises
    ------
    NotSeriesParallelError
        If the graph is not SP-decomposable.
    InvalidGraphError
        If the graph is not a DAG.
    """
    graph.validate()
    if graph.n_tasks == 0:
        raise InvalidGraphError("cannot decompose an empty graph")
    closure = descendant_bitsets(graph)
    idx = graph.index()
    index_of, names = idx.index_of, idx.names
    works = idx.works.tolist()
    n_words = closure.shape[1]
    succ_ptr, succ_idx = idx.succ_ptr.tolist(), idx.succ_idx.tolist()
    pred_ptr, pred_idx = idx.pred_ptr.tolist(), idx.pred_idx.tolist()
    neighbours = [succ_idx[succ_ptr[u]:succ_ptr[u + 1]]
                  + pred_idx[pred_ptr[u]:pred_ptr[u + 1]]
                  for u in range(idx.n_tasks)]

    root_holder: list[SPNode | None] = [None]
    # each entry: (nodes, container list, slot to fill)
    stack: list[tuple[list[str], list, int]] = [(list(idx.names), root_holder, 0)]
    while stack:
        nodes, container, slot = stack.pop()
        if len(nodes) == 1:
            name = nodes[0]
            container[slot] = SPLeaf(task=name, work=works[index_of[name]])
            continue
        components = _weak_components(nodes, index_of, names, neighbours)
        if len(components) > 1:
            parent: SPNode = SPParallel(children=[None] * len(components))  # type: ignore[list-item]
            groups = components
        else:
            blocks = _series_blocks(nodes, closure, index_of, n_words)
            if blocks is None:
                raise NotSeriesParallelError(
                    f"graph {graph.name!r} is not series-parallel: block "
                    f"{sorted(nodes)[:6]}{'...' if len(nodes) > 6 else ''} is "
                    "connected but admits no series cut"
                )
            parent = SPSeries(children=[None] * len(blocks))  # type: ignore[list-item]
            groups = blocks
        container[slot] = parent
        for i, group in enumerate(groups):
            stack.append((group, parent.children, i))  # type: ignore[union-attr]
    assert root_holder[0] is not None
    return root_holder[0]


def is_series_parallel(graph: TaskGraph) -> bool:
    """Whether the graph is SP-decomposable (see module docstring)."""
    try:
        sp_decompose(graph)
    except NotSeriesParallelError:
        return False
    return True


def sp_tree_depth(node: SPNode) -> int:
    """Depth of a decomposition tree (a leaf has depth 1)."""
    best = 0
    stack: list[tuple[SPNode, int]] = [(node, 1)]
    while stack:
        current, depth = stack.pop()
        if isinstance(current, SPLeaf):
            best = max(best, depth)
        else:
            for child in current.children:  # type: ignore[union-attr]
                stack.append((child, depth + 1))
    return best


def iter_leaves(node: SPNode) -> Iterable[SPLeaf]:
    """Iterate over the task leaves of a decomposition tree (pre-order)."""
    stack: list[SPNode] = [node]
    while stack:
        current = stack.pop()
        if isinstance(current, SPLeaf):
            yield current
        else:
            stack.extend(reversed(current.children))  # type: ignore[union-attr]
