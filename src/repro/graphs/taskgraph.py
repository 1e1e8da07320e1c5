"""Core task-graph data structures.

The paper's application model is a directed acyclic graph ``G = (V, E)``
whose vertices are tasks ``T_1 .. T_n`` with strictly positive costs
``w_i`` (the amount of work; at speed ``s`` the task runs for ``w_i / s``
time units).  :class:`TaskGraph` is the single container used throughout the
library for both the application graph ``G`` and the execution graph 𝒢
obtained after mapping (the latter simply carries extra "processor" edges
and is represented by :class:`repro.mapping.execution_graph.ExecutionGraph`,
which wraps a ``TaskGraph``).

A graph has two layers.  The :class:`GraphIndex` (names, works, CSR
adjacency, topological order and levels as read-only NumPy arrays) is what
every hot solver path reads.  The dict layer (one :class:`Task` per task
and successor/predecessor sets) backs the name-based queries and the
mutations.  A graph built task by task (:meth:`TaskGraph.add_task`,
:meth:`TaskGraph.add_edge`) derives its index from the dicts on first use;
a graph built by :meth:`TaskGraph.from_arrays`, as every generator of
:mod:`repro.graphs.generators` does, gets its index straight from the
arrays and builds the dicts only when a method first reads them, so
planning a sweep never pays for them.  Both routes go through one index
builder and give equal indexes for equal graphs.

The container does not depend on :mod:`networkx`; conversion helpers
to/from networkx are provided for interoperability and for reusing its
generators in tests.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import Any, Iterable, Iterator, Mapping, Sequence

import networkx as nx
import numpy as np
from numpy.typing import ArrayLike

from repro.utils.errors import InvalidGraphError


@dataclass(frozen=True)
class GraphIndex:
    """Immutable integer-indexed view of a :class:`TaskGraph`.

    Task ``i`` is the ``i``-th task in insertion order.  Adjacency is stored
    in CSR (compressed sparse row) form: the predecessors of task ``i`` are
    ``pred_idx[pred_ptr[i]:pred_ptr[i + 1]]`` and likewise for successors.
    The topological order and the 0-based level of every task are computed
    once and cached with the index; all arrays are read-only NumPy arrays so
    the view can be shared freely between solvers.

    The view is a snapshot: :meth:`TaskGraph.index` invalidates its cached
    instance whenever the graph mutates, so holders of a stale ``GraphIndex``
    keep a consistent (if outdated) picture rather than a corrupt one.
    """

    names: tuple[str, ...]
    index_of: Mapping[str, int]
    works: np.ndarray
    pred_ptr: np.ndarray
    pred_idx: np.ndarray
    succ_ptr: np.ndarray
    succ_idx: np.ndarray
    topo_order: np.ndarray
    level: np.ndarray
    #: nodes sorted by (level, index); ``level_ptr[L]:level_ptr[L+1]`` slices
    #: the nodes of level ``L``.
    order_by_level: np.ndarray
    level_ptr: np.ndarray
    #: edges sorted by the level of their target; ``edge_level_ptr[L]`` points
    #: at the first edge whose target sits at level ``L``.
    edge_src: np.ndarray
    edge_dst: np.ndarray
    edge_level_ptr: np.ndarray

    @property
    def n_tasks(self) -> int:
        return len(self.names)

    @property
    def n_edges(self) -> int:
        return int(self.succ_idx.shape[0])

    @property
    def n_levels(self) -> int:
        return int(self.level.max()) + 1 if len(self.names) else 0

    def predecessors_of(self, i: int) -> np.ndarray:
        """Predecessor indices of task ``i``."""
        return self.pred_idx[self.pred_ptr[i]:self.pred_ptr[i + 1]]

    def successors_of(self, i: int) -> np.ndarray:
        """Successor indices of task ``i``."""
        return self.succ_idx[self.succ_ptr[i]:self.succ_ptr[i + 1]]

    @cached_property
    def structure_hash(self) -> str:
        """Content hash of the graph structure and weights (hex SHA-256).

        Covers the task names (in index order), the work vector and the CSR
        successor arrays — i.e. exactly the data the solvers read — but not
        the display name, so two identically-shaped graphs hash equally.
        Because a :class:`GraphIndex` is an immutable snapshot invalidated on
        every mutation, the hash can be cached on the index and used as the
        graph component of a solve-result cache key (see
        :meth:`repro.core.problem.MinEnergyProblem.cache_key`).
        """
        digest = hashlib.sha256()
        digest.update(str(len(self.names)).encode("utf-8"))
        digest.update(b"\x00".join(name.encode("utf-8") for name in self.names))
        digest.update(self.works.tobytes())
        digest.update(self.succ_ptr.tobytes())
        digest.update(self.succ_idx.tobytes())
        return digest.hexdigest()

    @cached_property
    def in_degree(self) -> np.ndarray:
        """Number of predecessors of every task."""
        degree = np.diff(self.pred_ptr)
        degree.setflags(write=False)
        return degree

    @cached_property
    def out_degree(self) -> np.ndarray:
        """Number of successors of every task."""
        degree = np.diff(self.succ_ptr)
        degree.setflags(write=False)
        return degree

    @cached_property
    def topo_position(self) -> np.ndarray:
        """Position of every task in the topological order (its inverse)."""
        position = np.empty(self.n_tasks, dtype=np.int64)
        position[self.topo_order] = np.arange(self.n_tasks, dtype=np.int64)
        position.setflags(write=False)
        return position

    def asap_update(self, durations: np.ndarray, start: np.ndarray,
                    finish: np.ndarray, changed: int,
                    max_visits: int | None = None) -> list[int] | None:
        """Propagate one task's duration change through its descendant cone.

        Incrementally repairs ASAP ``start``/``finish`` arrays (as produced
        by :func:`repro.core.solution.asap_times` for ``durations``) **in
        place** after ``durations[changed]`` was modified, visiting only
        the affected cone: the changed task and those descendants whose
        times actually move.  Nodes are processed in topological order (a
        heap over cached topo positions), and propagation stops early on
        every branch where the recomputed times equal the stored ones — a
        mode flip near the sink of a 10k-task graph touches a handful of
        nodes instead of re-running the full O(n + m) pass.

        The recomputed values are bit-identical to a full
        :func:`~repro.core.solution.asap_times` recompute (the update
        performs the same max/add operations on the same operands), so the
        routine also *reverts* exactly: restoring ``durations[changed]``
        and calling it again reproduces the original arrays.  This is what
        lets the greedy reclamation loop probe a move in O(cone) and undo
        it at the same cost.

        Parameters
        ----------
        durations:
            Current duration vector (index order), already holding the new
            value at ``changed``.
        start, finish:
            Writable ASAP time arrays to repair in place; they must be
            consistent with the *previous* duration vector.
        changed:
            Index of the task whose duration changed (works for increases
            and decreases alike).
        max_visits:
            Optional cap on processed cone nodes.  When the cone exceeds
            it, the update aborts and returns ``None`` — the arrays are
            then *partially updated* and the caller must rebuild them with
            a full (vectorised) :func:`asap_times` pass, which for cones
            of that size costs about the same anyway.

        Returns
        -------
        list[int] | None
            Indices whose ``(start, finish)`` entries changed, in the
            order they were processed (empty when the change was a no-op);
            ``None`` when ``max_visits`` was exceeded.
        """
        import heapq

        pred_ptr = self.pred_ptr
        pred_idx = self.pred_idx
        succ_ptr = self.succ_ptr
        succ_idx = self.succ_idx
        position = self.topo_position
        heap: list[tuple[int, int]] = [(int(position[changed]), changed)]
        pending = {changed}
        touched: list[int] = []
        visits = 0
        while heap:
            _, u = heapq.heappop(heap)
            pending.discard(u)
            visits += 1
            if max_visits is not None and visits > max_visits:
                return None
            new_start = 0.0
            for p in pred_idx[pred_ptr[u]:pred_ptr[u + 1]]:
                fp = finish[p]
                if fp > new_start:
                    new_start = fp
            new_finish = new_start + durations[u]
            if new_start == start[u] and new_finish == finish[u]:
                continue
            start[u] = new_start
            finish[u] = new_finish
            touched.append(int(u))
            for v in succ_idx[succ_ptr[u]:succ_ptr[u + 1]]:
                if v not in pending:
                    pending.add(v)
                    heapq.heappush(heap, (int(position[v]), int(v)))
        return touched

    def vector_of(self, mapping: Mapping[str, float]) -> np.ndarray:
        """Dense float vector of a per-task mapping, in index order."""
        return np.fromiter((mapping[name] for name in self.names),
                           dtype=float, count=len(self.names))

    def mapping_of(self, vector: np.ndarray) -> dict[str, float]:
        """Per-task dict view of a dense vector, in index order."""
        return {name: float(vector[i]) for i, name in enumerate(self.names)}


def _build_index(names: tuple[str, ...], works: np.ndarray, src: np.ndarray,
                 dst: np.ndarray, *, graph_name: str) -> GraphIndex:
    """Construct the CSR index, topological order and levels of a graph.

    ``names`` and ``works`` are in index order and edge ``k`` runs from
    ``src[k]`` to ``dst[k]`` (indices; duplicates allowed, they collapse).
    Both construction routes of :class:`TaskGraph` end here, so a graph
    built task by task and the same graph built from arrays share one
    index, and one :meth:`GraphIndex.structure_hash`.
    """
    n = len(names)
    index_of = dict(zip(names, range(n)))
    # one sort orders the edges by (source, target), so every CSR row comes
    # out sorted, and lines duplicates up to collapse them
    key = np.sort(src * n + dst)
    distinct = np.ones(len(key), dtype=bool)
    distinct[1:] = key[1:] != key[:-1]
    src, dst = np.divmod(key[distinct], max(n, 1))
    indeg = np.bincount(dst, minlength=n)
    pred_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(indeg, out=pred_ptr[1:])
    pred_idx = src[np.argsort(dst, kind="stable")]
    succ_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=succ_ptr[1:])
    succ_idx = dst

    # Kahn topological order (FIFO over insertion order) and levels in one
    # pass, on Python lists (the loop runs over the queue as it grows); a
    # cycle leaves the order short, and we raise so every cached index is a
    # valid DAG view.  FIFO order visits tasks level by level, so the
    # predecessor that releases a task has the deepest level of them all.
    ptr, succ, remaining = succ_ptr.tolist(), succ_idx.tolist(), indeg.tolist()
    order_list = [i for i in range(n) if remaining[i] == 0]
    level_list = [0] * n
    for u in order_list:
        lv = level_list[u] + 1
        for v in succ[ptr[u]:ptr[u + 1]]:
            remaining[v] -= 1
            if not remaining[v]:
                level_list[v] = lv
                order_list.append(v)
    if len(order_list) != n:
        raise InvalidGraphError(
            f"graph {graph_name!r} contains a cycle "
            f"({n - len(order_list)} tasks unreachable in topological sort)"
        )
    order = np.array(order_list, dtype=np.int64)
    level = np.array(level_list, dtype=np.int64)

    n_levels = int(level.max()) + 1 if n else 0
    order_by_level = np.argsort(level, kind="stable").astype(np.int64)
    level_counts = np.bincount(level, minlength=max(n_levels, 1))
    level_ptr = np.zeros(n_levels + 1, dtype=np.int64)
    np.cumsum(level_counts[:n_levels], out=level_ptr[1:])

    by_dst_level = np.argsort(level[dst], kind="stable")
    edge_src = src[by_dst_level]
    edge_dst = dst[by_dst_level]
    edge_level_ptr = np.zeros(n_levels + 1, dtype=np.int64)
    if len(dst):
        edge_counts = np.bincount(level[edge_dst], minlength=n_levels)
        np.cumsum(edge_counts, out=edge_level_ptr[1:])

    arrays = (works, pred_ptr, pred_idx, succ_ptr, succ_idx, order, level,
              order_by_level, level_ptr, edge_src, edge_dst, edge_level_ptr)
    for arr in arrays:
        arr.setflags(write=False)
    return GraphIndex(
        names=names, index_of=index_of, works=works,
        pred_ptr=pred_ptr, pred_idx=pred_idx,
        succ_ptr=succ_ptr, succ_idx=succ_idx,
        topo_order=order, level=level,
        order_by_level=order_by_level, level_ptr=level_ptr,
        edge_src=edge_src, edge_dst=edge_dst, edge_level_ptr=edge_level_ptr,
    )


#: ``(names, works, src, dst)`` of a graph built by :meth:`TaskGraph.from_arrays`.
_Arrays = tuple[tuple[str, ...], np.ndarray, np.ndarray, np.ndarray]


@dataclass(frozen=True)
class Task:
    """A single task of the application graph.

    Attributes
    ----------
    name:
        Unique identifier within its graph.
    work:
        Cost ``w_i`` of the task, in work units (strictly positive).  At
        speed ``s`` the execution time is ``work / s`` and the consumed
        dynamic energy is ``s**3 * (work / s) = work * s**2`` under the cubic
        power law.
    """

    name: str
    work: float

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise InvalidGraphError(f"task name must be a non-empty string, got {self.name!r}")
        if not (self.work > 0) or not (self.work < float("inf")):
            raise InvalidGraphError(
                f"task {self.name!r} must have a finite, strictly positive work, got {self.work}"
            )


class TaskGraph:
    """A directed acyclic graph of :class:`Task` objects.

    The class maintains predecessor and successor adjacency maps and checks
    acyclicity lazily (on :meth:`validate` and on the analysis functions that
    need a topological order).  :meth:`from_arrays` builds the same graph
    from index-ordered arrays, checked at once, with the maps built on
    first read.

    Parameters
    ----------
    tasks:
        Iterable of :class:`Task` (or ``(name, work)`` pairs).
    edges:
        Iterable of ``(source_name, target_name)`` precedence pairs meaning
        *source must complete before target starts*.
    name:
        Optional display name of the graph.
    """

    def __init__(
        self,
        tasks: Iterable[Task | tuple[str, float]] = (),
        edges: Iterable[tuple[str, str]] = (),
        *,
        name: str = "taskgraph",
    ) -> None:
        self.name = name
        self._tasks: dict[str, Task] = {}
        self._succ: dict[str, set[str]] = {}
        self._pred: dict[str, set[str]] = {}
        self._arrays: _Arrays | None = None
        self._index: GraphIndex | None = None
        for t in tasks:
            if isinstance(t, tuple):
                t = Task(t[0], float(t[1]))
            self.add_task(t)
        for u, v in edges:
            self.add_edge(u, v)

    @classmethod
    def from_arrays(cls, names: Sequence[str], works: ArrayLike,
                    src: ArrayLike, dst: ArrayLike, *,
                    name: str = "taskgraph") -> "TaskGraph":
        """Build a graph straight from index-ordered arrays.

        Task ``i`` is ``names[i]`` with work ``works[i]``; edge ``k`` runs
        from task ``src[k]`` to task ``dst[k]`` (duplicates collapse, as
        with :meth:`add_edge`).  The :class:`GraphIndex` is built at once
        from the arrays, so a cycle raises here; the dictionaries and
        :class:`Task` objects are only built when a method first reads
        them.  The index, and so :meth:`structure_hash`, equals that of the
        graph :meth:`add_task`/:meth:`add_edge` build from the same data.

        Raises
        ------
        InvalidGraphError
            On an empty, non-string or duplicate name, a work that is not
            finite and strictly positive, an edge endpoint out of range, a
            self-loop or a cycle.
        """
        names = tuple(names)
        n = len(names)
        try:
            works_arr = np.array(works, dtype=np.float64)
            src_arr = np.array(src, dtype=np.int64)
            dst_arr = np.array(dst, dtype=np.int64)
        except (TypeError, ValueError, OverflowError) as exc:
            raise InvalidGraphError(f"graph arrays must be numeric: {exc}") from exc
        if works_arr.shape != (n,):
            raise InvalidGraphError(
                f"expected {n} works, got an array of shape {works_arr.shape}")
        if src_arr.ndim != 1 or src_arr.shape != dst_arr.shape:
            raise InvalidGraphError(
                "src and dst must be vectors of one length, got shapes "
                f"{src_arr.shape} and {dst_arr.shape}")
        for task_name in names:
            if not isinstance(task_name, str) or not task_name:
                raise InvalidGraphError(
                    f"task name must be a non-empty string, got {task_name!r}")
        if len(set(names)) != n:
            duplicate = next(t for i, t in enumerate(names) if t in names[:i])
            raise InvalidGraphError(f"duplicate task name {duplicate!r}")
        bad = np.flatnonzero(~((works_arr > 0) & (works_arr < np.inf)))
        if len(bad):
            i = int(bad[0])
            raise InvalidGraphError(
                f"task {names[i]!r} must have a finite, strictly positive "
                f"work, got {float(works_arr[i])}")
        outside = np.flatnonzero((src_arr < 0) | (src_arr >= n)
                                 | (dst_arr < 0) | (dst_arr >= n))
        if len(outside):
            k = int(outside[0])
            raise InvalidGraphError(
                f"edge {src_arr[k]} -> {dst_arr[k]} has an endpoint outside "
                f"the {n} tasks")
        loops = np.flatnonzero(src_arr == dst_arr)
        if len(loops):
            raise InvalidGraphError(
                f"self-loop on task {names[int(src_arr[loops[0]])]!r}")
        for arr in (works_arr, src_arr, dst_arr):
            arr.setflags(write=False)
        graph = cls.__new__(cls)
        graph.name = name
        graph._arrays = (names, works_arr, src_arr, dst_arr)
        graph._index = None
        graph.index()
        return graph

    def __getattr__(self, attr: str) -> Any:
        # reached only when ordinary lookup fails: the first read of the
        # dict layer of a graph built (or unpickled) from arrays; any other
        # miss gets the usual AttributeError from the second lookup
        if (attr in ("_tasks", "_succ", "_pred")
                and self.__dict__.get("_arrays") is not None):
            self._build_dicts()
        return object.__getattribute__(self, attr)

    def _build_dicts(self) -> None:
        """Build the dict layer of an array-built graph from its arrays.

        The graph then keeps the dicts and its index (still valid) and
        drops the arrays, so from here on it mutates and pickles like a
        graph built task by task.
        """
        arrays = self._arrays
        if arrays is None:  # another thread built them meanwhile
            return
        names, works, src, dst = arrays
        succ: dict[str, set[str]] = {t: set() for t in names}
        pred: dict[str, set[str]] = {t: set() for t in names}
        for u, v in zip(src.tolist(), dst.tolist()):
            succ[names[u]].add(names[v])
            pred[names[v]].add(names[u])
        self._succ, self._pred = succ, pred
        self._tasks = {t: Task(t, w) for t, w in zip(names, works.tolist())}
        self._arrays = None

    def _dict_arrays(self) -> _Arrays:
        """``(names, works, src, dst)`` of the dict layer, in insertion order."""
        names = tuple(self._tasks)
        position = dict(zip(names, range(len(names)))).__getitem__
        works = np.fromiter((t.work for t in self._tasks.values()),
                            dtype=np.float64, count=len(names))
        succs = [self._succ[t] for t in names]
        src = np.repeat(np.arange(len(names), dtype=np.int64),
                        [len(s) for s in succs])
        dst = np.fromiter(chain.from_iterable(map(position, s) for s in succs),
                          dtype=np.int64, count=len(src))
        return names, works, src, dst

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def add_task(self, task: Task | str, work: float | None = None) -> Task:
        """Add a task; returns the stored :class:`Task`.

        Accepts either a :class:`Task` instance or a ``name`` plus ``work``.
        """
        if isinstance(task, str):
            if work is None:
                raise InvalidGraphError("work must be provided when adding a task by name")
            task = Task(task, float(work))
        if task.name in self._tasks:
            raise InvalidGraphError(f"duplicate task name {task.name!r}")
        self._tasks[task.name] = task
        self._succ[task.name] = set()
        self._pred[task.name] = set()
        self._index = None
        return task

    def add_edge(self, source: str, target: str) -> None:
        """Add the precedence edge ``source -> target``."""
        if source not in self._tasks:
            raise InvalidGraphError(f"unknown source task {source!r}")
        if target not in self._tasks:
            raise InvalidGraphError(f"unknown target task {target!r}")
        if source == target:
            raise InvalidGraphError(f"self-loop on task {source!r}")
        self._succ[source].add(target)
        self._pred[target].add(source)
        self._index = None

    def remove_edge(self, source: str, target: str) -> None:
        """Remove the precedence edge ``source -> target`` (must exist)."""
        try:
            self._succ[source].remove(target)
            self._pred[target].remove(source)
        except KeyError as exc:
            raise InvalidGraphError(f"edge {source!r} -> {target!r} does not exist") from exc
        self._index = None

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    @property
    def n_tasks(self) -> int:
        """Number of tasks."""
        return len(self)

    @property
    def n_edges(self) -> int:
        """Number of precedence edges."""
        return sum(len(s) for s in self._succ.values())

    def tasks(self) -> list[Task]:
        """All tasks, in insertion order."""
        return list(self._tasks.values())

    def task_names(self) -> list[str]:
        """All task names, in insertion order."""
        return list(self._tasks.keys())

    def task(self, name: str) -> Task:
        """Return the task with the given name."""
        try:
            return self._tasks[name]
        except KeyError as exc:
            raise InvalidGraphError(f"unknown task {name!r}") from exc

    def work(self, name: str) -> float:
        """Return the work ``w_i`` of a task."""
        return self.task(name).work

    def works(self) -> dict[str, float]:
        """Mapping of task name to work."""
        return {name: t.work for name, t in self._tasks.items()}

    def total_work(self) -> float:
        """Sum of all task works."""
        return sum(t.work for t in self._tasks.values())

    def __contains__(self, name: str) -> bool:
        return name in self._tasks

    def __iter__(self) -> Iterator[str]:
        return iter(self._tasks)

    def __len__(self) -> int:
        arrays = self._arrays
        return len(self._tasks if arrays is None else arrays[0])

    def has_edge(self, source: str, target: str) -> bool:
        """Whether the precedence edge ``source -> target`` exists."""
        return target in self._succ.get(source, set())

    def edges(self) -> list[tuple[str, str]]:
        """All edges as ``(source, target)`` pairs (deterministic order)."""
        out: list[tuple[str, str]] = []
        for u in self._tasks:
            for v in sorted(self._succ[u]):
                out.append((u, v))
        return out

    def successors(self, name: str) -> list[str]:
        """Immediate successors of a task (sorted for determinism)."""
        if name not in self._tasks:
            raise InvalidGraphError(f"unknown task {name!r}")
        return sorted(self._succ[name])

    def predecessors(self, name: str) -> list[str]:
        """Immediate predecessors of a task (sorted for determinism)."""
        if name not in self._tasks:
            raise InvalidGraphError(f"unknown task {name!r}")
        return sorted(self._pred[name])

    def sources(self) -> list[str]:
        """Tasks with no predecessor, in insertion order."""
        return [n for n in self._tasks if not self._pred[n]]

    def sinks(self) -> list[str]:
        """Tasks with no successor, in insertion order."""
        return [n for n in self._tasks if not self._succ[n]]

    def in_degree(self, name: str) -> int:
        """Number of immediate predecessors."""
        return len(self._pred[name])

    def out_degree(self, name: str) -> int:
        """Number of immediate successors."""
        return len(self._succ[name])

    # ------------------------------------------------------------------ #
    # integer indexing
    # ------------------------------------------------------------------ #
    def index(self) -> GraphIndex:
        """Cached integer-indexed CSR view of the graph.

        The view (name↔index arrays, CSR predecessor/successor lists, cached
        topological order and levels) is built on first use and invalidated
        by every mutation (:meth:`add_task`, :meth:`add_edge`,
        :meth:`remove_edge`).  All hot solver paths operate on this view
        instead of the per-task dictionaries.

        Raises
        ------
        InvalidGraphError
            If the graph contains a cycle (a cached index always describes a
            valid DAG).
        """
        if self._index is None:
            arrays = self._dict_arrays() if self._arrays is None else self._arrays
            self._index = _build_index(*arrays, graph_name=self.name)
        return self._index

    def structure_hash(self) -> str:
        """Content hash of the structure and weights (see :class:`GraphIndex`).

        Mutating the graph invalidates the cached index and therefore yields
        a fresh hash on the next call.  Hashing a graph that has not been
        indexed yet builds the index (O(n + m), the same view every solver
        needs anyway), so the cost is paid at most once per graph version.
        """
        return self.index().structure_hash

    # ------------------------------------------------------------------ #
    # validation / transformation
    # ------------------------------------------------------------------ #
    def validate(self) -> None:
        """Raise :class:`InvalidGraphError` if the graph is not a DAG.

        Validating builds the cached :meth:`index` (the view every solver
        needs anyway), so a validated graph is not sorted again until it
        is mutated.
        """
        self.index()

    def is_dag(self) -> bool:
        """Whether the graph is acyclic."""
        try:
            self.index()
        except InvalidGraphError:
            return False
        return True

    def copy(self, *, name: str | None = None) -> "TaskGraph":
        """Deep copy of the graph (tasks are immutable, so shared)."""
        g = TaskGraph(name=name or self.name)
        for t in self._tasks.values():
            g.add_task(t)
        for u, v in self.edges():
            g.add_edge(u, v)
        return g

    def with_scaled_work(self, factor: float) -> "TaskGraph":
        """Return a copy whose task works are multiplied by ``factor``."""
        if factor <= 0:
            raise InvalidGraphError("scaling factor must be strictly positive")
        g = TaskGraph(name=self.name)
        for t in self._tasks.values():
            g.add_task(Task(t.name, t.work * factor))
        for u, v in self.edges():
            g.add_edge(u, v)
        return g

    def subgraph(self, names: Iterable[str], *, name: str | None = None) -> "TaskGraph":
        """Induced subgraph on the given task names."""
        keep = set(names)
        unknown = keep - set(self._tasks)
        if unknown:
            raise InvalidGraphError(f"unknown tasks in subgraph request: {sorted(unknown)}")
        g = TaskGraph(name=name or f"{self.name}-sub")
        for n in self._tasks:
            if n in keep:
                g.add_task(self._tasks[n])
        for u, v in self.edges():
            if u in keep and v in keep:
                g.add_edge(u, v)
        return g

    # ------------------------------------------------------------------ #
    # interoperability
    # ------------------------------------------------------------------ #
    def to_networkx(self) -> nx.DiGraph:
        """Convert to a :class:`networkx.DiGraph` with ``work`` node attributes."""
        g = nx.DiGraph(name=self.name)
        for t in self._tasks.values():
            g.add_node(t.name, work=t.work)
        g.add_edges_from(self.edges())
        return g

    @classmethod
    def from_networkx(cls, g: nx.DiGraph, *, name: str | None = None,
                      default_work: float = 1.0) -> "TaskGraph":
        """Build a :class:`TaskGraph` from a networkx DiGraph.

        Node attribute ``work`` is used when present, otherwise
        ``default_work``.  Node identifiers are converted to strings.
        """
        tg = cls(name=name or (g.name or "taskgraph"))
        for node, data in g.nodes(data=True):
            tg.add_task(Task(str(node), float(data.get("work", default_work))))
        for u, v in g.edges():
            tg.add_edge(str(u), str(v))
        return tg

    @classmethod
    def from_works(cls, works: Mapping[str, float],
                   edges: Iterable[tuple[str, str]] = (),
                   *, name: str = "taskgraph") -> "TaskGraph":
        """Build a graph from a ``{name: work}`` mapping and an edge list."""
        return cls(tasks=[Task(n, float(w)) for n, w in works.items()],
                   edges=edges, name=name)

    def __getstate__(self) -> dict:
        """Pickle without the cached index (rebuilt lazily on first use).

        Keeps payloads lean when problems are shipped to worker processes by
        :func:`repro.batch.solve_many`: a graph whose dict layer was never
        built pickles as its four arrays.
        """
        state = self.__dict__.copy()
        state["_index"] = None
        return state

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return (
            f"TaskGraph(name={self.name!r}, n_tasks={self.n_tasks}, "
            f"n_edges={self.n_edges})"
        )
