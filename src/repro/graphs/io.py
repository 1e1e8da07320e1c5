"""Serialisation of task graphs (JSON dictionaries and Graphviz DOT).

The experiment harness stores generated workloads as JSON so that runs are
reproducible and shareable; the DOT export is a debugging convenience for
inspecting small graphs.
"""

from __future__ import annotations

import json
from typing import Any, Mapping

from repro.graphs.taskgraph import TaskGraph
from repro.utils.errors import InvalidGraphError


def graph_to_dict(graph: TaskGraph) -> dict[str, Any]:
    """Serialise a graph to a plain dictionary.

    The format is ``{"name": ..., "tasks": {name: work, ...},
    "edges": [[u, v], ...]}``.
    """
    return {
        "name": graph.name,
        "tasks": {t.name: t.work for t in graph.tasks()},
        "edges": [list(e) for e in graph.edges()],
    }


def graph_from_dict(data: Mapping[str, Any]) -> TaskGraph:
    """Deserialise a graph previously produced by :func:`graph_to_dict`.

    Task names and edge endpoints are read as strings and resolved to
    indices here; :meth:`TaskGraph.from_arrays` checks the rest (names,
    works, self-loops, cycles), so the graph comes back indexed and
    without its dict layer.
    """
    tasks = graph_tasks(data)
    names = [str(name) for name in tasks]
    src, dst = edge_ids(data, {name: i for i, name in enumerate(names)})
    return TaskGraph.from_arrays(names, list(tasks.values()), src, dst,
                                 name=graph_dict_name(data))


def graph_tasks(data: Any) -> Mapping[Any, Any]:
    """The task map of a graph dictionary.

    Every reader of a graph dictionary checks its shape here: ``data``
    must be a mapping whose ``"tasks"`` entry maps task names to works.
    Anything else raises :class:`InvalidGraphError`.
    """
    if not isinstance(data, Mapping):
        raise InvalidGraphError(
            f"a graph dictionary must be a mapping, got {type(data).__name__}")
    if "tasks" not in data:
        raise InvalidGraphError("graph dictionary is missing the 'tasks' key")
    tasks = data["tasks"]
    if not isinstance(tasks, Mapping):
        raise InvalidGraphError(
            f"graph 'tasks' must map task names to works, got "
            f"{type(tasks).__name__}")
    return tasks


def task_count(data: Any) -> int:
    """How many tasks the graph dictionary ``data`` holds; 0 when it is
    not one (:func:`graph_tasks` raises for it)."""
    try:
        return len(graph_tasks(data))
    except InvalidGraphError:
        return 0


def edge_ids(data: Mapping[str, Any], index_of: Mapping[str, int]
             ) -> tuple[list[int], list[int]]:
    """Task ids of the endpoints of every edge of a graph dictionary.

    Every route that reads a graph dictionary resolves its edges here, so
    an edge means the same on each: an entry holds exactly two endpoints,
    and each is looked up as ``str(endpoint)`` in ``index_of`` (task name
    to id).  Anything else raises :class:`InvalidGraphError`.
    """
    edges = data.get("edges") or ()
    try:
        entries = iter(edges)
    except TypeError:
        raise InvalidGraphError(f"malformed edge list: {edges!r}") from None
    src: list[int] = []
    dst: list[int] = []
    for edge in entries:
        try:
            source, target = edge
        except (TypeError, ValueError):
            raise InvalidGraphError(f"malformed edge entry: {edge!r}") from None
        try:
            src.append(index_of[str(source)])
        except KeyError:
            raise InvalidGraphError(
                f"unknown source task {str(source)!r}") from None
        try:
            dst.append(index_of[str(target)])
        except KeyError:
            raise InvalidGraphError(
                f"unknown target task {str(target)!r}") from None
    return src, dst


def graph_dict_name(data: Mapping[str, Any]) -> str:
    """The name :func:`graph_from_dict` gives the graph of ``data``
    (the default name when ``data`` is not a mapping)."""
    if not isinstance(data, Mapping):
        return "taskgraph"
    return str(data.get("name", "taskgraph"))


def graph_to_json(graph: TaskGraph, *, indent: int | None = 2) -> str:
    """Serialise a graph to a JSON string."""
    return json.dumps(graph_to_dict(graph), indent=indent, sort_keys=True)


def graph_from_json(text: str) -> TaskGraph:
    """Deserialise a graph from a JSON string."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidGraphError(f"invalid JSON: {exc}") from exc
    return graph_from_dict(data)


def graph_to_dot(graph: TaskGraph, *, label_work: bool = True) -> str:
    """Render the graph as Graphviz DOT text.

    Parameters
    ----------
    label_work:
        When true (default), node labels include the task work.
    """
    lines = [f'digraph "{graph.name}" {{', "  rankdir=LR;"]
    for t in graph.tasks():
        if label_work:
            label = f"{t.name}\\nw={t.work:g}"
        else:
            label = t.name
        lines.append(f'  "{t.name}" [label="{label}"];')
    for u, v in graph.edges():
        lines.append(f'  "{u}" -> "{v}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
