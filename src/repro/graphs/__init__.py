"""Task-graph substrate.

This subpackage implements the application model of the paper: a directed
acyclic task graph ``G = (V, E)`` with per-task costs ``w_i``, plus the
analysis routines (topological orders, critical paths, transitive
reduction), synthetic generators for every graph family the evaluation
uses (chains, forks, joins, fork-joins, trees, series-parallel graphs,
layered and Erdős-style random DAGs), a series-parallel recogniser and
decomposition, and simple DOT/JSON serialisation.
"""

from repro.graphs.taskgraph import Task, TaskGraph
from repro.graphs.analysis import (
    topological_order,
    longest_path_length,
    critical_path,
    critical_path_tasks,
    transitive_reduction,
    transitive_closure_pairs,
    graph_depth,
    graph_width,
    ancestors,
    descendants,
)
from repro.graphs.sp_decomposition import (
    CombinePlan,
    is_series_parallel,
    sp_decompose,
)
from repro.graphs import generators
from repro.graphs.io import (
    graph_to_dot,
    graph_to_dict,
    graph_from_dict,
    graph_to_json,
    graph_from_json,
)

__all__ = [
    "Task",
    "TaskGraph",
    "topological_order",
    "longest_path_length",
    "critical_path",
    "critical_path_tasks",
    "transitive_reduction",
    "transitive_closure_pairs",
    "graph_depth",
    "graph_width",
    "ancestors",
    "descendants",
    "CombinePlan",
    "is_series_parallel",
    "sp_decompose",
    "generators",
    "graph_to_dot",
    "graph_to_dict",
    "graph_from_dict",
    "graph_to_json",
    "graph_from_json",
]
