"""repro — Low-Congestion Shortcuts for Graphs Excluding Dense Minors.

A faithful, fully-tested reproduction of Ghaffari & Haeupler (PODC 2021):
tree-restricted low-congestion shortcuts of quality ``O~(δD)`` for graphs
of minor density δ and diameter D, with

* the exact Theorem 3.1 construction (:mod:`repro.core.partial`) and its
  certifying case-II dense-minor extraction (:mod:`repro.core.certifying`),
* the Observation 2.7 partial→full iteration (:mod:`repro.core.full`),
* the Theorem 1.5 distributed CONGEST construction
  (:mod:`repro.core.distributed`) on a measured simulator
  (:mod:`repro.congest`),
* part-wise aggregation via random-delay scheduling (:mod:`repro.sched`),
* applications: MST, min-cut, SSSP (:mod:`repro.apps`),
* graph families with analytic δ bounds and the Lemma 3.2 lower-bound
  topology (:mod:`repro.graphs`).

Quickstart::

    from repro import ShortcutRequest, build_shortcut, grid_graph
    from repro.graphs.partition import grid_rows_partition

    graph = grid_graph(20, 20)
    parts = grid_rows_partition(graph)
    outcome = build_shortcut(ShortcutRequest(graph, parts, delta=3.0))
    print(outcome.quality())

Every registered construction (``baseline``, ``theorem31-centralized``,
``theorem31-simulated``, ``greedy``, ``certifying``, ``none``) is reachable
through the same :class:`~repro.core.providers.ShortcutRequest`; see
:func:`~repro.core.providers.available_providers`.
"""

from repro.core import (
    Shortcut,
    ShortcutOutcome,
    ShortcutQuality,
    ShortcutRequest,
    TreeRestrictedShortcut,
    available_providers,
    bfs_tree_shortcut,
    build_full_shortcut,
    build_partial_shortcut,
    build_shortcut,
    certify_or_shortcut,
)
from repro.graphs import Partition, RootedTree, bfs_tree, diameter
from repro.graphs.generators import grid_graph, lower_bound_graph

__version__ = "1.0.0"

__all__ = [
    "Shortcut",
    "ShortcutQuality",
    "TreeRestrictedShortcut",
    "build_partial_shortcut",
    "build_full_shortcut",
    "certify_or_shortcut",
    "bfs_tree_shortcut",
    "ShortcutRequest",
    "ShortcutOutcome",
    "build_shortcut",
    "available_providers",
    "Partition",
    "RootedTree",
    "bfs_tree",
    "diameter",
    "grid_graph",
    "lower_bound_graph",
    "__version__",
]
