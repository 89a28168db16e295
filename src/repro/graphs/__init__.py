"""Graph toolkit: normalized graphs, rooted trees, partitions, generators.

This subpackage is the structural substrate for the shortcut machinery in
:mod:`repro.core`. Everything operates on plain :class:`networkx.Graph`
objects with integer node labels ``0..n-1`` (see
:func:`repro.graphs.adjacency.normalize_graph`).
"""

from repro.graphs.adjacency import canonical_edge, normalize_graph, require_connected
from repro.graphs.partition import (
    Partition,
    forest_cut_partition,
    singleton_partition,
    voronoi_partition,
    whole_graph_partition,
)
from repro.graphs.properties import (
    degeneracy,
    diameter,
    diameter_lower_bound,
    graph_density,
)
from repro.graphs.trees import RootedTree, bfs_tree

__all__ = [
    "canonical_edge",
    "normalize_graph",
    "require_connected",
    "Partition",
    "voronoi_partition",
    "forest_cut_partition",
    "singleton_partition",
    "whole_graph_partition",
    "RootedTree",
    "bfs_tree",
    "diameter",
    "diameter_lower_bound",
    "degeneracy",
    "graph_density",
]
