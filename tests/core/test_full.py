"""Tests for repro.core.full — Observation 2.7 iteration."""

import math

import pytest
from hypothesis import given, settings

from repro.core.bounds import (
    theorem12_congestion_bound,
    theorem12_dilation_bound,
)
from repro.core.full import build_full_shortcut
from repro.graphs.generators import expanded_clique, grid_graph, lower_bound_graph
from repro.graphs.minors import analytic_delta_upper
from repro.graphs.partition import grid_rows_partition, voronoi_partition
from repro.graphs.trees import bfs_tree
from repro.util.errors import ShortcutError

from tests.conftest import graphs_with_partitions


class TestBuildFullShortcut:
    def test_covers_every_part(self):
        graph = grid_graph(12, 12)
        tree = bfs_tree(graph)
        partition = grid_rows_partition(graph)
        result = build_full_shortcut(graph, tree, partition, delta=3.0)
        assert len(result.shortcut.subgraphs) == len(partition)
        # Every part must have finite dilation.
        assert result.shortcut.dilation() < float("inf")

    def test_iteration_count_obeys_log_bound(self):
        graph = grid_graph(14, 14)
        tree = bfs_tree(graph)
        partition = voronoi_partition(graph, 50, rng=2)
        result = build_full_shortcut(graph, tree, partition, delta=3.0)
        assert result.iterations <= math.ceil(math.log2(len(partition))) + 1

    def test_congestion_within_theorem12_bound(self):
        graph = grid_graph(14, 14)
        tree = bfs_tree(graph)
        partition = voronoi_partition(graph, 60, rng=4)
        result = build_full_shortcut(graph, tree, partition, delta=3.0)
        quality = result.shortcut.quality()
        assert quality.congestion <= theorem12_congestion_bound(
            3.0, tree.max_depth, len(partition)
        )
        assert quality.dilation <= theorem12_dilation_bound(3.0, tree.max_depth)

    def test_congestion_bound_property_sums_budgets(self):
        graph = grid_graph(10, 10)
        tree = bfs_tree(graph)
        partition = voronoi_partition(graph, 20, rng=1)
        result = build_full_shortcut(graph, tree, partition, delta=3.0)
        assert result.shortcut.congestion() <= result.congestion_bound

    def test_stall_raises_without_escalation(self):
        instance = lower_bound_graph(5, 20)
        tree = bfs_tree(instance.graph)
        with pytest.raises(ShortcutError):
            build_full_shortcut(
                instance.graph, tree, instance.partition, delta=0.05
            )

    def test_stall_escalates_when_enabled(self):
        instance = lower_bound_graph(5, 20)
        tree = bfs_tree(instance.graph)
        result = build_full_shortcut(
            instance.graph,
            tree,
            instance.partition,
            delta=0.05,
            escalate_on_stall=True,
        )
        assert result.delta_used > 0.05
        assert result.shortcut.dilation() < float("inf")

    def test_empty_partition_rejected(self, small_grid):
        from repro.graphs.partition import Partition

        tree = bfs_tree(small_grid)
        with pytest.raises(ShortcutError):
            build_full_shortcut(small_grid, tree, Partition(small_grid, []), delta=1.0)


class TestAdaptive:
    def test_adaptive_on_expanded_clique(self):
        graph = expanded_clique(7, 9)
        tree = bfs_tree(graph)
        partition = voronoi_partition(graph, 15, rng=5)
        result = build_full_shortcut(graph, tree, partition, 1.0, escalate_on_stall=True)
        # delta(G) = 3.0; the doubling search must stop at or below 8.
        assert result.delta_used <= 8.0
        assert result.shortcut.dilation() < float("inf")

    @given(graphs_with_partitions(min_nodes=4, max_nodes=30))
    @settings(max_examples=20, deadline=None)
    def test_adaptive_always_terminates_property(self, graph_and_partition):
        graph, partition = graph_and_partition
        tree = bfs_tree(graph, root=0)
        result = build_full_shortcut(graph, tree, partition, 1.0, escalate_on_stall=True)
        shortcut = result.shortcut
        assert shortcut.dilation(exact=False) < float("inf")
        # Tree-restriction: every H edge is a tree edge by construction.
        for children in shortcut.tree_edge_children:
            for child in children:
                assert tree.parent_of(child) is not None

    def test_adaptive_at_analytic_delta_needs_no_escalation(self):
        graph = grid_graph(10, 10)
        tree = bfs_tree(graph)
        partition = grid_rows_partition(graph)
        result = build_full_shortcut(
            graph, tree, partition, delta=analytic_delta_upper(graph)
        )
        assert result.delta_used == analytic_delta_upper(graph)
