"""Tests for repro.graphs.partition."""

import re

import pytest
from hypothesis import given, settings

from repro.graphs.generators import grid_graph, wheel_graph
from repro.graphs.partition import (
    Partition,
    forest_cut_partition,
    grid_rows_partition,
    singleton_partition,
    voronoi_partition,
    whole_graph_partition,
)
from repro.util.errors import PartitionError

from tests.conftest import connected_graphs, graphs_with_partitions


class TestPartitionValidation:
    def test_valid_partition(self, small_grid):
        partition = Partition(small_grid, [[0, 1], [2, 3]])
        assert len(partition) == 2
        assert partition.part_index_of(0) == 0
        assert partition.part_index_of(3) == 1

    def test_rejects_overlap(self, small_grid):
        with pytest.raises(PartitionError):
            Partition(small_grid, [[0, 1], [1, 2]])

    def test_rejects_empty_part(self, small_grid):
        with pytest.raises(PartitionError):
            Partition(small_grid, [[0], []])

    def test_rejects_unknown_nodes(self, small_grid):
        with pytest.raises(PartitionError):
            Partition(small_grid, [[0, 999]])

    def test_rejects_disconnected_part(self, small_grid):
        # 0 and 35 are opposite grid corners: not adjacent.
        with pytest.raises(PartitionError):
            Partition(small_grid, [[0, 35]])

    def test_uncovered_nodes_allowed(self, small_grid):
        partition = Partition(small_grid, [[0, 1]])
        assert not partition.covers(10)
        assert partition.part_index_of(10) is None
        assert partition.covered_nodes == frozenset({0, 1})


class TestPartitionDerivation:
    def test_restrict_keeps_order(self, small_grid):
        partition = Partition(small_grid, [[0], [1], [2]])
        restricted = partition.restrict(small_grid, [2, 0])
        assert restricted[0] == frozenset({2})
        assert restricted[1] == frozenset({0})

    def test_leader_is_min(self, small_grid):
        partition = Partition(small_grid, [[3, 2, 1]])
        assert partition.leader_of(0) == 1


class TestGenerators:
    def test_voronoi_covers_everything(self, small_grid):
        partition = voronoi_partition(small_grid, 5, rng=1)
        assert partition.covered_nodes == frozenset(small_grid.nodes())
        assert len(partition) == 5

    def test_voronoi_bad_count(self, small_grid):
        with pytest.raises(PartitionError):
            voronoi_partition(small_grid, 0)
        with pytest.raises(PartitionError):
            voronoi_partition(small_grid, 100)

    @pytest.mark.parametrize("make", [voronoi_partition, forest_cut_partition])
    @pytest.mark.parametrize("num_parts", [2.5, True, False, "3", None, 0, 17, -1])
    def test_bad_num_parts_is_named(self, make, num_parts):
        # A float used to raise a bare TypeError from rng.sample, and True
        # was taken as one part.
        with pytest.raises(PartitionError, match=re.escape(f"got {num_parts!r}")):
            make(grid_graph(4, 4), num_parts, rng=1)

    def test_forest_cut_covers_everything(self, small_grid):
        partition = forest_cut_partition(small_grid, 7, rng=2)
        assert partition.covered_nodes == frozenset(small_grid.nodes())
        assert len(partition) == 7

    def test_forest_cut_leaves_no_weight_attrs(self, small_grid):
        forest_cut_partition(small_grid, 3, rng=0)
        for _, _, data in small_grid.edges(data=True):
            assert "_rand_weight" not in data

    def test_singletons(self, small_grid):
        partition = singleton_partition(small_grid)
        assert len(partition) == small_grid.number_of_nodes()
        assert all(len(part) == 1 for part in partition)

    def test_whole_graph(self, small_grid):
        partition = whole_graph_partition(small_grid)
        assert len(partition) == 1
        assert partition[0] == frozenset(small_grid.nodes())

    def test_grid_rows(self):
        graph = grid_graph(4, 3)
        partition = grid_rows_partition(graph)
        assert len(partition) == 3
        assert partition[0] == frozenset({0, 1, 2, 3})

    def test_grid_rows_requires_metadata(self):
        graph = wheel_graph(6)
        with pytest.raises(PartitionError):
            grid_rows_partition(graph)

    @given(graphs_with_partitions())
    @settings(max_examples=40, deadline=None)
    def test_random_partitions_are_valid_property(self, graph_and_partition):
        graph, partition = graph_and_partition
        # Re-validating must not raise: parts disjoint, connected, nonempty.
        Partition(graph, [list(part) for part in partition], validate=True)

    @given(connected_graphs(min_nodes=3))
    @settings(max_examples=25, deadline=None)
    def test_voronoi_parts_counts_property(self, graph):
        partition = voronoi_partition(graph, 3, rng=0)
        assert len(partition) == 3
        assert sum(len(part) for part in partition) == graph.number_of_nodes()
