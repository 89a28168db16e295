"""Tests for the end-to-end part-wise aggregation API (Definition 2.1)."""

import pytest
from hypothesis import given, settings

from repro.apps.partwise import (
    solve_partwise_aggregation,
    solve_partwise_multicast,
)
from repro.graphs.generators import wheel_graph
from repro.graphs.partition import Partition, voronoi_partition
from repro.util.errors import ShortcutError

from tests.conftest import graphs_with_partitions


class TestAggregationApi:
    def test_sum_aggregation(self, small_grid):
        partition = voronoi_partition(small_grid, 5, rng=1)
        solution = solve_partwise_aggregation(
            small_grid, partition, {v: 1 for v in small_grid.nodes()},
            lambda a, b: a + b, rng=2,
        )
        for index, part in enumerate(partition):
            assert solution.values[index] == len(part)
        assert solution.total_rounds == solution.aggregation_stats.rounds

    def test_simulated_construction_adds_rounds(self, small_grid):
        partition = voronoi_partition(small_grid, 5, rng=1)
        values = {v: 1 for v in small_grid.nodes()}
        free = solve_partwise_aggregation(
            small_grid, partition, values, lambda a, b: a + b,
            provider="theorem31-centralized", rng=2,
        )
        paid = solve_partwise_aggregation(
            small_grid, partition, values, lambda a, b: a + b,
            provider="theorem31-simulated", rng=2,
        )
        assert paid.values == free.values
        assert paid.construction_stats.rounds > 0
        assert free.construction_stats.rounds == 0

    def test_method_none_is_slow_on_wheel(self):
        graph = wheel_graph(101)
        rim = list(range(1, 101))
        partition = Partition(graph, [rim])
        values = {v: v for v in rim}
        bare = solve_partwise_aggregation(
            graph, partition, values, min, provider="none", rng=1,
        )
        ours = solve_partwise_aggregation(
            graph, partition, values, min, rng=1,
        )
        assert bare.values == ours.values
        assert bare.aggregation_stats.rounds > 10 * ours.aggregation_stats.rounds

    def test_baseline_method_works(self, small_grid):
        partition = voronoi_partition(small_grid, 4, rng=3)
        solution = solve_partwise_aggregation(
            small_grid, partition, {v: v for v in small_grid.nodes()}, max,
            provider="baseline", rng=4,
        )
        for index, part in enumerate(partition):
            assert solution.values[index] == max(part)

    def test_unknown_method_rejected(self, small_grid):
        partition = voronoi_partition(small_grid, 3, rng=1)
        with pytest.raises(ShortcutError):
            solve_partwise_aggregation(
                small_grid, partition, {}, min, provider="psychic"
            )

    @given(graphs_with_partitions(min_nodes=3, max_nodes=25))
    @settings(max_examples=15, deadline=None)
    def test_matches_reference_property(self, graph_and_partition):
        graph, partition = graph_and_partition
        values = {v: v for v in graph.nodes()}
        solution = solve_partwise_aggregation(
            graph, partition, values, min, rng=0,
        )
        for index, part in enumerate(partition):
            assert solution.values[index] == min(part)


class TestMulticastApi:
    def test_messages_delivered(self, small_grid):
        partition = voronoi_partition(small_grid, 4, rng=5)
        messages = {i: 100 + i for i in range(4)}
        solution = solve_partwise_multicast(small_grid, partition, messages, rng=6)
        assert solution.values == messages

    def test_missing_message_rejected(self, small_grid):
        partition = voronoi_partition(small_grid, 3, rng=5)
        with pytest.raises(ShortcutError):
            solve_partwise_multicast(small_grid, partition, {0: 1}, rng=6)

    def test_multicast_on_wheel_rim(self):
        graph = wheel_graph(65)
        rim = list(range(1, 65))
        partition = Partition(graph, [rim])
        solution = solve_partwise_multicast(graph, partition, {0: 777}, rng=1)
        assert solution.values == {0: 777}
        assert solution.aggregation_stats.rounds <= 10
