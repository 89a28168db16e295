"""Tests for BFS / broadcast / convergecast primitives."""

import networkx as nx
import pytest
from hypothesis import given, settings

from repro.congest.primitives import (
    distributed_bfs,
    pipelined_broadcast,
    tree_aggregate,
    tree_broadcast,
)
from repro.graphs.generators import grid_graph, wheel_graph
from repro.graphs.properties import bfs_distances, eccentricity
from repro.util.errors import GraphStructureError

from tests.conftest import connected_graphs


class TestDistributedBfs:
    def test_tree_depths_match_bfs_distances(self):
        graph = grid_graph(6, 5)
        tree, _ = distributed_bfs(graph, 0, rng=1)
        expected = bfs_distances(graph, 0)
        for node in graph.nodes():
            assert tree.depth_of(node) == expected[node]

    def test_round_complexity_is_eccentricity(self):
        graph = grid_graph(8, 3)
        _, stats = distributed_bfs(graph, 0, rng=1)
        assert stats.rounds <= eccentricity(graph, 0) + 2

    def test_message_complexity_linear_in_edges(self):
        graph = grid_graph(6, 6)
        _, stats = distributed_bfs(graph, 0, rng=1)
        # Each edge carries O(1) messages: adv each way at most once + joins.
        assert stats.messages <= 3 * graph.number_of_edges()

    def test_rejects_unknown_root(self):
        with pytest.raises(GraphStructureError):
            distributed_bfs(grid_graph(3, 3), 99)

    def test_rejects_disconnected(self):
        graph = nx.Graph([(0, 1), (2, 3)])
        with pytest.raises(GraphStructureError):
            distributed_bfs(graph, 0)

    @given(connected_graphs(min_nodes=2, max_nodes=30))
    @settings(max_examples=20, deadline=None)
    def test_valid_bfs_tree_property(self, graph):
        tree, _ = distributed_bfs(graph, 0, rng=0)
        tree.validate_on(graph)
        expected = bfs_distances(graph, 0)
        for node in graph.nodes():
            assert tree.depth_of(node) == expected[node]


class TestBroadcast:
    def test_everyone_receives(self):
        graph = wheel_graph(12)
        tree, _ = distributed_bfs(graph, 0, rng=1)
        values, stats = tree_broadcast(graph, tree, (3, 4), rng=1)
        assert all(v == (3, 4) for v in values.values())
        assert stats.rounds <= tree.max_depth + 1

    def test_single_node_tree(self):
        graph = nx.Graph()
        graph.add_node(0)
        from repro.graphs.trees import RootedTree

        tree = RootedTree(0, {0: None})
        values, stats = tree_broadcast(graph, tree, 5)
        assert values[0] == 5
        assert stats.rounds == 0

    @pytest.mark.parametrize(
        "model",
        ["seeded-jitter", "degree-proportional", "heavy-tailed", "contention:1.0"],
    )
    def test_pipelined_wave_arrives_in_order_under_latency_models(self, model):
        graph = wheel_graph(12)
        tree, _ = distributed_bfs(graph, 0, rng=1)
        wave = (7, 300, 5)
        values, stats = pipelined_broadcast(graph, tree, wave, rng=1, latency_model=model)
        assert set(values.values()) == {wave}
        assert stats.messages == len(wave) * (graph.number_of_nodes() - 1)

    def test_empty_wave_sends_nothing(self):
        graph = grid_graph(3, 3)
        tree, _ = distributed_bfs(graph, 0, rng=1)
        values, stats = pipelined_broadcast(graph, tree, ())
        assert set(values.values()) == {()}
        assert (stats.rounds, stats.messages) == (0, 0)


class TestTreeMismatch:
    def test_tree_of_a_smaller_graph_rejected(self):
        tree, _ = distributed_bfs(grid_graph(3, 3), 0, rng=1)
        graph = grid_graph(4, 4)
        with pytest.raises(GraphStructureError, match="tree"):
            tree_broadcast(graph, tree, 1)
        with pytest.raises(GraphStructureError, match="tree"):
            tree_aggregate(graph, tree, {v: 1 for v in graph}, min)

    def test_tree_over_other_nodes_rejected(self):
        tree, _ = distributed_bfs(nx.path_graph(3), 0, rng=1)
        graph = nx.relabel_nodes(nx.path_graph(3), {2: 7})
        with pytest.raises(GraphStructureError, match="tree"):
            tree_broadcast(graph, tree, 1)

    def test_values_missing_a_node_rejected(self):
        graph = grid_graph(3, 3)
        tree, _ = distributed_bfs(graph, 0, rng=1)
        with pytest.raises(GraphStructureError, match="values miss 1"):
            tree_aggregate(graph, tree, {v: 1 for v in graph if v != 4}, min)


class TestAggregate:
    def test_sum(self):
        graph = grid_graph(5, 5)
        tree, _ = distributed_bfs(graph, 0, rng=1)
        total, stats = tree_aggregate(
            graph, tree, {v: v for v in graph.nodes()}, lambda a, b: a + b
        )
        assert total == sum(range(25))
        assert stats.rounds <= tree.max_depth + 1

    def test_min_and_max(self):
        graph = grid_graph(4, 4)
        tree, _ = distributed_bfs(graph, 0, rng=1)
        low, _ = tree_aggregate(graph, tree, {v: v + 10 for v in graph.nodes()}, min)
        high, _ = tree_aggregate(graph, tree, {v: v + 10 for v in graph.nodes()}, max)
        assert low == 10
        assert high == 25

    @given(connected_graphs(min_nodes=2, max_nodes=25))
    @settings(max_examples=20, deadline=None)
    def test_count_equals_n_property(self, graph):
        tree, _ = distributed_bfs(graph, 0, rng=0)
        total, _ = tree_aggregate(graph, tree, {v: 1 for v in graph.nodes()}, lambda a, b: a + b)
        assert total == graph.number_of_nodes()
