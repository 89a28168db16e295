"""Tests for leader election and pipelined top-k convergecast."""

import networkx as nx
import pytest
from hypothesis import given, settings

from repro.congest.primitives.bfs import distributed_bfs
from repro.congest.primitives.election import elect_leader
from repro.congest.primitives.pipeline import pipelined_top_k
from repro.graphs.generators import grid_graph, wheel_graph
from repro.graphs.properties import eccentricity
from repro.util.errors import GraphStructureError

from tests.conftest import connected_graphs


class TestElection:
    def test_min_id_wins(self):
        graph = grid_graph(6, 6)
        leader, _ = elect_leader(graph, rng=1)
        assert leader == 0

    def test_rounds_at_most_diameter_plus_slack(self):
        graph = grid_graph(8, 4)
        _, stats = elect_leader(graph, rng=1)
        assert stats.rounds <= eccentricity(graph, 0) + 2

    def test_relabeled_graph(self):
        # Leader must be the minimum label even when it sits in a corner.
        graph = nx.relabel_nodes(grid_graph(5, 5), {0: 100, 24: 0})
        leader, _ = elect_leader(graph, rng=1)
        assert leader == 0

    def test_empty_graph_rejected(self):
        with pytest.raises(GraphStructureError):
            elect_leader(nx.Graph())

    @given(connected_graphs(min_nodes=2, max_nodes=30))
    @settings(max_examples=20, deadline=None)
    def test_everyone_agrees_property(self, graph):
        leader, _ = elect_leader(graph, rng=0)
        assert leader == min(graph.nodes())


class TestPipelinedTopK:
    def test_collects_global_minimum_items(self):
        graph = grid_graph(5, 5)
        tree, _ = distributed_bfs(graph, 0, rng=1)
        items = {v: [v + 100] for v in graph.nodes()}
        top, _ = pipelined_top_k(graph, tree, items, k=3, rng=1)
        assert top == (100, 101, 102)

    def test_rounds_linear_in_depth_plus_k(self):
        graph = grid_graph(8, 8)
        tree, _ = distributed_bfs(graph, 0, rng=1)
        items = {v: [v] for v in graph.nodes()}
        k = 10
        top, stats = pipelined_top_k(graph, tree, items, k=k, rng=1)
        assert top == tuple(range(k))
        assert stats.rounds <= tree.max_depth + k + 3

    def test_duplicates_collapse(self):
        graph = wheel_graph(10)
        tree, _ = distributed_bfs(graph, 0, rng=1)
        items = {v: [7] for v in graph.nodes()}
        top, _ = pipelined_top_k(graph, tree, items, k=4, rng=1)
        assert top == (7,)

    def test_nodes_without_items(self):
        graph = grid_graph(4, 4)
        tree, _ = distributed_bfs(graph, 0, rng=1)
        top, _ = pipelined_top_k(graph, tree, {15: [3]}, k=2, rng=1)
        assert top == (3,)

    def test_k_must_be_positive(self):
        graph = grid_graph(3, 3)
        tree, _ = distributed_bfs(graph, 0, rng=1)
        with pytest.raises(GraphStructureError):
            pipelined_top_k(graph, tree, {}, k=0)

    @given(connected_graphs(min_nodes=2, max_nodes=25))
    @settings(max_examples=15, deadline=None)
    def test_matches_sorted_reference_property(self, graph):
        tree, _ = distributed_bfs(graph, 0, rng=0)
        items = {v: [2 * v, 2 * v + 1] for v in graph.nodes()}
        k = 5
        top, _ = pipelined_top_k(graph, tree, items, k=k, rng=0)
        expected = tuple(sorted(x for lst in items.values() for x in lst)[:k])
        assert top == expected


class TestAckDrivenTopK:
    """PR 5: the pipeline terminates by acks, not by a calibrated horizon."""

    def test_result_exact_under_latency_models(self):
        graph = grid_graph(6, 6)
        tree, _ = distributed_bfs(graph, 0, rng=1)
        items = {v: [v + 50, 2 * v] for v in graph.nodes()}
        expected = tuple(sorted(x for lst in items.values() for x in lst)[:6])
        for model in (None, "seeded-jitter", "degree-proportional"):
            top, stats = pipelined_top_k(
                graph, tree, items, k=6, rng=2, latency_model=model,
            )
            assert top == expected, model

    def test_activations_track_traffic_not_horizon(self):
        # Deep path, items only at the far leaf: the retired horizon
        # variant paid ~n * (depth + k) activations; ack-driven pays for
        # the messages that actually flow.
        depth = 200
        graph = nx.path_graph(depth + 1)
        tree, _ = distributed_bfs(graph, 0, rng=1)
        items = {depth: [depth + i for i in range(3)]}
        top, stats = pipelined_top_k(graph, tree, items, k=3, rng=1)
        assert top == (depth, depth + 1, depth + 2)
        assert stats.activations <= 2 * stats.messages
        horizon_cost = graph.number_of_nodes() * (tree.max_depth + 3 + 2)
        assert stats.activations < horizon_cost / 10

    def test_quiesces_before_the_retired_horizon_on_shallow_trees(self):
        graph = wheel_graph(20)
        tree, _ = distributed_bfs(graph, 0, rng=1)
        items = {v: [v] for v in graph.nodes()}
        top, stats = pipelined_top_k(graph, tree, items, k=3, rng=1)
        assert top == (0, 1, 2)
        # Horizon was depth + k + 2 for every instance; acks let the run
        # stop as soon as the root has absorbed every stream.
        assert stats.rounds <= tree.max_depth + 3 + 2

    def test_local_duplicates_collapse_too(self):
        # Regression: a node's *own* duplicate items must not occupy
        # top-k window slots (they used to evict real distinct values).
        graph = nx.path_graph(3)
        tree, _ = distributed_bfs(graph, 0, rng=1)
        top, _ = pipelined_top_k(graph, tree, {2: [5, 5, 7, 9]}, k=3, rng=1)
        assert top == (5, 7, 9)
        top, _ = pipelined_top_k(graph, tree, {0: [5, 5, 9]}, k=3, rng=1)
        assert top == (5, 9)
