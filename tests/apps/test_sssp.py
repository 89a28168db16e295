"""Tests for the SSSP primitives."""

import networkx as nx
import pytest
from hypothesis import given, settings

from repro.apps.sssp import bellman_ford_sssp, distributed_bfs_sssp, sssp_job
from repro.apps.mst import assign_random_weights
from repro.graphs.adjacency import canonical_edge
from repro.graphs.generators import grid_graph, wheel_graph
from repro.serve import JobServer
from repro.util.errors import GraphStructureError

from tests.conftest import connected_graphs


class TestBfsSssp:
    def test_matches_networkx(self):
        graph = grid_graph(6, 6)
        distances, stats = distributed_bfs_sssp(graph, 0, rng=1)
        reference = nx.single_source_shortest_path_length(graph, 0)
        assert distances == dict(reference)
        assert stats.rounds <= max(reference.values()) + 2


class TestBellmanFord:
    def test_exact_weighted_distances(self):
        graph = grid_graph(6, 6)
        weights = assign_random_weights(graph, rng=2, max_weight=100)
        for u, v in graph.edges():
            graph.edges[u, v]["weight"] = weights[canonical_edge(u, v)]
        distances, _ = bellman_ford_sssp(graph, 0, weights)
        reference = nx.single_source_dijkstra_path_length(graph, 0, weight="weight")
        assert all(distances[v] == reference[v] for v in graph.nodes())

    def test_unit_weights_equal_bfs(self):
        graph = wheel_graph(15)
        weighted, _ = bellman_ford_sssp(graph, 0)
        hops, _ = distributed_bfs_sssp(graph, 0, rng=1)
        assert weighted == hops

    def test_hop_bound_truncates(self):
        graph = nx.path_graph(10)
        distances, stats = bellman_ford_sssp(graph, 0, max_hops=3)
        assert distances[3] == 3
        assert distances[9] is None
        assert stats.rounds <= 4

    def test_hop_bound_exact_within_budget(self):
        graph = grid_graph(5, 5)
        weights = assign_random_weights(graph, rng=3, max_weight=9)
        full, _ = bellman_ford_sssp(graph, 0, weights)
        bounded, _ = bellman_ford_sssp(graph, 0, weights, max_hops=24)
        assert full == bounded

    def test_rejects_negative_weights(self):
        graph = nx.path_graph(3)
        with pytest.raises(GraphStructureError):
            bellman_ford_sssp(graph, 0, {(0, 1): -1, (1, 2): 1})

    def test_rejects_float_weights(self):
        graph = nx.path_graph(2)
        with pytest.raises(GraphStructureError):
            bellman_ford_sssp(graph, 0, {(0, 1): 0.5})

    def test_rejects_unknown_source(self):
        with pytest.raises(GraphStructureError):
            bellman_ford_sssp(nx.path_graph(3), 99)

    @pytest.mark.parametrize("max_hops", [-1, 1.5, True, "a"])
    def test_rejects_bad_max_hops(self, max_hops):
        graph = nx.path_graph(3)
        for make in (bellman_ford_sssp, sssp_job):
            with pytest.raises(GraphStructureError, match="max_hops") as err:
                make(graph, 0, max_hops=max_hops)
            assert repr(max_hops) in str(err.value)

    def test_zero_hops_reaches_only_the_source(self):
        distances, stats = bellman_ford_sssp(nx.path_graph(3), 0, max_hops=0)
        assert distances == {0: 0, 1: None, 2: None}
        assert stats.messages == 1  # the source's one announcement

    def test_bad_max_hops_never_reaches_a_drain(self):
        # Rejected at construction, so the other tenant's drain completes.
        graph = grid_graph(5, 5)
        server = JobServer(graph)
        server.submit(sssp_job(graph, 0, rng=1, job_id="good"))
        with pytest.raises(GraphStructureError, match="max_hops"):
            server.submit(sssp_job(graph, 24, max_hops="a", job_id="bad"))
        result = server.drain()
        assert set(result.outcomes) == {"good"}
        assert result.outcomes["good"].results[24] == 8

    @given(connected_graphs(min_nodes=2, max_nodes=20))
    @settings(max_examples=15, deadline=None)
    def test_matches_dijkstra_property(self, graph):
        weights = assign_random_weights(graph, rng=0, max_weight=50)
        for u, v in graph.edges():
            graph.edges[u, v]["weight"] = weights[canonical_edge(u, v)]
        distances, _ = bellman_ford_sssp(graph, 0, weights)
        reference = nx.single_source_dijkstra_path_length(graph, 0, weight="weight")
        assert all(distances[v] == reference[v] for v in graph.nodes())
