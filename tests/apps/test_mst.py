"""Tests for the distributed MST (Corollary 1.6)."""

import re

import networkx as nx
import pytest
from hypothesis import given, settings

from repro.apps.mst import assign_random_weights, distributed_mst
from repro.graphs.adjacency import canonical_edge
from repro.graphs.generators import grid_graph, k_tree, wheel_graph
from repro.util.errors import GraphStructureError, ShortcutError

from tests.conftest import connected_graphs


def _kruskal_edges(graph, weights):
    for u, v in graph.edges():
        graph.edges[u, v]["weight"] = weights[canonical_edge(u, v)]
    reference = nx.minimum_spanning_tree(graph, weight="weight")
    return frozenset(canonical_edge(u, v) for u, v in reference.edges())


class TestCorrectness:
    def test_matches_kruskal_on_grid(self):
        graph = grid_graph(8, 8)
        weights = assign_random_weights(graph, rng=1)
        result = distributed_mst(graph, weights, rng=2)
        assert result.edges == _kruskal_edges(graph, weights)
        assert len(result.edges) == graph.number_of_nodes() - 1

    def test_matches_kruskal_on_k_tree(self):
        graph = k_tree(60, 3, rng=3)
        weights = assign_random_weights(graph, rng=4)
        result = distributed_mst(graph, weights, rng=5)
        assert result.edges == _kruskal_edges(graph, weights)

    def test_baseline_method_same_tree(self):
        graph = grid_graph(7, 7)
        weights = assign_random_weights(graph, rng=6)
        ours = distributed_mst(graph, weights, rng=7)
        baseline = distributed_mst(graph, weights, provider="baseline", rng=7)
        assert ours.edges == baseline.edges

    def test_unit_weights_spanning_tree(self):
        graph = wheel_graph(20)
        result = distributed_mst(graph, rng=1)
        assert len(result.edges) == graph.number_of_nodes() - 1
        assert result.weight == graph.number_of_nodes() - 1

    @given(connected_graphs(min_nodes=3, max_nodes=24))
    @settings(max_examples=15, deadline=None)
    def test_matches_kruskal_property(self, graph):
        weights = assign_random_weights(graph, rng=0)
        result = distributed_mst(graph, weights, rng=0)
        assert result.edges == _kruskal_edges(graph, weights)


class TestValidation:
    def test_rejects_disconnected(self):
        with pytest.raises(GraphStructureError):
            distributed_mst(nx.Graph([(0, 1), (2, 3)]))

    def test_rejects_float_weights(self):
        graph = grid_graph(3, 3)
        weights = {canonical_edge(u, v): 1.5 for u, v in graph.edges()}
        with pytest.raises(GraphStructureError):
            distributed_mst(graph, weights)

    @pytest.mark.parametrize("max_weight", [0, 1, -1, 2.5, True, None])
    def test_random_weights_reject_bad_max_weight(self, max_weight):
        # Each used to raise a bare ValueError or TypeError from randrange.
        with pytest.raises(GraphStructureError, match=re.escape(f"got {max_weight!r}")):
            assign_random_weights(grid_graph(3, 3), rng=1, max_weight=max_weight)

    def test_random_weights_lie_below_max_weight(self):
        assert set(assign_random_weights(grid_graph(3, 3), rng=1, max_weight=2).values()) == {1}

    def test_rejects_unknown_method(self):
        graph = grid_graph(3, 3)
        with pytest.raises(ShortcutError):
            distributed_mst(graph, provider="magic")

    def test_rejects_unknown_construction(self):
        graph = grid_graph(3, 3)
        with pytest.raises(ShortcutError):
            distributed_mst(graph, construction="psychic")


class TestAccounting:
    def test_phase_count_logarithmic(self):
        graph = grid_graph(10, 10)
        weights = assign_random_weights(graph, rng=8)
        result = distributed_mst(graph, weights, rng=9)
        import math

        assert result.phases <= math.ceil(math.log2(graph.number_of_nodes())) + 1

    def test_stats_have_per_phase_breakdown(self):
        graph = grid_graph(6, 6)
        weights = assign_random_weights(graph, rng=1)
        result = distributed_mst(graph, weights, rng=1)
        assert len(result.phase_rounds) == result.phases
        assert sum(result.phase_rounds) == result.stats.rounds

    def test_simulated_construction_charges_rounds(self):
        graph = grid_graph(7, 7)
        weights = assign_random_weights(graph, rng=2)
        fast = distributed_mst(graph, weights, rng=3, construction="centralized")
        full = distributed_mst(graph, weights, rng=3, construction="simulated")
        assert full.edges == fast.edges
        assert full.stats.rounds > fast.stats.rounds

    @pytest.mark.parametrize("construction", ["centralized", "simulated"])
    def test_stats_satisfy_the_counter_identities(self, construction):
        # The fragment-id exchange is charged per directed edge, so the
        # per-round and per-edge histograms sum to the message total.
        graph = grid_graph(12, 12)
        weights = assign_random_weights(graph, rng=3)
        result = distributed_mst(graph, weights, rng=3, construction=construction)
        result.stats.check()
        assert sum(result.stats.edge_messages.values()) == result.stats.messages
