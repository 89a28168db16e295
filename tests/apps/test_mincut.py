"""Tests for the distributed min-cut (Corollary 1.7)."""

from collections import Counter

import networkx as nx
import pytest

from repro.apps.connectivity import subgraph_components
from repro.apps.mincut import (
    degree_bound_from_density,
    distributed_mincut,
)
from repro.apps.mst import assign_random_weights, distributed_mst
from repro.graphs.generators import (
    cycle_graph,
    grid_graph,
    k_tree,
    planar_with_handles,
)
from repro.util.errors import GraphStructureError


def _true_mincut(graph):
    return nx.stoer_wagner(graph, weight=None)[0]


def _cut_value(graph, side):
    return sum(1 for u, v in graph.edges() if (u in side) != (v in side))


class TestCorrectness:
    def test_cycle_min_cut_is_two(self):
        graph = cycle_graph(12)
        result = distributed_mincut(graph, rng=1, num_trees=4)
        assert result.value == 2

    def test_grid_exact(self):
        graph = grid_graph(7, 7)
        result = distributed_mincut(graph, rng=2, num_trees=6)
        assert result.value == _true_mincut(graph)

    def test_k_tree_exact(self):
        graph = k_tree(40, 3, rng=3)
        result = distributed_mincut(graph, rng=4, num_trees=8)
        assert result.value == _true_mincut(graph)

    def test_returned_side_realizes_value(self):
        graph = grid_graph(6, 6)
        result = distributed_mincut(graph, rng=5, num_trees=6)
        assert 0 < len(result.side) < graph.number_of_nodes()
        assert _cut_value(graph, result.side) == result.value

    def test_value_never_below_true_cut(self):
        # Any returned cut is a real cut: value >= lambda always, even with
        # a packing far too small.
        graph = planar_with_handles(8, 8, 6, rng=6)
        result = distributed_mincut(graph, rng=7, num_trees=2)
        assert result.value >= _true_mincut(graph)
        assert _cut_value(graph, result.side) == result.value

    def test_one_respecting_only_still_valid(self):
        graph = grid_graph(6, 6)
        result = distributed_mincut(graph, rng=8, num_trees=6, two_respecting=False)
        assert not result.used_two_respecting
        assert result.value >= _true_mincut(graph)
        assert _cut_value(graph, result.side) == result.value


class TestPaperObservation:
    def test_min_cut_at_most_2delta(self):
        # Paper: density <= delta => min degree <= 2 delta >= min cut.
        for graph in (grid_graph(8, 8), k_tree(50, 4, rng=1)):
            delta = graph.graph["delta_upper"]
            assert _true_mincut(graph) <= degree_bound_from_density(delta)


class TestValidation:
    def test_rejects_disconnected(self):
        with pytest.raises(GraphStructureError):
            distributed_mincut(nx.Graph([(0, 1), (2, 3)]))

    def test_rejects_tiny(self):
        graph = nx.Graph()
        graph.add_node(0)
        with pytest.raises(GraphStructureError):
            distributed_mincut(graph)

    def test_stats_accumulate_tree_phases(self):
        graph = grid_graph(5, 5)
        result = distributed_mincut(graph, rng=9, num_trees=3)
        tree_phases = [k for k in result.stats.phases if k.startswith("tree_")]
        assert len(tree_phases) == 3
        assert result.stats.rounds > 0


class TestAccounting:
    @pytest.mark.parametrize("graph", [grid_graph(5, 5), k_tree(30, 3, rng=2)])
    def test_stats_identities_hold(self, graph):
        result = distributed_mincut(graph, rng=3, num_trees=3)
        result.stats.check()

    def test_evaluation_pass_charges_each_tree_edge_once(self):
        graph = grid_graph(5, 5)
        result = distributed_mincut(graph, rng=9, num_trees=3)
        n = graph.number_of_nodes()
        for index in range(3):
            assert result.stats.phases[f"eval_{index}"].messages == n - 1

    @pytest.mark.parametrize("app", ["mincut", "mst", "connectivity"])
    def test_phases_sum_to_totals(self, app):
        graph = grid_graph(5, 5)
        if app == "mincut":
            stats = distributed_mincut(graph, rng=1).stats
        elif app == "mst":
            stats = distributed_mst(
                graph, assign_random_weights(graph, rng=1), rng=1
            ).stats
        else:
            edges = {edge for edge in graph.edges() if sum(edge) % 3}
            stats = subgraph_components(graph, edges, rng=1).stats
        phases = list(stats.phases.values())
        assert phases
        for counter in ("rounds", "messages", "message_bits"):
            assert sum(getattr(p, counter) for p in phases) == getattr(stats, counter)
        for histogram in ("messages_by_round", "edge_messages"):
            summed = sum((Counter(getattr(p, histogram)) for p in phases), Counter())
            assert summed == Counter(getattr(stats, histogram))
