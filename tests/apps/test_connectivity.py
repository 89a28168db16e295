"""Tests for distributed subgraph connectivity."""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.connectivity import subgraph_components
from repro.graphs.adjacency import canonical_edge
from repro.graphs.generators import grid_graph, wheel_graph
from repro.util.errors import GraphStructureError, ShortcutError

from tests.conftest import connected_graphs


def _reference_labels(graph, edges):
    subgraph = nx.Graph()
    subgraph.add_nodes_from(graph.nodes())
    subgraph.add_edges_from(edges)
    labels = {}
    for component in nx.connected_components(subgraph):
        canonical = min(component)
        for node in component:
            labels[node] = canonical
    return labels


class TestCorrectness:
    def test_empty_subgraph_all_singletons(self, small_grid):
        result = subgraph_components(small_grid, set(), rng=1)
        assert result.num_components == small_grid.number_of_nodes()
        assert result.phases == 0

    def test_full_subgraph_one_component(self, small_grid):
        edges = {canonical_edge(u, v) for u, v in small_grid.edges()}
        result = subgraph_components(small_grid, edges, rng=1)
        assert result.num_components == 1
        assert set(result.labels.values()) == {0}

    def test_grid_rows_as_subgraph(self):
        graph = grid_graph(6, 4)
        row_edges = {
            canonical_edge(u, v)
            for u, v in graph.edges()
            if u // 6 == v // 6  # horizontal edges only
        }
        result = subgraph_components(graph, row_edges, rng=2)
        assert result.num_components == 4
        assert result.labels == _reference_labels(graph, row_edges)

    def test_wheel_rim_arc(self):
        # H = the rim minus one edge: one long arc + the isolated hub.
        graph = wheel_graph(30)
        rim_edges = {
            canonical_edge(u, v)
            for u, v in graph.edges()
            if u != 0 and v != 0
        }
        rim_edges.discard(canonical_edge(1, 29))
        result = subgraph_components(graph, rim_edges, rng=3)
        assert result.labels == _reference_labels(graph, rim_edges)
        assert result.num_components == 2  # the arc + the hub

    def test_baseline_method_agrees(self):
        graph = grid_graph(5, 5)
        edges = {canonical_edge(u, v) for u, v in list(graph.edges())[::2]}
        ours = subgraph_components(graph, edges, rng=4)
        base = subgraph_components(graph, edges, provider="baseline", rng=4)
        assert ours.labels == base.labels

    @given(
        connected_graphs(min_nodes=3, max_nodes=25),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=15, deadline=None)
    def test_matches_networkx_property(self, graph, seed):
        import random

        rng = random.Random(seed)
        edges = {
            canonical_edge(u, v) for u, v in graph.edges() if rng.random() < 0.5
        }
        result = subgraph_components(graph, edges, rng=seed)
        assert result.labels == _reference_labels(graph, edges)


class TestValidation:
    def test_foreign_edge_rejected(self, small_grid):
        with pytest.raises(GraphStructureError):
            subgraph_components(small_grid, {(0, 35)})

    def test_unknown_method_rejected(self, small_grid):
        with pytest.raises(ShortcutError):
            subgraph_components(small_grid, set(), provider="magic")

    def test_phase_count_logarithmic(self):
        graph = grid_graph(8, 8)
        edges = {canonical_edge(u, v) for u, v in graph.edges()}
        result = subgraph_components(graph, edges, rng=5)
        import math

        assert result.phases <= math.ceil(math.log2(graph.number_of_nodes())) + 1


class TestAccounting:
    def test_stats_satisfy_the_counter_identities(self):
        # The label exchange is charged per directed H-edge, so the
        # per-round and per-edge histograms sum to the message total.
        graph = grid_graph(8, 8)
        edges = {canonical_edge(u, v) for u, v in graph.edges() if u % 3}
        result = subgraph_components(graph, edges, rng=5)
        result.stats.check()
        assert sum(result.stats.messages_by_round.values()) == result.stats.messages
