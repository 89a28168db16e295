"""Tests for repro.graphs.adjacency."""

import networkx as nx
import pytest

from repro.graphs.adjacency import (
    canonical_edge,
    edge_weights,
    graph_memo,
    induces_connected_subgraph,
    normalize_graph,
    require_connected,
    require_nodes_exist,
)
from repro.util.errors import GraphStructureError


class TestNormalizeGraph:
    def test_relabels_to_range(self):
        graph = nx.Graph([("b", "c"), ("a", "b")])
        normalized = normalize_graph(graph)
        assert set(normalized.nodes()) == {0, 1, 2}
        # Sorted labels: a->0, b->1, c->2.
        assert normalized.has_edge(0, 1)
        assert normalized.has_edge(1, 2)

    def test_preserves_graph_attrs(self):
        graph = nx.Graph([(0, 1)])
        graph.graph["family"] = "test"
        assert normalize_graph(graph).graph["family"] == "test"

    def test_rejects_directed(self):
        with pytest.raises(GraphStructureError):
            normalize_graph(nx.DiGraph([(0, 1)]))

    def test_rejects_self_loops(self):
        graph = nx.Graph()
        graph.add_edge(0, 0)
        with pytest.raises(GraphStructureError):
            normalize_graph(graph)

    def test_unsortable_labels_fall_back_to_insertion_order(self):
        graph = nx.Graph([((1, 2), "x")])
        normalized = normalize_graph(graph)
        assert set(normalized.nodes()) == {0, 1}


class TestCanonicalEdge:
    def test_orders_endpoints(self):
        assert canonical_edge(5, 2) == (2, 5)
        assert canonical_edge(2, 5) == (2, 5)


class TestRequire:
    def test_connected_ok(self):
        require_connected(nx.path_graph(3))

    def test_connected_rejects_disconnected(self):
        with pytest.raises(GraphStructureError):
            require_connected(nx.Graph([(0, 1), (2, 3)]))

    def test_connected_rejects_empty(self):
        with pytest.raises(GraphStructureError):
            require_connected(nx.Graph())

    def test_nodes_exist_ok(self):
        require_nodes_exist(nx.path_graph(3), [0, 2])

    def test_nodes_exist_rejects_missing(self):
        with pytest.raises(GraphStructureError):
            require_nodes_exist(nx.path_graph(3), [0, 9])


class TestInducesConnected:
    def test_connected_subset(self):
        graph = nx.path_graph(5)
        assert induces_connected_subgraph(graph, {1, 2, 3})

    def test_disconnected_subset(self):
        graph = nx.path_graph(5)
        assert not induces_connected_subgraph(graph, {0, 4})

    def test_empty_subset(self):
        assert not induces_connected_subgraph(nx.path_graph(3), set())

    def test_singleton(self):
        assert induces_connected_subgraph(nx.path_graph(3), {1})


class TestEdgeWeights:
    def test_result_is_a_copy_of_the_checked_edges(self):
        weights = {(0, 1): 4, (1, 2): 5, (7, 8): 6}
        checked = edge_weights([(1, 0), (1, 2)], weights)
        assert checked == {(0, 1): 4, (1, 2): 5}
        del weights[(0, 1)]
        assert checked[(0, 1)] == 4


class TestGraphMemo:
    """The one memo rule: values live in the graph's networkx cache, which
    every structural mutation clears; frozen graphs are never cached."""

    @staticmethod
    def _counting_build(calls):
        def build():
            calls.append(None)
            return object()

        return build

    def test_hit_is_identity(self):
        graph = nx.path_graph(4)
        calls = []
        first = graph_memo(graph, "test.memo", self._counting_build(calls))
        assert graph_memo(graph, "test.memo", self._counting_build(calls)) is first
        assert len(calls) == 1

    def test_edge_swap_with_same_counts_rebuilds(self):
        graph = nx.path_graph(5)
        calls = []
        first = graph_memo(graph, "test.memo", self._counting_build(calls))
        graph.remove_edge(3, 4)
        graph.add_edge(0, 2)
        assert graph_memo(graph, "test.memo", self._counting_build(calls)) is not first
        assert len(calls) == 2

    def test_view_is_never_cached(self):
        graph = nx.path_graph(5)
        view = graph.subgraph(range(4))
        calls = []
        first = graph_memo(view, "test.memo", self._counting_build(calls))
        assert graph_memo(view, "test.memo", self._counting_build(calls)) is not first
        assert len(calls) == 2
        assert "test.memo" not in view.__networkx_cache__
