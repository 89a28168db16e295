"""Tests for the geometric / hierarchical / dense generator families."""

import networkx as nx
import pytest

from repro.graphs.generators.geometric import (
    barbell_graph,
    caterpillar_tree,
    hypercube_graph,
    random_geometric_graph,
    spider_tree,
)
from repro.graphs.properties import diameter
from repro.util.errors import GraphStructureError

try:
    import numpy  # noqa: F401
    _HAVE_NUMPY = True
except ImportError:
    _HAVE_NUMPY = False
requires_numpy = pytest.mark.skipif(
    not _HAVE_NUMPY, reason="sampling needs numpy (the vectorized extra)"
)


class TestGeometric:
    @requires_numpy
    def test_connected_and_sized(self):
        graph = random_geometric_graph(80, 0.25, rng=1)
        assert graph.number_of_nodes() == 80
        assert nx.is_connected(graph)

    @requires_numpy
    def test_radius_too_small_raises(self):
        with pytest.raises(GraphStructureError):
            random_geometric_graph(100, 0.001, rng=1, max_tries=3)

    def test_bad_params(self):
        with pytest.raises(GraphStructureError):
            random_geometric_graph(1, 0.3)
        with pytest.raises(GraphStructureError):
            random_geometric_graph(10, 0)


class TestCaterpillar:
    def test_shape(self):
        graph = caterpillar_tree(5, 3)
        assert graph.number_of_nodes() == 5 + 15
        assert nx.is_tree(graph)

    def test_diameter(self):
        # Leaf - spine path - leaf.
        assert diameter(caterpillar_tree(6, 1)) == 5 + 2

    def test_no_legs_is_path(self):
        graph = caterpillar_tree(7, 0)
        assert diameter(graph) == 6

    def test_bad_params(self):
        with pytest.raises(GraphStructureError):
            caterpillar_tree(0, 2)


class TestSpider:
    def test_shape(self):
        graph = spider_tree(4, 5)
        assert graph.number_of_nodes() == 1 + 20
        assert nx.is_tree(graph)
        assert graph.degree(0) == 4

    def test_diameter(self):
        assert diameter(spider_tree(3, 6)) == 12

    def test_bad_params(self):
        with pytest.raises(GraphStructureError):
            spider_tree(0, 3)


class TestBarbell:
    def test_shape(self):
        graph = barbell_graph(5, 8)
        assert graph.number_of_nodes() == 10 + 8
        assert nx.is_connected(graph)
        assert graph.graph["delta_exact"] == 2.0

    def test_diameter_driven_by_path(self):
        assert diameter(barbell_graph(4, 10)) >= 10

    def test_bad_params(self):
        with pytest.raises(GraphStructureError):
            barbell_graph(1, 5)


class TestHypercube:
    def test_shape(self):
        graph = hypercube_graph(4)
        assert graph.number_of_nodes() == 16
        assert all(graph.degree(v) == 4 for v in graph)

    def test_diameter_is_dimension(self):
        assert diameter(hypercube_graph(5)) == 5

    def test_bad_params(self):
        with pytest.raises(GraphStructureError):
            hypercube_graph(0)


class TestFamiliesWorkWithShortcuts:
    """Integration: every new family goes through the adaptive pipeline."""

    @pytest.mark.parametrize(
        "graph",
        [
            caterpillar_tree(10, 2),
            spider_tree(4, 6),
            barbell_graph(5, 10),
            hypercube_graph(5),
        ],
        ids=["caterpillar", "spider", "barbell", "hypercube"],
    )
    def test_adaptive_full_shortcut(self, graph):
        from repro.core.full import build_full_shortcut
        from repro.graphs.partition import voronoi_partition
        from repro.graphs.trees import bfs_tree

        tree = bfs_tree(graph)
        partition = voronoi_partition(graph, min(8, graph.number_of_nodes()), rng=1)
        result = build_full_shortcut(graph, tree, partition, 1.0, escalate_on_stall=True)
        assert result.shortcut.dilation(exact=False) < float("inf")
