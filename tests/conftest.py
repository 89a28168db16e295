"""Shared fixtures and hypothesis strategies.

The strategies produce small random connected graphs and random valid
partitions of them — the raw material for property-based tests of the
shortcut constructions' invariants.
"""

from __future__ import annotations

import random

import networkx as nx
import pytest
from hypothesis import strategies as st

from repro.graphs.generators import grid_graph, k_tree, series_parallel_graph, wheel_graph
from repro.graphs.partition import forest_cut_partition, voronoi_partition

SEEDS = st.integers(0, 2**16)

# Small members (at most 40 nodes) of the registered generator families:
# planar grids and wheels, bounded-treewidth k-trees, and K_4-minor-free
# series-parallel graphs.
GENERATED_GRAPHS = st.one_of(
    st.builds(grid_graph, st.integers(2, 6), st.integers(2, 6)),
    st.builds(wheel_graph, st.integers(4, 40)),
    st.integers(1, 3).flatmap(
        lambda k: st.builds(
            k_tree, st.integers(k + 1, 40), st.just(k), rng=SEEDS,
            locality=st.sampled_from([0.0, 0.5, 1.0]),
        )
    ),
    st.builds(series_parallel_graph, st.integers(2, 40), rng=SEEDS),
)


@st.composite
def connected_graphs(draw, min_nodes: int = 2, max_nodes: int = 40):
    """A small random connected graph with integer labels 0..n-1.

    Built as a random spanning tree plus a random set of extra edges, so
    connectivity holds by construction and densities vary.
    """
    n = draw(st.integers(min_value=min_nodes, max_value=max_nodes))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = random.Random(seed)
    graph = nx.Graph()
    graph.add_node(0)
    for node in range(1, n):
        graph.add_edge(node, rng.randrange(node))
    extra = draw(st.integers(min_value=0, max_value=2 * n))
    for _ in range(extra):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            graph.add_edge(u, v)
    return graph


@st.composite
def graphs_with_partitions(draw, min_nodes: int = 2, max_nodes: int = 40):
    """A connected graph together with a random valid partition."""
    graph = draw(connected_graphs(min_nodes=min_nodes, max_nodes=max_nodes))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = random.Random(seed)
    n = graph.number_of_nodes()
    num_parts = draw(st.integers(min_value=1, max_value=n))
    style = draw(st.sampled_from(["voronoi", "forest"]))
    if style == "voronoi":
        partition = voronoi_partition(graph, num_parts, rng=rng)
    else:
        partition = forest_cut_partition(graph, num_parts, rng=rng)
    return graph, partition


@pytest.fixture
def small_grid():
    """A 6x6 grid for deterministic unit tests."""
    from repro.graphs.generators import grid_graph

    return grid_graph(6, 6)


@pytest.fixture
def rng():
    """A seeded RNG fixture."""
    return random.Random(12345)
