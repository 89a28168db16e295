"""E1 — Theorem 3.1: partial shortcuts meet their budgets on every family.

Paper claim: every graph with minor density δ and a depth-D tree admits a
tree-restricted partial shortcut with congestion ≤ 8δD, block number ≤ 8δ
(+1 for the root component), satisfying at least half the parts.

Measured here on grids, Delaunay triangulations, k-trees, and expanded
cliques at their analytic δ, with Voronoi parts.
"""

import math

from benchmarks.common import fmt, report
from repro.core.partial import build_partial_shortcut
from repro.graphs.generators import (
    delaunay_graph,
    expanded_clique,
    grid_graph,
    k_tree,
)
from repro.graphs.minors import analytic_delta_upper
from repro.graphs.partition import voronoi_partition
from repro.graphs.trees import bfs_tree


def _instances():
    yield "grid 16x16", grid_graph(16, 16), 40
    yield "delaunay n=250", delaunay_graph(250, rng=3), 40
    yield "k-tree k=3", k_tree(250, 3, rng=4, locality=0.8), 40
    yield "exp-clique r=8", expanded_clique(8, 14), 24


def _run():
    rows = []
    for name, graph, num_parts in _instances():
        delta = analytic_delta_upper(graph)
        tree = bfs_tree(graph)
        partition = voronoi_partition(graph, num_parts, rng=11)
        result = build_partial_shortcut(graph, tree, partition, delta)
        shortcut = result.shortcut()
        quality = shortcut.quality(exact=False)
        rows.append(
            [
                name,
                fmt(delta, 1),
                tree.max_depth,
                f"{len(result.satisfied)}/{num_parts}",
                quality.congestion,
                result.congestion_budget,
                quality.block_number,
                math.ceil(8 * delta) + 1,
                fmt(quality.dilation, 0),
            ]
        )
        # Shape assertions: the theorem's guarantees.
        assert result.succeeded, f"{name}: fewer than half the parts satisfied"
        assert quality.congestion < result.congestion_budget
        assert quality.block_number <= math.ceil(8 * delta) + 1
    return rows


def test_e01_partial_quality(benchmark):
    rows = _run()
    report(
        "e01_partial_quality",
        "Theorem 3.1 partial shortcuts vs budgets",
        ["family", "delta", "D", "satisfied", "congestion", "c=8dD", "blocks", "8d+1", "dilation"],
        rows,
    )
    graph = grid_graph(16, 16)
    tree = bfs_tree(graph)
    partition = voronoi_partition(graph, 40, rng=11)
    benchmark(lambda: build_partial_shortcut(graph, tree, partition, 3.0))
