#!/usr/bin/env python
"""Corollary 1.6: distributed MST — paper shortcuts vs the D+sqrt(n) baseline.

The interesting regime is fixed (small) diameter with growing n, where the
baseline's sqrt(n) congestion term keeps growing while the paper's shortcut
quality stays O~(delta*D). Uniform random 2-trees deliver exactly that:
delta <= 2 by construction and the diameter grows only logarithmically, so
as n grows Boruvka-over-shortcuts pulls ahead of Boruvka-over-baseline —
the crossover Corollary 1.6 predicts. Both arms must produce the identical
(unique) MST, cross-checked against Kruskal.
"""

import networkx as nx

from repro.apps.mst import assign_random_weights, distributed_mst
from repro.graphs.adjacency import canonical_edge
from repro.graphs.generators import k_tree
from repro.graphs.properties import diameter


def main() -> None:
    print(f"{'n':>6} {'D':>4} | {'shortcut rounds':>16} | {'baseline rounds':>16} | match")
    print("-" * 60)
    for n in (64, 128, 256, 512, 1024):
        graph = k_tree(n, 2, rng=5, locality=0.0)
        measured_diameter = diameter(graph, exact=False)
        weights = assign_random_weights(graph, rng=6)
        ours = distributed_mst(graph, weights, rng=7)
        base = distributed_mst(graph, weights, provider="baseline", rng=7)
        for u, v in graph.edges():
            graph.edges[u, v]["weight"] = weights[canonical_edge(u, v)]
        reference = frozenset(
            canonical_edge(u, v)
            for u, v in nx.minimum_spanning_tree(graph, weight="weight").edges()
        )
        match = ours.edges == base.edges == reference
        print(
            f"{n:>6} {measured_diameter:>4} | {ours.stats.rounds:>16} | "
            f"{base.stats.rounds:>16} | {match}"
        )
    print("\nfixed-diameter family (2-trees, delta <= 2): as n grows the")
    print("baseline's sqrt(n) congestion term grows while the shortcut arm")
    print("stays O~(delta * D) — who wins matches Corollary 1.6.")


if __name__ == "__main__":
    main()
