#!/usr/bin/env python
"""Theorem 1.5 end to end through the provider registry, phase by phase.

Requests a ``theorem31-simulated`` shortcut — the complete measured CONGEST
pipeline (BFS tree, parameter dissemination, the sampled level-synchronized
sweep), iterated over unsatisfied parts per Observation 2.7 — via one
``ShortcutRequest``, then prints the measured rounds of every phase, the
provenance (iterations / δ escalations), and the quality of the resulting
shortcut. This is the execution whose total the paper bounds by O~(δD).
"""

from repro import ShortcutRequest, build_shortcut
from repro.graphs.generators import k_tree
from repro.graphs.partition import voronoi_partition
from repro.graphs.properties import diameter


def main() -> None:
    graph = k_tree(300, 3, rng=5, locality=0.85)
    partition = voronoi_partition(graph, 45, rng=6)
    measured_diameter = diameter(graph, exact=False)
    print(f"graph: 3-tree, n={graph.number_of_nodes()}, "
          f"m={graph.number_of_edges()}, diameter ~{measured_diameter}")
    print(f"parts: {len(partition)} Voronoi cells; delta = 3 (treewidth bound)\n")

    outcome = build_shortcut(
        ShortcutRequest(
            graph=graph,
            partition=partition,
            provider="theorem31-simulated",
            delta=3.0,
            rng=7,
        )
    )

    print(f"{'phase':<12} | {'rounds':>7} | {'messages':>9}")
    print("-" * 36)
    for name, stats in outcome.stats.phases.items():
        print(f"{name:<12} | {stats.rounds:>7} | {stats.messages:>9}")
    print("-" * 36)
    print(f"{'total':<12} | {outcome.stats.rounds:>7} | {outcome.stats.messages:>9}")

    provenance = outcome.provenance
    print(f"\nprovider: {provenance.provider}, "
          f"iterations: {provenance.iterations}, "
          f"delta escalations: {provenance.escalations}, "
          f"delta used: {provenance.delta_used}")
    quality = outcome.quality(exact=False)
    print(f"shortcut quality: congestion={quality.congestion}, "
          f"dilation={quality.dilation:.0f}, blocks={quality.block_number}")
    print(f"\nall {len(partition)} parts covered; "
          f"measured construction congestion "
          f"{outcome.stats.max_congestion} over {outcome.stats.rounds} rounds.")


if __name__ == "__main__":
    main()
