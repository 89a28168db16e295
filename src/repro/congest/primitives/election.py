"""Distributed leader election by extremum flooding.

The Theorem 1.5 pipeline needs *some* root for its BFS tree; the paper
(like most CONGEST literature) assumes one exists. This primitive removes
the assumption: every node floods the smallest id it has heard; after the
flood quiesces — which takes eccentricity-many rounds — every node knows
the global minimum, the unique leader. Termination detection uses the
standard trick of flooding ``(candidate, hops_since_improvement)`` and
stopping a node's re-broadcasts once its candidate is stable; the network's
quiescence detector ends the run.

Round complexity Θ(D); message complexity O(D·m) worst case (each
improvement wave re-floods) — the textbook flood-max cost.
"""

from __future__ import annotations

import random

import networkx as nx

from repro.congest.network import SyncNetwork
from repro.congest.node import NodeAlgorithm
from repro.congest.stats import RoundStats
from repro.util.errors import GraphStructureError

__all__ = ["elect_leader", "ElectionNode"]


class ElectionNode(NodeAlgorithm):
    """Min-id flooding node."""

    def __init__(self, node: int):
        self.node = node
        self.candidate = node
        self.dirty = True  # candidate changed and not yet announced

    def _announce(self, ctx):
        if not self.dirty:
            return {}
        self.dirty = False
        return {neighbor: self.candidate for neighbor in ctx.neighbors}

    def on_start(self, ctx):
        return self._announce(ctx)

    def on_round(self, ctx, inbox):
        for payload in inbox.values():
            if payload < self.candidate:
                self.candidate = payload
                self.dirty = True
        return self._announce(ctx)

    def result(self):
        return self.candidate


def elect_leader(
    graph: nx.Graph,
    rng: int | random.Random | None = None,
    scheduler: str = "event",
    latency_model: object = None,
) -> tuple[int, RoundStats]:
    """Elect the minimum-id node as leader; every node learns its id.

    Returns:
        ``(leader, stats)`` with ``stats.rounds ≈ eccentricity(leader)``.

    Raises:
        GraphStructureError: if the flood does not reach every node
            (disconnected graph).
    """
    if graph.number_of_nodes() == 0:
        raise GraphStructureError("cannot elect a leader on an empty graph")
    network = SyncNetwork(
        graph, rng=rng, scheduler=scheduler,
        latency_model=latency_model,
    )
    algorithms = {v: ElectionNode(v) for v in graph.nodes()}
    results, stats = network.run(algorithms)
    leader = min(graph.nodes())
    wrong = [v for v, candidate in results.items() if candidate != leader]
    if wrong:
        raise GraphStructureError(
            f"election did not converge: {len(wrong)} nodes disagree "
            "(is the graph disconnected?)"
        )
    return leader, stats
