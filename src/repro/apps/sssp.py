"""Shortest paths in CONGEST: BFS and Bellman–Ford (the SSSP demonstration).

The paper cites [HL18] for (1+ε)-approximate SSSP on top of shortcuts; that
algorithm's hopset machinery is out of scope here (the faithfulness notes
of ``docs/architecture.md`` record the substitution). This module provides the two primitives the corollary's
plumbing rests on, both running in the simulator with measured rounds:

* :func:`distributed_bfs_sssp` — unweighted SSSP (= BFS), ``O(D)`` rounds;
* :func:`bellman_ford_sssp` — weighted SSSP via synchronous Bellman–Ford.
  Exact when run to quiescence (rounds = hop radius of the shortest-path
  tree); with ``max_hops = h`` it returns the exact distance over paths of
  at most ``h`` hops, the standard building block of rounding-based
  (1+ε) schemes.
"""

from __future__ import annotations

import random

import networkx as nx

from repro.congest.engine import require_int
from repro.congest.network import SyncNetwork
from repro.congest.node import NodeAlgorithm
from repro.congest.stats import RoundStats
from repro.graphs.adjacency import canonical_edge, edge_weights
from repro.util.errors import GraphStructureError

__all__ = ["distributed_bfs_sssp", "bellman_ford_sssp", "sssp_job"]

Edge = tuple[int, int]


def distributed_bfs_sssp(
    graph: nx.Graph,
    source: int,
    rng: int | random.Random | None = None,
    scheduler: str = "event",
    latency_model: object = None,
) -> tuple[dict[int, int], RoundStats]:
    """Unweighted SSSP = distributed BFS; returns hop distances and stats."""
    from repro.congest.primitives.bfs import distributed_bfs

    tree, stats = distributed_bfs(
        graph, source, rng=rng, scheduler=scheduler,
        latency_model=latency_model,
    )
    return {v: tree.depth_of(v) for v in graph.nodes()}, stats


def _check_max_hops(max_hops) -> None:
    if max_hops is not None:
        require_int("max_hops", max_hops, minimum=0, error=GraphStructureError)


class _BellmanFordNode(NodeAlgorithm):
    def __init__(self, node: int, is_source: bool, weights: dict[Edge, int], max_hops: int | None):
        self.node = node
        self.distance: int | None = 0 if is_source else None
        self.weights = weights
        self.max_hops = max_hops
        self.improved = is_source

    def _announce(self, ctx):
        if not self.improved:
            return {}
        self.improved = False
        return {
            neighbor: self.distance + 0  # plain int payload
            for neighbor in ctx.neighbors
        }

    def on_start(self, ctx):
        return self._announce(ctx)

    def on_round(self, ctx, inbox):
        # In synchronous Bellman–Ford, round r relaxes exactly the ≤ r-hop
        # paths, so "h hops" and "h lockstep rounds" are the same quantity —
        # this is the definition of the hop budget, not a wall-clock
        # protocol. An ack-driven reformulation would need per-node
        # (distance, hops) Pareto frontiers to stay exact; see
        # bellman_ford_sssp's max_hops docs for the limitation.
        if self.max_hops is not None and ctx.round > self.max_hops:  # repro: allow[PROTO-ROUND] max_hops is defined as a lockstep-round horizon (rounds = hops in synchronous Bellman–Ford); see comment above
            return {}
        for sender, payload in inbox.items():
            weight = self.weights[canonical_edge(self.node, sender)]
            candidate = payload + weight
            if self.distance is None or candidate < self.distance:
                self.distance = candidate
                self.improved = True
        return self._announce(ctx)

    def result(self):
        return self.distance


def bellman_ford_sssp(
    graph: nx.Graph,
    source: int,
    weights: dict[Edge, int] | None = None,
    max_hops: int | None = None,
    rng: int | random.Random | None = None,
    scheduler: str = "event",
    latency_model: object = None,
) -> tuple[dict[int, int | None], RoundStats]:
    """Synchronous Bellman–Ford from ``source``.

    Args:
        graph: connected graph.
        weights: nonnegative integer weights keyed by
            :func:`~repro.graphs.adjacency.canonical_edge`, one for every
            graph edge (default all 1).
        max_hops: ``None`` or an int >= 0; if set, restrict relaxations
            to ``max_hops`` rounds — distances become exact over
            ≤ ``max_hops``-hop paths. The budget is *defined* in lockstep
            rounds (synchronous Bellman–Ford relaxes exactly the ≤ r-hop
            paths by round r), which is why the node legitimately reads
            ``ctx.round`` — the one suppressed ``PROTO-ROUND`` site in the
            library. Exact under lockstep transit; under a non-uniform
            latency model the cutoff is in virtual time, bounding hops
            only loosely.

    Returns:
        ``(distances, stats)``; unreachable-within-budget nodes map to None.

    Raises:
        GraphStructureError: on negative or non-integer weights, a graph
            edge without a weight, an unknown source, or a ``max_hops``
            that is neither ``None`` nor an int >= 0.
    """
    _check_max_hops(max_hops)
    if source not in graph:
        raise GraphStructureError(f"source {source} is not in the graph")
    weights = edge_weights(graph.edges(), weights, nonnegative=True)
    network = SyncNetwork(
        graph, rng=rng, scheduler=scheduler,
        latency_model=latency_model,
    )
    algorithms = {
        v: _BellmanFordNode(v, v == source, weights, max_hops) for v in graph.nodes()
    }
    results, stats = network.run(algorithms)
    return results, stats


def sssp_job(
    graph: nx.Graph,
    source: int,
    weights: dict[Edge, int] | None = None,
    max_hops: int | None = None,
    rng: int | random.Random | None = None,
    nodes=None,
    job_id: str | None = None,
    on_complete=None,
):
    """A Bellman–Ford SSSP query as a multiplexable population job.

    Returns a :class:`~repro.congest.jobs.Job` ready for
    :meth:`repro.serve.JobServer.submit` /
    :meth:`~repro.congest.jobs.JobScheduler.run`. Unlike the call-job
    wrappers of the multi-phase apps, this is a *true* population job:
    its node algorithms run on the shared fabric, message by message,
    under the per-edge bandwidth arbiter — running it solo reproduces
    :func:`bellman_ford_sssp` byte for byte.

    Args:
        nodes: optional node subset — the query then runs on the induced
            subgraph of that region (the source must be in it). Scoped
            regions are how concurrent tenants share a graph without
            contending: disjoint regions touch disjoint edges.
        weights: as in :func:`bellman_ford_sssp`, but only the edges among
            the population need one; a missing one raises
            :class:`~repro.util.errors.GraphStructureError` here, before
            the job is submitted.

    Other arguments as in :func:`bellman_ford_sssp`; the outcome's
    ``results`` maps each population node to its distance (``None`` if
    unreachable within the budget).

    Raises:
        GraphStructureError: as :func:`bellman_ford_sssp`, when
            ``nodes`` names a node that is not in the graph, and when the
            source is outside the population — all before the job exists.
    """
    _check_max_hops(max_hops)
    population = tuple(graph.nodes()) if nodes is None else tuple(nodes)
    unknown = [v for v in population if v not in graph]
    if unknown:
        raise GraphStructureError(
            f"job population includes non-graph nodes {unknown[:5]}"
        )
    if source not in population:
        raise GraphStructureError(f"source {source} is not in the job population")
    members = set(population)
    edges = [(u, v) for u, v in graph.edges(population) if v in members]
    weights = edge_weights(edges, weights, nonnegative=True)
    from repro.congest.jobs import Job

    return Job(
        job_id if job_id is not None else f"sssp-{source}",
        {v: _BellmanFordNode(v, v == source, weights, max_hops) for v in population},
        rng=rng,
        on_complete=on_complete,
    )

