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

from repro.congest.network import SyncNetwork
from repro.congest.node import NodeAlgorithm
from repro.congest.stats import RoundStats
from repro.graphs.adjacency import canonical_edge
from repro.util.errors import GraphStructureError

__all__ = ["distributed_bfs_sssp", "bellman_ford_sssp", "approx_sssp", "sssp_job"]

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
        weights: nonnegative integer weights (default 1).
        max_hops: if set, restrict relaxations to ``max_hops`` rounds —
            distances become exact over ≤ ``max_hops``-hop paths. The
            budget is *defined* in lockstep rounds (synchronous
            Bellman–Ford relaxes exactly the ≤ r-hop paths by round r),
            which is why the node legitimately reads ``ctx.round`` — the
            one suppressed ``PROTO-ROUND`` site in the library. Exact
            under lockstep transit; under a non-uniform latency model the
            cutoff is in virtual time, bounding hops only loosely.

    Returns:
        ``(distances, stats)``; unreachable-within-budget nodes map to None.

    Raises:
        GraphStructureError: on negative or non-integer weights, or an
            unknown source.
    """
    if source not in graph:
        raise GraphStructureError(f"source {source} is not in the graph")
    if weights is None:
        weights = {canonical_edge(u, v): 1 for u, v in graph.edges()}
    for edge, weight in weights.items():
        if not isinstance(weight, int) or weight < 0:
            raise GraphStructureError(
                f"weights must be nonnegative integers; {edge} has {weight!r}"
            )
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

    Other arguments as in :func:`bellman_ford_sssp`; the outcome's
    ``results`` maps each population node to its distance (``None`` if
    unreachable within the budget).
    """
    population = tuple(graph.nodes()) if nodes is None else tuple(nodes)
    if source not in population:
        raise GraphStructureError(f"source {source} is not in the job population")
    if weights is None:
        weights = {canonical_edge(u, v): 1 for u, v in graph.edges()}
    for edge, weight in weights.items():
        if not isinstance(weight, int) or weight < 0:
            raise GraphStructureError(
                f"weights must be nonnegative integers; {edge} has {weight!r}"
            )
    from repro.congest.jobs import Job

    return Job(
        job_id if job_id is not None else f"sssp-{source}",
        {v: _BellmanFordNode(v, v == source, weights, max_hops) for v in population},
        rng=rng,
        on_complete=on_complete,
    )


def approx_sssp(
    graph: nx.Graph,
    source: int,
    weights: dict[Edge, int],
    epsilon: float,
    hop_bound: int,
    rng: int | random.Random | None = None,
    scheduler: str = "event",
    latency_model: object = None,
) -> tuple[dict[int, int | None], RoundStats]:
    """(1+ε)-approximate SSSP for paths of at most ``hop_bound`` hops.

    The classic weight-rounding reduction: round each weight up to the next
    multiple of ``μ = ε·w_min / hop_bound`` (where ``w_min`` is the smallest
    positive weight), then run Bellman–Ford for ``hop_bound`` rounds on the
    *rescaled integer* weights ``⌈w/μ⌉``. Rounding adds at most ``μ`` per
    hop, i.e. at most ``hop_bound·μ = ε·w_min ≤ ε·dist(v)`` in total for any
    node at ≥ 1 hop, giving

        dist(v) ≤ result(v) ≤ (1 + ε)·dist_h(v),

    where ``dist_h`` is the shortest distance over ≤ ``hop_bound``-hop paths.
    The benefit over exact Bellman–Ford is that the rescaled weights fit in
    ``O(log(hop_bound/ε))`` bits — the message-size reduction that
    hopset-based algorithms like [HL18] build on (the full [HL18] machinery
    is out of scope; see the faithfulness notes in ``docs/architecture.md``).

    Returns:
        ``(distances, stats)``: upscaled approximate distances in the
        original weight units, within one unit of the guarantee interval
        due to the final integer truncation (``None`` where no
        ≤ hop_bound-hop path exists).

    Raises:
        GraphStructureError: on invalid ε, hop bound, or weights.
    """
    if not 0 < epsilon <= 1:
        raise GraphStructureError(f"epsilon must be in (0, 1], got {epsilon}")
    if hop_bound < 1:
        raise GraphStructureError(f"hop_bound must be >= 1, got {hop_bound}")
    positive = [w for w in weights.values() if w > 0]
    if not positive:
        raise GraphStructureError("approx_sssp needs at least one positive weight")
    w_min = min(positive)
    # mu chosen so that hop_bound roundings cost at most epsilon * w_min.
    mu = max(1e-12, epsilon * w_min / hop_bound)
    rescaled = {
        edge: -(-weight // mu) if weight > 0 else 0  # ceil(w / mu) as int
        for edge, weight in weights.items()
    }
    rescaled = {edge: int(value) for edge, value in rescaled.items()}
    distances, stats = bellman_ford_sssp(
        graph, source, rescaled, max_hops=hop_bound, rng=rng, scheduler=scheduler,
        latency_model=latency_model,
    )
    upscaled = {
        v: (None if d is None else int(d * mu) if v != source else 0)
        for v, d in distances.items()
    }
    return upscaled, stats
