"""Distributed subgraph connectivity via shortcut-accelerated label merging.

One of the applications the paper lists alongside MST: given a subgraph
``H ⊆ G`` (each node knows which of its incident edges are in ``H``),
compute the connected components of ``H`` — in rounds governed by *G*'s
diameter, not H's (components of ``H`` can have huge diameter, the wheel
problem again).

Algorithm (Boruvka-style label hooking, [GH16b]):

1. every node starts with its own id as component label;
2. each phase: current label classes are the *parts* (connected in H ⊆ G);
   build a shortcut for them; every part aggregates the minimum neighboring
   label over H-edges leaving the part; parts hook onto that minimum;
3. O(log n) phases merge everything; round cost per phase = one part-wise
   aggregation = O~(shortcut quality).

The H-components are exactly the final label classes, cross-checked against
networkx in the tests.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import networkx as nx

from repro.congest.network import validate_scheduler
from repro.congest.stats import RoundStats
from repro.core.providers import ShortcutRequest, build_shortcut, provider_name, resolve_tree
from repro.graphs.adjacency import canonical_edge
from repro.graphs.partition import Partition
from repro.sched.partwise import partwise_aggregate
from repro.util.errors import GraphStructureError, ShortcutError
from repro.util.rng import ensure_rng

__all__ = ["ConnectivityResult", "subgraph_components", "connectivity_job"]

Edge = tuple[int, int]


@dataclass
class ConnectivityResult:
    """Connected components of the subgraph, with round accounting.

    Attributes:
        labels: per node, the component label (the minimum node id of its
            H-component — a canonical choice every node can verify).
        num_components: number of H-components.
        phases: label-merging phases executed.
        stats: accumulated measured rounds.
    """

    labels: dict[int, int]
    num_components: int
    phases: int
    stats: RoundStats = field(default_factory=RoundStats)


def subgraph_components(
    graph: nx.Graph,
    subgraph_edges: set[Edge],
    shortcut_method: str = "theorem31",
    construction: str = "centralized",
    delta: float | None = None,
    rng: int | random.Random | None = None,
    scheduler: str = "event",
    provider: str | None = None,
    latency_model: object = None,
) -> ConnectivityResult:
    """Connected components of ``(V, subgraph_edges)`` in the CONGEST model.

    Args:
        graph: the communication graph ``G``.
        subgraph_edges: edges of ``H`` (must all be edges of ``G``).
        shortcut_method: ``"theorem31"`` or ``"baseline"``.
        construction: ``"centralized"`` (per-phase shortcuts planned for
            free) or ``"simulated"`` (each phase's shortcut is built by the
            measured Theorem 1.5 distributed pipeline).
        delta: minor-density parameter for the shortcut construction.
        scheduler: simulator scheduler for the simulated construction
            (``"event"``, ``"dense"``, or ``"vectorized"``; see
            :mod:`repro.congest`).
        provider: explicit shortcut-provider name (see
            :func:`repro.core.providers.available_providers`); overrides
            ``shortcut_method``/``construction``.
        latency_model: per-edge latency model for the event scheduler
            (``None`` = uniform/lockstep-equivalent).

    Raises:
        GraphStructureError: if some subgraph edge is not a ``G`` edge.
        ShortcutError: unknown provider/method/construction.
    """
    provider_name(shortcut_method, construction, provider)  # fail fast, uniformly
    validate_scheduler(
        scheduler, ShortcutError, latency_model=latency_model
    )
    rng = ensure_rng(rng)
    normalized: set[Edge] = set()
    for u, v in subgraph_edges:
        if not graph.has_edge(u, v):
            raise GraphStructureError(f"subgraph edge ({u}, {v}) is not a graph edge")
        normalized.add(canonical_edge(u, v))

    adjacency: dict[int, list[int]] = {v: [] for v in graph.nodes()}
    for u, v in normalized:
        adjacency[u].append(v)
        adjacency[v].append(u)

    tree = resolve_tree(graph)
    label = {v: v for v in graph.nodes()}
    stats = RoundStats()
    n = graph.number_of_nodes()
    max_phases = 2 * max(1, math.ceil(math.log2(max(n, 2)))) + 4
    phases = 0

    while phases < max_phases:
        classes: dict[int, list[int]] = {}
        for node, lab in label.items():
            classes.setdefault(lab, []).append(node)
        partition = Partition(graph, classes.values(), validate=False)
        class_labels = list(classes)

        phase_stats = RoundStats()
        # Neighbor label exchange over H-edges: one round, |H| messages each
        # way, charged per directed edge (bits not modeled).
        phase_stats.rounds += 1
        for u, v in normalized:
            phase_stats.record_message(u, v, 0, 0)
            phase_stats.record_message(v, u, 0, 0)

        # Per-node minimum foreign label over incident H-edges.
        values: dict[int, int | None] = {}
        for node in graph.nodes():
            foreign = [
                label[w] for w in adjacency[node] if label[w] != label[node]
            ]
            values[node] = min(foreign) if foreign else None
        if all(value is None for value in values.values()):
            break

        outcome = build_shortcut(
            ShortcutRequest(
                graph=graph,
                partition=partition,
                tree=tree,
                method=shortcut_method,
                construction=construction,
                provider=provider,
                delta=delta,
                rng=rng,
                scheduler=scheduler,
                latency_model=latency_model,
            )
        )
        shortcut = outcome.shortcut
        phase_stats = phase_stats + outcome.stats
        aggregation = partwise_aggregate(
            graph, partition, shortcut, values, _min_or_none, rng=rng,
            latency_model=latency_model,
        )
        if aggregation.incomplete:
            raise ShortcutError(
                f"phase {phases}: aggregation incomplete for {aggregation.incomplete}"
            )
        phase_stats = phase_stats + aggregation.stats

        # Hook each class onto its minimum neighboring label (pointer
        # jumping collapses chains because hooks always point to smaller
        # labels: following them strictly decreases, so the union below is
        # acyclic).
        hook: dict[int, int] = {}
        for index, class_label in enumerate(class_labels):
            target = aggregation.values.get(index)
            if target is not None and target < class_label:
                hook[class_label] = target

        def resolve(lab: int) -> int:
            seen = [lab]
            while lab in hook:
                lab = hook[lab]
                seen.append(lab)
            for item in seen:
                if item != lab:
                    hook[item] = lab
            return lab

        label = {node: resolve(lab) for node, lab in label.items()}
        stats.add_phase(f"phase_{phases}", phase_stats)
        phases += 1

    components = len(set(label.values()))
    return ConnectivityResult(
        labels=label, num_components=components, phases=phases, stats=stats
    )


def _min_or_none(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)

def connectivity_job(
    graph, subgraph_edges, job_id="connectivity", on_complete=None, **kwargs
):
    """A subgraph-connectivity query as a submittable job.

    Returns a call :class:`~repro.congest.jobs.Job` for
    :meth:`repro.serve.JobServer.submit`: the Borůvka label-hooking
    driver interleaves centralized glue with packet-scheduler phases, so
    it executes atomically at admission — under the server's admission
    control and per-job accounting, but not fabric-multiplexed. The
    outcome's ``results`` is the :class:`ConnectivityResult`; its
    ``stats`` is the run's measured cost. ``kwargs`` pass through to
    :func:`subgraph_components`.
    """
    from repro.congest.jobs import Job

    def run():
        result = subgraph_components(graph, subgraph_edges, **kwargs)
        return result, result.stats

    return Job(job_id, call=run, on_complete=on_complete)
