"""Distributed subgraph connectivity via shortcut-accelerated label merging.

One of the applications the paper lists alongside MST: given a subgraph
``H ⊆ G`` (each node knows which of its incident edges are in ``H``),
compute the connected components of ``H`` — in rounds governed by *G*'s
diameter, not H's (components of ``H`` can have huge diameter, the wheel
problem again).

Algorithm (Boruvka-style label hooking, [GH16b]): every node starts with
its own id as component label, and the label classes are the *parts*
(connected in H ⊆ G). The phases run in the Borůvka loop shared with the
MST, :func:`repro.apps.mst.boruvka_phases`, which builds each phase's
shortcut and aggregates; this module supplies only its two rules:

* local value — a node's minimum label across its H-edges that leave its
  class (the label exchange round runs over H's edges only);
* merge — every class hooks onto its part's minimum when that is smaller,
  and pointer jumping collapses the hook chains.

O(log n) phases merge everything; round cost per phase = one part-wise
aggregation = O~(shortcut quality).

The H-components are exactly the final label classes, cross-checked against
networkx in the tests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import networkx as nx

from repro.apps.mst import boruvka_phases
from repro.congest.stats import RoundStats
from repro.core.providers import resolve_provider
from repro.graphs.adjacency import canonical_edge
from repro.util.errors import GraphStructureError

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
    delta: float | None = None,
    rng: int | random.Random | None = None,
    scheduler: str = "event",
    provider: str = "theorem31-centralized",
    latency_model: object = None,
) -> ConnectivityResult:
    """Connected components of ``(V, subgraph_edges)`` in the CONGEST model.

    Args:
        graph: the communication graph ``G``.
        subgraph_edges: edges of ``H`` (must all be edges of ``G``).
        delta: minor-density parameter for the shortcut construction.
        scheduler: simulator scheduler for the simulated construction
            (``"event"``, ``"dense"``, or ``"vectorized"``; see
            :mod:`repro.congest`).
        provider: shortcut-provider name (see
            :func:`repro.core.providers.available_providers`):
            ``"theorem31-centralized"`` (per-phase shortcuts planned for
            free), ``"theorem31-simulated"`` (each phase's shortcut built by
            the measured Theorem 1.5 pipeline), among others.
        latency_model: per-edge latency model for the event scheduler
            (``None`` = uniform/lockstep-equivalent).

    Raises:
        GraphStructureError: if some subgraph edge is not a ``G`` edge.
        ShortcutError: unknown provider.
    """
    provider = resolve_provider(provider)
    normalized: set[Edge] = set()
    for u, v in subgraph_edges:
        if not graph.has_edge(u, v):
            raise GraphStructureError(f"subgraph edge ({u}, {v}) is not a graph edge")
        normalized.add(canonical_edge(u, v))

    adjacency: dict[int, list[int]] = {v: [] for v in graph.nodes()}
    for u, v in normalized:
        adjacency[u].append(v)
        adjacency[v].append(u)

    def min_foreign_labels(label):
        """Per node: the minimum label of its H-neighbours in other classes, or None."""
        return {
            node: min(
                (label[w] for w in adjacency[node] if label[w] != label[node]),
                default=None,
            )
            for node in graph.nodes()
        }

    def hook(label, targets):
        # Each class hooks onto its minimum neighboring label. Hooks always
        # point to smaller labels, so following them strictly decreases and
        # the union is acyclic; pointer jumping collapses the chains.
        hooks = {
            class_label: target for class_label, target in targets.items()
            if target is not None and target < class_label
        }

        def resolve(lab: int) -> int:
            seen = [lab]
            while lab in hooks:
                lab = hooks[lab]
                seen.append(lab)
            for item in seen:
                if item != lab:
                    hooks[item] = lab
            return lab

        return {node: resolve(lab) for node, lab in label.items()}

    label, stats = boruvka_phases(
        graph, normalized, min_foreign_labels, hook,
        provider=provider, delta=delta, rng=rng, scheduler=scheduler,
        latency_model=latency_model,
    )
    return ConnectivityResult(
        labels=label,
        num_components=len(set(label.values())),
        phases=len(stats.phases),
        stats=stats,
    )


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
