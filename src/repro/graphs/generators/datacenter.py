"""Datacenter network topologies: fat-tree and leaf-spine fabrics.

The contention-aware latency model (:mod:`repro.congest.asynchronous`:
``contention``) needs topologies where link sharing is
structural — datacenter fabrics concentrate many host flows onto few
core links, the regime Haeupler–Li–Zuzic (arXiv:1801.06237) motivate
shortcut-based algorithms for. Both generators follow the repo-wide
generator contract (connected simple graph, integer labels ``0..n-1``,
family metadata in ``graph.graph``) and additionally record each node's
``role`` (``"host"``, ``"edge"``, ``"agg"``, ``"spine"``, ``"core"``) and
``tier`` as node attributes, so experiments can scope populations to
hosts.

``oversubscription`` thins the core: a factor of ``s`` keeps one in ``s``
core (spine) switches, multiplying the worst-case host-flows-per-core-link
ratio by ``s`` — the standard knob real deployments trade cost against
bisection bandwidth with, and the knob the E22 contention benchmark
turns. Every oversubscribed variant stays connected: each core group
(fat-tree) and the spine tier (leaf-spine) always keeps at least one
switch.

The registry (``DATACENTER_TOPOLOGIES``) mirrors the scheduler/latency
registries: names resolve through :func:`get_datacenter_topology` with
the uniform unknown-name error, appear in ``repro registry`` output, and
are documented in ``docs/latency-models.md``.
"""

from __future__ import annotations

from collections.abc import Callable

import networkx as nx

from repro.util.errors import GraphStructureError

__all__ = [
    "fat_tree",
    "leaf_spine",
    "DATACENTER_TOPOLOGIES",
    "available_datacenter_topologies",
    "get_datacenter_topology",
]


def fat_tree(k: int = 4, oversubscription: int = 1) -> nx.Graph:
    """A ``k``-ary fat-tree (Al-Fares et al.): the canonical Clos fabric.

    ``k`` pods, each with ``k/2`` edge and ``k/2`` aggregation switches
    in full bipartite connection; ``(k/2)^2`` core switches in ``k/2``
    groups of ``k/2``, group ``g`` connecting to aggregation switch ``g``
    of every pod; ``k/2`` hosts per edge switch — ``k^3/4`` hosts total
    at full provisioning, with equal capacity at every tier.

    ``oversubscription = s`` keeps one in ``s`` core switches per group
    (at least one per group, so the fabric stays connected): host-to-host
    paths then contend for ``s`` times fewer core links, which is exactly
    where a load-dependent latency model starts charging real time.

    Node order: cores, then per pod aggregation, edge, hosts. Metadata:
    ``family="fat_tree"``, ``k``, ``oversubscription``, ``hosts``,
    ``core_switches``; per-node ``role``/``tier``/``pod`` attributes.

    Raises:
        GraphStructureError: ``k`` odd or ``< 2``, or
            ``oversubscription`` outside ``1..k/2``.
    """
    if k < 2 or k % 2 != 0:
        raise GraphStructureError(
            f"fat-tree needs an even k >= 2 (k pods of k/2 + k/2 "
            f"switches), got {k}"
        )
    half = k // 2
    if not 1 <= oversubscription <= half:
        raise GraphStructureError(
            f"fat-tree oversubscription must be in 1..{half} (each of the "
            f"{half} core groups keeps at least one switch), got "
            f"{oversubscription}"
        )
    graph = nx.Graph()
    # Core tier: groups of `half`, thinned to one in `oversubscription`.
    # cores[g] lists the surviving core ids of group g.
    cores: list[list[int]] = []
    next_id = 0
    for _group in range(half):
        kept = []
        for position in range(half):
            if position % oversubscription == 0:
                graph.add_node(next_id, role="core", tier=0)
                kept.append(next_id)
                next_id += 1
        cores.append(kept)
    for pod in range(k):
        aggs = []
        for group in range(half):
            agg = next_id
            next_id += 1
            graph.add_node(agg, role="agg", tier=1, pod=pod)
            aggs.append(agg)
            for core in cores[group]:
                graph.add_edge(core, agg)
        for _e in range(half):
            edge = next_id
            next_id += 1
            graph.add_node(edge, role="edge", tier=2, pod=pod)
            for agg in aggs:
                graph.add_edge(edge, agg)
            for _h in range(half):
                host = next_id
                next_id += 1
                graph.add_node(host, role="host", tier=3, pod=pod)
                graph.add_edge(edge, host)
    graph.graph.update(
        family="fat_tree",
        delta_upper=None,
        k=k,
        oversubscription=oversubscription,
        hosts=k * half * half,
        core_switches=sum(len(group) for group in cores),
    )
    return graph


def leaf_spine(
    leaves: int = 4,
    spines: int = 2,
    hosts_per_leaf: int = 4,
    oversubscription: int = 1,
) -> nx.Graph:
    """A two-tier leaf-spine fabric: every leaf connects to every spine.

    The flat Clos every modern rack-scale deployment uses: ``leaves``
    top-of-rack switches in full bipartite connection with ``spines``
    spine switches, ``hosts_per_leaf`` hosts per leaf. Any host pair is
    at most 4 hops apart (host–leaf–spine–leaf–host); all cross-rack
    traffic shares the leaf–spine links, so per-link load scales with
    ``hosts_per_leaf / spines`` — the contention knob.

    ``oversubscription = s`` keeps one in ``s`` spines (at least one),
    multiplying that ratio by ``s``.

    Node order: spines, then leaves, then hosts (grouped by leaf).
    Metadata: ``family="leaf_spine"``, ``leaves``, ``spines`` (surviving
    count), ``hosts_per_leaf``, ``oversubscription``; per-node
    ``role``/``tier``/``leaf`` attributes.

    Raises:
        GraphStructureError: non-positive tier sizes or
            ``oversubscription`` outside ``1..spines``.
    """
    if leaves < 1 or spines < 1 or hosts_per_leaf < 0:
        raise GraphStructureError(
            f"leaf-spine needs leaves >= 1, spines >= 1, hosts_per_leaf "
            f">= 0; got {leaves}, {spines}, {hosts_per_leaf}"
        )
    if not 1 <= oversubscription <= spines:
        raise GraphStructureError(
            f"leaf-spine oversubscription must be in 1..{spines} (the "
            f"spine tier keeps at least one switch), got {oversubscription}"
        )
    graph = nx.Graph()
    spine_ids = []
    next_id = 0
    for position in range(spines):
        if position % oversubscription == 0:
            graph.add_node(next_id, role="spine", tier=0)
            spine_ids.append(next_id)
            next_id += 1
    leaf_ids = []
    for _leaf in range(leaves):
        leaf = next_id
        next_id += 1
        graph.add_node(leaf, role="edge", tier=1)
        leaf_ids.append(leaf)
        for spine in spine_ids:
            graph.add_edge(spine, leaf)
    for index, leaf in enumerate(leaf_ids):
        for _h in range(hosts_per_leaf):
            host = next_id
            next_id += 1
            graph.add_node(host, role="host", tier=2, leaf=index)
            graph.add_edge(leaf, host)
    graph.graph.update(
        family="leaf_spine",
        delta_upper=None,
        leaves=leaves,
        spines=len(spine_ids),
        hosts_per_leaf=hosts_per_leaf,
        oversubscription=oversubscription,
        hosts=leaves * hosts_per_leaf,
    )
    return graph


# The datacenter topology registry: mirrors the scheduler / latency-model
# registries so `repro registry` can enumerate it and names fail with the
# uniform listing error. Oversubscribed-core variants are the same
# generators with oversubscription > 1, not separate entries.
DATACENTER_TOPOLOGIES: dict[str, Callable[..., nx.Graph]] = {
    "fat-tree": fat_tree,
    "leaf-spine": leaf_spine,
}


def available_datacenter_topologies() -> tuple[str, ...]:
    """Sorted names of all registered datacenter topology generators."""
    return tuple(sorted(DATACENTER_TOPOLOGIES))


def get_datacenter_topology(name: str) -> Callable[..., nx.Graph]:
    """Resolve a registered datacenter topology generator by name.

    Raises:
        GraphStructureError: unknown name (the message lists the
            registry, matching the scheduler/latency/provider registry
            error conventions).
    """
    generator = DATACENTER_TOPOLOGIES.get(name)
    if generator is None:
        raise GraphStructureError(
            f"unknown datacenter topology {name!r}; registered datacenter "
            f"topologies: {', '.join(available_datacenter_topologies())}"
        )
    return generator
