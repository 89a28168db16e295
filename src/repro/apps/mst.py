"""Distributed minimum spanning tree via Boruvka + shortcuts (Corollary 1.6).

Boruvka's 1926 algorithm runs in ``O(log n)`` phases; in each phase every
fragment finds its minimum-weight outgoing edge (MOE) and fragments merge
along the chosen edges. In the CONGEST model the MOE step is *exactly* the
part-wise aggregation problem (Definition 2.1) over the current fragments,
so a quality-``Q`` shortcut per phase yields an ``O~(Q)``-round phase and an
``O~(δD)``-round MST algorithm on graphs with minor density δ.

Round accounting per phase (all measured, never asserted):

* 1 round of fragment-id exchange (every node tells each neighbor its
  fragment id — one ``O(log n)``-bit message per edge direction);
* optional shortcut construction, obtained from the
  :mod:`repro.core.providers` registry (``construction="simulated"`` runs
  the Theorem 1.5 distributed pipeline and adds its measured rounds;
  ``"centralized"`` plans the same shortcut for free — the arm used to
  isolate aggregation costs);
* one simulated part-wise aggregation (MOE convergecast + decision
  broadcast) through the shortcut.

Weights must be integers (CONGEST messages carry ``O(log n)`` bits; floats
are not re-encodable faithfully). Ties are broken by edge endpoints, making
the MST unique and the result comparable edge-for-edge with Kruskal.
"""

from __future__ import annotations

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

__all__ = ["MstResult", "distributed_mst", "assign_random_weights", "mst_job"]

Edge = tuple[int, int]

# Sentinel MOE value for fragments with no outgoing edge (only possible once
# a fragment spans a whole connected component).
_NO_EDGE = None


@dataclass
class MstResult:
    """Result of the distributed MST computation.

    Attributes:
        edges: the MST edges (canonical).
        weight: total MST weight.
        phases: Boruvka phases executed.
        stats: accumulated measured rounds/messages across all phases.
        phase_rounds: rounds per phase, for scaling plots.
    """

    edges: frozenset[Edge]
    weight: int
    phases: int
    stats: RoundStats
    phase_rounds: list[int] = field(default_factory=list)


def assign_random_weights(
    graph: nx.Graph,
    rng: int | random.Random | None = None,
    max_weight: int = 10**6,
) -> dict[Edge, int]:
    """Distinct-ish random integer weights for every edge (for benchmarks)."""
    rng = ensure_rng(rng)
    return {
        canonical_edge(u, v): rng.randrange(1, max_weight) for u, v in graph.edges()
    }


def distributed_mst(
    graph: nx.Graph,
    weights: dict[Edge, int] | None = None,
    shortcut_method: str = "theorem31",
    construction: str = "centralized",
    delta: float | None = None,
    rng: int | random.Random | None = None,
    max_phases: int | None = None,
    scheduler: str = "event",
    provider: str | None = None,
    latency_model: object = None,
) -> MstResult:
    """Compute the MST with measured CONGEST round accounting.

    Args:
        graph: connected graph.
        weights: integer edge weights (canonical-edge keyed); default all 1
            (any spanning tree — still exercises the full machinery).
        shortcut_method: ``"theorem31"`` (the paper's shortcuts, built fresh
            for each phase's fragments) or ``"baseline"`` (the ``D + √n``
            BFS-tree shortcut — the comparison arm of experiment E8).
        construction: ``"centralized"`` (shortcut planned for free; only
            aggregation rounds measured) or ``"simulated"`` (adds the
            measured rounds of the Theorem 1.5 distributed pipeline, run
            iteratively over unsatisfied fragments per Observation 2.7).
        delta: minor-density parameter; defaults to the generator's
            analytic bound or, failing that, the graph's degeneracy (the
            shared :func:`repro.core.providers.resolve_delta` rule).
        max_phases: safety cap (default ``2·ceil(log2 n) + 4``).
        scheduler: simulator scheduler for the ``"simulated"`` construction
            (``"event"``, ``"dense"``, or ``"vectorized"``; see
            :mod:`repro.congest`).
        provider: explicit shortcut-provider name (see
            :func:`repro.core.providers.available_providers`); overrides
            ``shortcut_method``/``construction``.
        latency_model: per-edge latency model (requires
            ``scheduler="event"``): the simulated construction *and* every
            phase's part-wise aggregation run latency-realistically, so
            ``MstResult.stats.virtual_time`` reports the latency-weighted
            completion alongside the round count.

    Raises:
        GraphStructureError: disconnected input or non-integer weights.
        ShortcutError: unknown provider/method/construction.
    """
    import math

    if graph.number_of_nodes() == 0:
        raise GraphStructureError("MST of an empty graph is undefined")
    if not nx.is_connected(graph):
        raise GraphStructureError("MST requires a connected graph")
    rng = ensure_rng(rng)
    if weights is None:
        weights = {canonical_edge(u, v): 1 for u, v in graph.edges()}
    for edge, weight in weights.items():
        if not isinstance(weight, int):
            raise GraphStructureError(
                f"edge weights must be integers (CONGEST messages); {edge} has {weight!r}"
            )
    provider_name(shortcut_method, construction, provider)  # fail fast, uniformly
    validate_scheduler(
        scheduler, ShortcutError, latency_model=latency_model
    )
    n = graph.number_of_nodes()
    if max_phases is None:
        max_phases = 2 * max(1, math.ceil(math.log2(max(n, 2)))) + 4

    tree = resolve_tree(graph)
    fragment_of = {v: v for v in graph.nodes()}  # fragment id = leader node
    mst_edges: set[Edge] = set()
    stats = RoundStats()
    phase_rounds: list[int] = []
    phases = 0

    while phases < max_phases:
        fragments = _fragment_sets(fragment_of)
        if len(fragments) == 1:
            break
        partition = Partition(graph, fragments.values(), validate=False)
        index_of_fragment = {
            fragment_id: index for index, fragment_id in enumerate(fragments)
        }

        phase_stats = RoundStats()
        # Step 1: fragment-id exchange (1 round, one message per edge
        # direction, charged per directed edge; its bits are not modeled).
        phase_stats.rounds += 1
        for u, v in graph.edges():
            phase_stats.record_message(u, v, 0, 0)
            phase_stats.record_message(v, u, 0, 0)

        # Step 2: shortcut for the current fragments, via the provider
        # registry (identical fragment collections — e.g. the singleton
        # phase repeated across a min-cut tree packing — hit the memo cache
        # instead of rebuilding).
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

        # Step 3: per-node local MOE, then part-wise min aggregation.
        values = _local_moe_values(graph, weights, fragment_of)
        aggregation = partwise_aggregate(
            graph, partition, shortcut, values, _min_edge, rng=rng,
            latency_model=latency_model,
        )
        if aggregation.incomplete:
            raise ShortcutError(
                f"phase {phases}: aggregation did not complete for parts "
                f"{aggregation.incomplete}"
            )
        phase_stats = phase_stats + aggregation.stats

        # Step 4: merge along the chosen MOEs.
        chosen: set[Edge] = set()
        for index in range(len(partition)):
            moe = aggregation.values.get(index, _NO_EDGE)
            if moe is not _NO_EDGE and moe is not None:
                _, u, v = moe
                chosen.add(canonical_edge(u, v))
        if not chosen:
            break
        mst_edges |= chosen
        fragment_of = _merge_fragments(graph, fragment_of, chosen)

        stats.add_phase(f"phase_{phases}", phase_stats)
        phase_rounds.append(phase_stats.rounds)
        phases += 1

    if len(_fragment_sets(fragment_of)) != 1:
        raise ShortcutError(f"Boruvka did not converge within {max_phases} phases")
    total_weight = sum(weights[edge] for edge in mst_edges)
    return MstResult(
        edges=frozenset(mst_edges),
        weight=total_weight,
        phases=phases,
        stats=stats,
        phase_rounds=phase_rounds,
    )


def _fragment_sets(fragment_of: dict[int, int]) -> dict[int, list[int]]:
    sets: dict[int, list[int]] = {}
    for node, fragment in fragment_of.items():
        sets.setdefault(fragment, []).append(node)
    return sets


def _local_moe_values(
    graph: nx.Graph,
    weights: dict[Edge, int],
    fragment_of: dict[int, int],
) -> dict[int, tuple[int, int, int] | None]:
    """Per node: its lightest outgoing edge as ``(weight, u, v)`` or None."""
    values: dict[int, tuple[int, int, int] | None] = {}
    for node in graph.nodes():
        best: tuple[int, int, int] | None = None
        for neighbor in graph.neighbors(node):
            if fragment_of[neighbor] == fragment_of[node]:
                continue
            edge = canonical_edge(node, neighbor)
            candidate = (weights[edge], edge[0], edge[1])
            if best is None or candidate < best:
                best = candidate
        values[node] = best
    return values


def _min_edge(a, b):
    """Min combiner tolerating None (= no outgoing edge)."""
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def _merge_fragments(
    graph: nx.Graph,
    fragment_of: dict[int, int],
    chosen: set[Edge],
) -> dict[int, int]:
    """Union fragments along chosen MOE edges; new id = min member node."""
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        root = x
        while parent.setdefault(root, root) != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    for fragment in set(fragment_of.values()):
        parent.setdefault(fragment, fragment)
    for u, v in chosen:
        ru, rv = find(fragment_of[u]), find(fragment_of[v])
        if ru != rv:
            parent[max(ru, rv)] = min(ru, rv)
    return {node: find(fragment) for node, fragment in fragment_of.items()}


def mst_job(graph, weights=None, job_id="mst", on_complete=None, **kwargs):
    """A distributed-MST query as a submittable job.

    Returns a call :class:`~repro.congest.jobs.Job` for
    :meth:`repro.serve.JobServer.submit`: the MST driver interleaves
    centralized glue (fragment merging) with packet-scheduler phases, so
    it executes atomically at admission — under the server's admission
    control and per-job accounting, but not fabric-multiplexed. The
    outcome's ``results`` is the :class:`MstResult`; its ``stats`` is the
    run's measured cost. ``kwargs`` pass through to
    :func:`distributed_mst`.
    """
    from repro.congest.jobs import Job

    def run():
        result = distributed_mst(graph, weights, **kwargs)
        return result, result.stats

    return Job(job_id, call=run, on_complete=on_complete)
