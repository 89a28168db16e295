"""Distributed minimum spanning tree via Boruvka + shortcuts (Corollary 1.6).

Boruvka's 1926 algorithm runs in ``O(log n)`` phases; in each phase every
fragment finds its minimum-weight outgoing edge (MOE) and fragments merge
along the chosen edges. In the CONGEST model the MOE step is *exactly* the
part-wise aggregation problem (Definition 2.1) over the current fragments,
so a quality-``Q`` shortcut per phase yields an ``O~(Q)``-round phase and an
``O~(δD)``-round MST algorithm on graphs with minor density δ.

The phase loop itself, :func:`boruvka_phases`, is shared with subgraph
connectivity (:mod:`repro.apps.connectivity`): an app supplies only a
per-node local value and a merge rule. Round accounting per phase (all
measured, never asserted):

* 1 round of label exchange (every node tells each neighbor over the app's
  edge set its fragment id — one ``O(log n)``-bit message per edge
  direction);
* optional shortcut construction, obtained from the
  :mod:`repro.core.providers` registry (``provider="theorem31-simulated"``
  runs the Theorem 1.5 distributed pipeline and adds its measured rounds;
  ``"theorem31-centralized"`` plans the same shortcut for free — the arm
  used to isolate aggregation costs);
* one simulated part-wise min aggregation (convergecast + decision
  broadcast) through the shortcut.

A phase whose fragments are all single nodes (phase 0, where the labels
are the node ids) has only the exchange round: a one-node fragment's MOE
is its node's local value, so the phase builds no shortcut and runs no
aggregation. Every other phase's shortcut restricts to one tree ``T``, as
in Corollary 1.6: the tree of the first phase with a multi-node fragment
is passed into every later request, so the simulated construction
measures its BFS tree and learns its depth once per query, not once per
phase, and a query that ends in phase 0 measures none.

The loop calls ``build_shortcut`` and ``partwise_aggregate`` through this
module's globals, so a caller that rebinds ``repro.apps.mst.build_shortcut``
or ``repro.apps.mst.partwise_aggregate`` sees every phase of both apps.

Weights must be integers (CONGEST messages carry ``O(log n)`` bits; floats
are not re-encodable faithfully). Ties are broken by edge endpoints, making
the MST unique and the result comparable edge-for-edge with Kruskal.
"""

from __future__ import annotations

import math
import random
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field

import networkx as nx

from repro.congest.network import validate_scheduler
from repro.congest.stats import RoundStats
from repro.core.providers import (
    ShortcutRequest,
    build_shortcut,
    resolve_provider,
)
from repro.graphs.adjacency import canonical_edge, edge_weights
from repro.graphs.partition import Partition
from repro.sched.partwise import partwise_aggregate
from repro.util.errors import GraphStructureError, ShortcutError
from repro.util.rng import ensure_rng

__all__ = ["MstResult", "distributed_mst", "assign_random_weights", "mst_job", "boruvka_phases"]

Edge = tuple[int, int]


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
    """Distinct-ish random integer weights in ``[1, max_weight)`` for every
    edge (for benchmarks).

    Raises:
        GraphStructureError: unless ``max_weight`` is an int >= 2, so that
            the range holds a weight.
    """
    if type(max_weight) is not int or max_weight < 2:
        raise GraphStructureError(f"max_weight must be an int >= 2, got {max_weight!r}")
    rng = ensure_rng(rng)
    return {
        canonical_edge(u, v): rng.randrange(1, max_weight) for u, v in graph.edges()
    }


def boruvka_phases(
    graph: nx.Graph,
    exchange_edges: Iterable[Edge],
    local_values: Callable[[dict[int, int]], dict[int, object]],
    merge: Callable[[dict[int, int], dict[int, object]], dict[int, int]],
    *,
    provider: str,
    delta: float | None,
    rng: int | random.Random | None,
    scheduler: str,
    latency_model: object,
) -> tuple[dict[int, int], RoundStats]:
    """Borůvka phases with a part-wise min aggregation as the merge step.

    Labels start as the node ids. Each phase (at most
    ``2·ceil(log2 n) + 4``):

    1. ``local_values(labels)`` gives each node's value, ``None`` for none;
       the loop stops once every value is ``None``;
    2. the label classes, in node order, become the parts; one exchange
       round is charged over ``exchange_edges`` (one message each way,
       bits not modeled);
    3. if every part is a single node, its minimum is that node's value,
       read directly: the phase builds no shortcut, runs no aggregation
       and draws nothing from ``rng``, so it costs the exchange round
       alone;
    4. otherwise the phase shortcut is built, on the tree of the first
       such phase from the next one on, and every part aggregates the
       minimum of its members' non-``None`` values;
    5. ``merge(labels, minima)`` returns the new labels, where ``minima``
       maps each class label to its part's minimum (``None`` if none).

    The keyword arguments are the phase shortcuts'
    :class:`~repro.core.providers.ShortcutRequest` fields.

    Returns:
        ``(labels, stats)``; ``stats.phases`` holds one ``phase_<i>`` entry
        per phase and sums to the totals.

    Raises:
        ShortcutError: unknown provider or scheduler, or an aggregation
            that did not complete.
    """
    validate_scheduler(scheduler, ShortcutError, latency_model=latency_model)
    rng = ensure_rng(rng)
    n = graph.number_of_nodes()
    max_phases = 2 * max(1, math.ceil(math.log2(max(n, 2)))) + 4
    labels = {v: v for v in graph.nodes()}
    stats = RoundStats()
    tree = None
    for phase in range(max_phases):
        values = local_values(labels)
        if all(value is None for value in values.values()):
            break
        classes: dict[int, list[int]] = {}
        for node, label in labels.items():
            classes.setdefault(label, []).append(node)
        phase_stats = RoundStats(rounds=1)
        for u, v in exchange_edges:
            phase_stats.record_message(u, v, 0, 0)
            phase_stats.record_message(v, u, 0, 0)
        if len(classes) == len(labels):
            # Every part is one node, which knows its minimum already.
            minima = {label: values[members[0]] for label, members in classes.items()}
        else:
            partition = Partition(graph, classes.values(), validate=False)
            # A class collection seen before on this graph (the same query
            # run again) hits the provider's memo cache.
            outcome = build_shortcut(ShortcutRequest(
                graph=graph, partition=partition, tree=tree, provider=provider,
                delta=delta, rng=rng, scheduler=scheduler, latency_model=latency_model,
            ))
            tree = outcome.tree
            aggregation = partwise_aggregate(
                graph, partition, outcome.shortcut, values, _min_or_none, rng=rng,
                latency_model=latency_model,
            )
            if aggregation.incomplete:
                raise ShortcutError(
                    f"phase {phase}: aggregation did not complete for parts "
                    f"{aggregation.incomplete}"
                )
            phase_stats = phase_stats + outcome.stats + aggregation.stats
            minima = {
                label: aggregation.values.get(index) for index, label in enumerate(classes)
            }
        stats.add_phase(f"phase_{phase}", phase_stats)
        labels = merge(labels, minima)
    return labels, stats


def _min_or_none(a, b):
    """Min combiner tolerating None (= no value)."""
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def distributed_mst(
    graph: nx.Graph,
    weights: dict[Edge, int] | None = None,
    construction: str | None = None,
    delta: float | None = None,
    rng: int | random.Random | None = None,
    scheduler: str = "event",
    provider: str | None = None,
    latency_model: object = None,
) -> MstResult:
    """Compute the MST with measured CONGEST round accounting.

    Args:
        graph: connected graph.
        weights: integer edge weights keyed by
            :func:`~repro.graphs.adjacency.canonical_edge`, one for every
            graph edge; default all 1 (any spanning tree — still exercises
            the full machinery).
        construction: shorthand for ``provider="theorem31-<construction>"``:
            ``"centralized"`` (shortcut planned for free; only aggregation
            rounds measured) or ``"simulated"`` (adds the measured rounds of
            the Theorem 1.5 distributed pipeline, run iteratively over
            unsatisfied fragments per Observation 2.7).
        delta: minor-density parameter; defaults to the generator's
            analytic bound or, failing that, the graph's degeneracy (the
            shared :func:`repro.core.providers.resolve_delta` rule).
        scheduler: simulator scheduler for the simulated construction
            (``"event"``, ``"dense"``, or ``"vectorized"``; see
            :mod:`repro.congest`).
        provider: shortcut-provider name (see
            :func:`repro.core.providers.available_providers`); default
            ``"theorem31-centralized"`` (the paper's shortcuts, built fresh
            for each phase's fragments); ``"baseline"`` is the ``D + √n``
            BFS-tree shortcut, the comparison arm of experiment E8.
        latency_model: per-edge latency model (requires
            ``scheduler="event"``): the simulated construction *and* every
            phase's part-wise aggregation run latency-realistically, so
            ``MstResult.stats.virtual_time`` reports the latency-weighted
            completion alongside the round count.

    Raises:
        GraphStructureError: disconnected input, non-integer weights, or a
            graph edge without a weight.
        ShortcutError: unknown provider or construction, or both given.
    """
    provider = resolve_provider(provider, construction)
    if graph.number_of_nodes() == 0:
        raise GraphStructureError("MST of an empty graph is undefined")
    if not nx.is_connected(graph):
        raise GraphStructureError("MST requires a connected graph")
    weights = edge_weights(graph.edges(), weights)
    mst_edges: set[Edge] = set()

    def local_moe_values(fragment_of):
        """Per node: its lightest outgoing edge as ``(weight, u, v)`` or None."""
        values = {}
        for node in graph.nodes():
            best = None
            for neighbor in graph.neighbors(node):
                if fragment_of[neighbor] == fragment_of[node]:
                    continue
                edge = canonical_edge(node, neighbor)
                candidate = (weights[edge], edge[0], edge[1])
                if best is None or candidate < best:
                    best = candidate
            values[node] = best
        return values

    def merge(fragment_of, moes):
        chosen = {moe[1:] for moe in moes.values() if moe is not None}
        mst_edges.update(chosen)
        return _merge_fragments(fragment_of, chosen)

    fragment_of, stats = boruvka_phases(
        graph, graph.edges(), local_moe_values, merge,
        provider=provider, delta=delta, rng=rng, scheduler=scheduler,
        latency_model=latency_model,
    )
    if len(set(fragment_of.values())) != 1:
        raise ShortcutError(f"Boruvka did not converge within {len(stats.phases)} phases")
    return MstResult(
        edges=frozenset(mst_edges),
        weight=sum(weights[edge] for edge in mst_edges),
        phases=len(stats.phases),
        stats=stats,
        phase_rounds=[phase.rounds for phase in stats.phases.values()],
    )


def _merge_fragments(fragment_of: dict[int, int], chosen: set[Edge]) -> dict[int, int]:
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
