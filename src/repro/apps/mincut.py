"""Distributed minimum cut via greedy tree packing (Corollary 1.7).

The paper derives its exact min-cut corollary from the (1+ε)-approximation
machinery of [GH16b] plus one observation: a graph with minor density δ has
minimum degree — hence min cut — at most 2δ, so ``ε = 1/(4δ)`` turns the
approximation exact. We reproduce the tree-packing route (Karger / Thorup):

1. **Greedy tree packing** — repeatedly compute a spanning tree of minimum
   total *load* (each packed tree increments the load of its edges). Each
   tree computation is one run of the shortcut-based distributed MST, whose
   measured rounds are accumulated; ``K = O(λ log n)`` trees suffice whp
   for the min cut to 2-respect some packed tree, and ``λ ≤ 2δ`` keeps
   ``K = O(δ log n)``.
2. **Respecting cuts** — for every packed tree, evaluate all cuts that cut
   one tree edge (1-respecting) and, for graphs under a size threshold, all
   cuts that cut two tree edges (2-respecting); return the overall minimum.

Faithfulness note (``docs/architecture.md``): cut-value evaluation per tree is
performed centrally and charged one ``O(D)`` subtree-aggregation pass per
tree (1-respecting cut values are plain subtree sums; that aggregation is
implemented and measured in :mod:`repro.congest.primitives.broadcast`).
The 2-respecting minimization is the [GH16b]-cited machinery we do not
re-derive; it is evaluated centrally and clearly labeled.

Every returned cut is a real cut (so its value upper-bounds λ); tests
cross-check exactness against Stoer–Wagner.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import networkx as nx

from repro.apps.mst import distributed_mst
from repro.congest.network import validate_scheduler
from repro.congest.stats import RoundStats
from repro.core.providers import resolve_provider
from repro.graphs.adjacency import canonical_edge
from repro.graphs.trees import RootedTree
from repro.util.bitsize import payload_bits
from repro.util.errors import GraphStructureError, ShortcutError
from repro.util.rng import ensure_rng

__all__ = ["MinCutResult", "distributed_mincut", "degree_bound_from_density", "mincut_job"]

Edge = tuple[int, int]

# Above this node count the 2-respecting sweep (O(m·D^2) pair bookkeeping)
# is skipped by default; 1-respecting cuts still give a valid cut.
_TWO_RESPECTING_DEFAULT_LIMIT = 400


@dataclass
class MinCutResult:
    """Result of the tree-packing min-cut computation.

    Attributes:
        value: the best (smallest) cut value found — always ≥ λ(G), and
            equal whp with enough packed trees.
        side: one side of the best cut (a set of nodes).
        trees_packed: number of spanning trees in the packing.
        stats: accumulated measured rounds; phases ``tree_<i>`` (the MST
            runs) and ``eval_<i>`` (the evaluation passes) sum to the totals.
        used_two_respecting: whether the 2-respecting sweep ran.
    """

    value: int
    side: frozenset[int]
    trees_packed: int
    stats: RoundStats
    used_two_respecting: bool


def degree_bound_from_density(delta: float) -> int:
    """The paper's observation: min degree (hence min cut) ≤ 2δ."""
    return math.floor(2 * delta)


def distributed_mincut(
    graph: nx.Graph,
    delta: float | None = None,
    num_trees: int | None = None,
    rng: int | random.Random | None = None,
    two_respecting: bool | None = None,
    scheduler: str = "event",
    provider: str = "theorem31-centralized",
    latency_model: object = None,
) -> MinCutResult:
    """Unweighted min cut (edge connectivity) with measured round accounting.

    Args:
        graph: connected graph (unweighted; the paper's corollary).
        delta: minor-density parameter for the shortcut-based MSTs.
        num_trees: packing size, a positive int; defaults to
            ``min_degree · ceil(log2 n)`` capped at 24 (enough for the
            evaluation families; raise for adversarial instances).
        two_respecting: run the 2-respecting sweep; defaults to
            ``n <= 400``.
        scheduler: simulator scheduler for the simulated construction
            (``"event"``, ``"dense"``, or ``"vectorized"``; see
            :mod:`repro.congest`).
        provider: shortcut-provider name for every packed MST (see
            :func:`repro.core.providers.available_providers`).
        latency_model: per-edge latency model for the event scheduler,
            forwarded to every packed MST (``None`` =
            uniform/lockstep-equivalent).

    Raises:
        GraphStructureError: if the graph is disconnected or has < 2 nodes.
        ShortcutError: unknown provider, or a ``num_trees`` that is not a
            positive int.
    """
    provider = resolve_provider(provider)
    validate_scheduler(
        scheduler, ShortcutError, latency_model=latency_model
    )
    if graph.number_of_nodes() < 2:
        raise GraphStructureError("min cut needs at least 2 nodes")
    if not nx.is_connected(graph):
        raise GraphStructureError("min cut of a disconnected graph is 0")
    rng = ensure_rng(rng)
    n = graph.number_of_nodes()
    min_degree = min(degree for _, degree in graph.degree())
    if num_trees is None:
        num_trees = max(4, min(24, min_degree * max(1, math.ceil(math.log2(n)))))
    elif isinstance(num_trees, bool) or not isinstance(num_trees, int) or num_trees < 1:
        raise ShortcutError(f"num_trees must be a positive int, got {num_trees!r}")
    if two_respecting is None:
        two_respecting = n <= _TWO_RESPECTING_DEFAULT_LIMIT

    stats = RoundStats()
    loads: dict[Edge, int] = {canonical_edge(u, v): 0 for u, v in graph.edges()}

    # The trivial cut around a minimum-degree node is always available (and
    # is the paper's ≤ 2δ certificate).
    best_value = min_degree
    best_side = frozenset(
        {min(node for node, degree in graph.degree() if degree == min_degree)}
    )
    used_two = False

    for index in range(num_trees):
        mst = distributed_mst(
            graph,
            weights=dict(loads),
            delta=delta,
            rng=rng,
            scheduler=scheduler,
            provider=provider,
            latency_model=latency_model,
        )
        stats.add_phase(f"tree_{index}", mst.stats)
        for edge in mst.edges:
            loads[edge] += 1
        tree = _as_rooted_tree(mst.edges, root=min(graph.nodes()))

        crossings, paths = _edge_crossings(graph, tree)
        # Evaluation pass: 1-respecting cut values are subtree sums, one
        # convergecast over the tree's n - 1 edges. A child at depth d sends
        # its subtree's crossing count to its parent in round max_depth - d.
        evaluation = RoundStats(rounds=tree.max_depth + 1)
        for child, crossing in crossings.items():
            evaluation.record_message(
                child, tree.parent_of(child), payload_bits(crossing),
                tree.max_depth - tree.depth_of(child),
            )
        stats.add_phase(f"eval_{index}", evaluation)

        for child, crossing in crossings.items():
            if crossing < best_value:
                best_value = crossing
                best_side = frozenset(tree.subtree_nodes(child))
        if two_respecting:
            used_two = True
            pair_value, pair_sides = _best_two_respecting(tree, crossings, paths)
            if pair_value is not None and pair_value < best_value:
                best_value = pair_value
                best_side = pair_sides
    return MinCutResult(
        value=best_value,
        side=best_side,
        trees_packed=num_trees,
        stats=stats,
        used_two_respecting=used_two,
    )


def _as_rooted_tree(edges: frozenset[Edge], root: int) -> RootedTree:
    adjacency: dict[int, list[int]] = {}
    for u, v in edges:
        adjacency.setdefault(u, []).append(v)
        adjacency.setdefault(v, []).append(u)
    parent: dict[int, int | None] = {root: None}
    stack = [root]
    while stack:
        node = stack.pop()
        for neighbor in adjacency.get(node, ()):  # leaves may miss entries
            if neighbor not in parent:
                parent[neighbor] = node
                stack.append(neighbor)
    return RootedTree(root, parent)


def _edge_crossings(
    graph: nx.Graph, tree: RootedTree
) -> tuple[dict[int, int], list[list[int]]]:
    """Per tree edge (child endpoint): number of graph edges crossing it.

    A graph edge ``{a, b}`` crosses exactly the tree edges on the tree path
    between ``a`` and ``b``. Returns the crossing counts and the list of
    per-graph-edge tree paths (reused by the 2-respecting sweep).
    """
    crossings = {child: 0 for child in tree.edge_children()}
    paths: list[list[int]] = []
    for a, b in graph.edges():
        path = _tree_path_edges(tree, a, b)
        paths.append(path)
        for child in path:
            crossings[child] += 1
    return crossings, paths


def _tree_path_edges(tree: RootedTree, a: int, b: int) -> list[int]:
    """Tree edges (child endpoints) on the path between ``a`` and ``b``."""
    edges: list[int] = []
    da, db = tree.depth_of(a), tree.depth_of(b)
    while da > db:
        edges.append(a)
        a = tree.parent_of(a)  # type: ignore[assignment]
        da -= 1
    tail: list[int] = []
    while db > da:
        tail.append(b)
        b = tree.parent_of(b)  # type: ignore[assignment]
        db -= 1
    while a != b:
        edges.append(a)
        tail.append(b)
        a = tree.parent_of(a)  # type: ignore[assignment]
        b = tree.parent_of(b)  # type: ignore[assignment]
    edges.extend(reversed(tail))
    return edges


def _best_two_respecting(
    tree: RootedTree,
    crossings: dict[int, int],
    paths: list[list[int]],
) -> tuple[int | None, frozenset[int]]:
    """Minimum cut value over all pairs of tree edges.

    For tree edges ``e ≠ f`` the cut that separates exactly the nodes under
    "e XOR f" (comparable edges) or "e OR f" (incomparable) has value
    ``C(e) + C(f) - 2·cross(e, f)`` where ``cross`` counts graph edges whose
    tree path contains both.
    """
    cross: dict[tuple[int, int], int] = {}
    for path in paths:
        for i, e in enumerate(path):
            for f in path[i + 1 :]:
                key = (e, f) if e < f else (f, e)
                cross[key] = cross.get(key, 0) + 1
    best: int | None = None
    best_pair: tuple[int, int] | None = None
    children = list(crossings)
    for i, e in enumerate(children):
        ce = crossings[e]
        for f in children[i + 1 :]:
            key = (e, f) if e < f else (f, e)
            value = ce + crossings[f] - 2 * cross.get(key, 0)
            if value > 0 and (best is None or value < best):
                best = value
                best_pair = (e, f)
    if best_pair is None:
        return None, frozenset()
    e, f = best_pair
    side_e = set(tree.subtree_nodes(e))
    side_f = set(tree.subtree_nodes(f))
    if side_f <= side_e:
        side = frozenset(side_e - side_f)
    elif side_e <= side_f:
        side = frozenset(side_f - side_e)
    else:
        side = frozenset(side_e | side_f)
    return best, side


def mincut_job(graph, job_id="mincut", on_complete=None, **kwargs):
    """A distributed min-cut query as a submittable job.

    Returns a call :class:`~repro.congest.jobs.Job` for
    :meth:`repro.serve.JobServer.submit`: the tree-packing driver
    interleaves centralized glue with packet-scheduler phases, so it
    executes atomically at admission — under the server's admission
    control and per-job accounting, but not fabric-multiplexed. The
    outcome's ``results`` is the :class:`MinCutResult`; its ``stats`` is
    the run's measured cost. ``kwargs`` pass through to
    :func:`distributed_mincut`.
    """
    from repro.congest.jobs import Job

    def run():
        result = distributed_mincut(graph, **kwargs)
        return result, result.stats

    return Job(job_id, call=run, on_complete=on_complete)
