"""Theorem 3.1: tree-restricted partial shortcuts via overcongestion marking.

The constructive proof of Theorem 3.1, implemented exactly:

1. Fix a rooted tree ``T`` of depth at most ``D`` and a congestion budget
   ``c = 8δD``. Process tree edges bottom-up; an edge ``e`` (identified by
   its deeper endpoint ``v_e``) is **overcongested** when at least ``c``
   parts intersect the descendants of ``v_e`` reachable within ``T \\ O``
   (``O`` = edges already marked). Marked edges stop propagating parts.
2. The **conflict graph** ``B`` is bipartite between overcongested edges
   and parts: ``(e, P_i) ∈ B`` iff ``P_i`` contributed to ``e``'s marking.
   Each such incidence stores a *representative* node ``r_(e,P_i) ∈ P_i``
   that is reachable from ``v_e`` through ``T \\ O`` (needed by the
   dense-minor extraction in :mod:`repro.core.certifying`).
3. Case (I): if at least half of the parts have degree ≤ ``8δ`` in ``B``,
   assigning every such part all ancestor edges of its nodes in the forest
   ``T \\ O`` is a ``c``-congestion, ``8δ``-block partial shortcut.
   Case (II): otherwise ``G`` has a minor of density exceeding ``δ``
   (extractable via :func:`repro.core.certifying.sample_dense_minor`),
   contradicting ``δ = δ(G)`` — so case (I) must occur for ``δ ≥ δ(G)``.

Two faithful notes on constants: an edge is marked when ``|I_e| ≥ c``, so
every *unmarked* edge is used by at most ``c - 1`` parts (congestion
``< 8δD``); a part of degree ``b`` in ``B`` has at most ``b + 1`` blocks
(its components rooted at marked edges, plus possibly the component of the
tree root), matching the paper's ``O(δ)`` block bound with the same
constant up to the ``+1``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import networkx as nx

from repro.congest.stats import RoundStats
from repro.core.bounds import (
    check_positive,
    check_tree,
    theorem31_block_budget,
    theorem31_congestion_budget,
)
from repro.core.shortcut import TreeRestrictedShortcut
from repro.graphs.partition import Partition
from repro.graphs.trees import RootedTree
from repro.util.errors import ShortcutError

__all__ = [
    "ConflictGraph",
    "PartialShortcutResult",
    "mark_overcongested_edges",
    "conflict_from_marking",
    "build_partial_shortcut",
    "ancestor_subgraphs",
    "steiner_prune",
]


@dataclass(frozen=True)
class ConflictGraph:
    """The bipartite graph ``B`` between overcongested edges and parts.

    Attributes:
        incidences: for each overcongested edge (child endpoint ``v_e``),
            the parts that contributed to its marking, each with its
            representative node (``I_e`` with representatives).
        part_degrees: degree of every part in ``B`` (0 if absent).
    """

    incidences: dict[int, dict[int, int]]
    part_degrees: dict[int, int]

    @property
    def num_edge_nodes(self) -> int:
        """Number of overcongested edges (edge-nodes of ``B``)."""
        return len(self.incidences)


@dataclass
class PartialShortcutResult:
    """Everything produced by one run of the Theorem 3.1 construction.

    Attributes:
        graph, tree, partition: the instance.
        delta: the minor-density parameter δ used for the budgets.
        congestion_budget: ``c`` (edges with ≥ c parts below get marked).
        block_budget: parts of conflict-degree ≤ this are *satisfied*.
        overcongested: the marked edge set ``O`` (child endpoints).
        conflict: the bipartite conflict graph ``B``.
        satisfied: indices of satisfied parts, ascending.
        subgraphs: ``H_i`` (tree-edge child endpoints) for satisfied parts.
        stats: measured rounds and messages of the run (empty for the
            centralized construction, which is planned for free).
    """

    graph: nx.Graph
    tree: RootedTree
    partition: Partition
    delta: float
    congestion_budget: int
    block_budget: int
    overcongested: frozenset[int]
    conflict: ConflictGraph
    satisfied: tuple[int, ...]
    subgraphs: dict[int, frozenset[int]]
    stats: RoundStats = field(default_factory=RoundStats)

    @classmethod
    def from_marking(
        cls,
        graph: nx.Graph,
        tree: RootedTree,
        partition: Partition,
        delta: float,
        congestion_budget: int,
        block_budget: int,
        overcongested: frozenset[int],
        conflict: ConflictGraph,
        prune: bool = True,
        **extra,
    ) -> "PartialShortcutResult":
        """Turn a marking into satisfied parts and their ``H_i``.

        A part is satisfied when its conflict degree is at most
        ``block_budget``; it gets its ancestor edges in ``T \\ O``
        (:func:`ancestor_subgraphs`), trimmed by :func:`steiner_prune`
        when ``prune`` is set. ``extra`` fills the remaining fields
        (``stats``, and ``params`` on subclasses).
        """
        satisfied = tuple(
            sorted(i for i, degree in conflict.part_degrees.items() if degree <= block_budget)
        )
        subgraphs = ancestor_subgraphs(tree, partition, overcongested, satisfied)
        if prune:
            subgraphs = {
                index: steiner_prune(tree, partition[index], edges)
                for index, edges in subgraphs.items()
            }
        return cls(
            graph=graph,
            tree=tree,
            partition=partition,
            delta=delta,
            congestion_budget=congestion_budget,
            block_budget=block_budget,
            overcongested=overcongested,
            conflict=conflict,
            satisfied=satisfied,
            subgraphs=subgraphs,
            **extra,
        )

    @property
    def succeeded(self) -> bool:
        """Case (I): at least half of the parts are satisfied."""
        return 2 * len(self.satisfied) >= len(self.partition)

    @property
    def unsatisfied(self) -> tuple[int, ...]:
        """Indices of parts with conflict-degree above the block budget."""
        satisfied = set(self.satisfied)
        return tuple(i for i in range(len(self.partition)) if i not in satisfied)

    def shortcut(self) -> TreeRestrictedShortcut:
        """The partial shortcut, restricted to the satisfied parts.

        Raises:
            ShortcutError: if no part is satisfied.
        """
        if not self.satisfied:
            raise ShortcutError("no satisfied parts; no partial shortcut to extract")
        sub_partition = self.partition.restrict(self.graph, self.satisfied)
        edge_lists = [self.subgraphs[i] for i in self.satisfied]
        return TreeRestrictedShortcut(
            self.graph, sub_partition, self.tree, edge_lists, validate=False
        )


def mark_overcongested_edges(
    tree: RootedTree,
    partition: Partition,
    congestion_budget: int,
) -> tuple[frozenset[int], ConflictGraph]:
    """The bottom-up marking process of the Theorem 3.1 proof.

    Processes tree edges by decreasing depth. For each node ``v`` it
    maintains ``S(v)``: the parts intersecting ``v``'s subtree within
    ``T \\ O``, each with a representative node. If ``|S(v)| ≥ c`` the
    parent edge of ``v`` is marked and ``S(v)`` stops propagating.

    Returns:
        ``(O, B)``: the marked edges (child endpoints) and the conflict
        graph with representatives.

    Raises:
        ShortcutError: if ``congestion_budget < 1``.
    """
    if congestion_budget < 1:
        raise ShortcutError(f"congestion budget must be >= 1, got {congestion_budget}")

    def decide(node: int, merged: dict[int, int]) -> bool:
        return len(merged) >= congestion_budget

    return _bottom_up_sweep(tree, partition, decide)


def conflict_from_marking(
    tree: RootedTree,
    partition: Partition,
    marked: frozenset[int],
) -> ConflictGraph:
    """Conflict graph for an externally-given marking (no re-deciding).

    Used to interpret the *sampled* marking produced by the distributed
    construction: the marked set is fixed, and this recomputes which parts
    reach each marked edge through the resulting forest ``T \\ O`` (with
    representatives), exactly as the exact process would have recorded them.
    """

    def decide(node: int, merged: dict[int, int]) -> bool:
        return node in marked

    _, conflict = _bottom_up_sweep(tree, partition, decide)
    return conflict


def _bottom_up_sweep(tree, partition, decide) -> tuple[frozenset[int], ConflictGraph]:
    """Shared engine: bottom-up S-set propagation with a marking callback.

    ``decide(node, merged)`` is called for every non-root node with the
    final reachability set of its subtree and returns whether the node's
    parent edge is marked (cutting propagation).
    """
    overcongested: set[int] = set()
    incidences: dict[int, dict[int, int]] = {}
    # reachable[v]: part -> representative, for the subtree of v inside T \ O.
    reachable: dict[int, dict[int, int]] = {}
    for node in _nodes_by_decreasing_depth(tree):
        # Merge children's sets (small-to-large) across unmarked edges.
        merged: dict[int, int] | None = None
        for child in tree.children_of(node):
            if child in overcongested:
                reachable.pop(child, None)
                continue
            child_set = reachable.pop(child)
            if merged is None or len(child_set) > len(merged):
                merged, child_set = child_set, merged if merged is not None else {}
            for part_index, representative in child_set.items():
                merged.setdefault(part_index, representative)
        if merged is None:
            merged = {}
        own_part = partition.part_index_of(node)
        if own_part is not None:
            # Overwrite (not setdefault): the recorded representative must be
            # the *topmost* part node on the propagation path, so that the
            # tree path from any ancestor edge down to the representative
            # contains no other node of the same part. The paper's
            # "potentially present" probability argument (case II) needs the
            # path's survival to be independent of the part's own sampling.
            merged[own_part] = node
        if tree.parent_of(node) is not None and decide(node, merged):
            overcongested.add(node)
            incidences[node] = dict(merged)
            # Marked: do not keep propagating upward.
            reachable[node] = {}
        else:
            reachable[node] = merged
    part_degrees = {i: 0 for i in range(len(partition))}
    for parts in incidences.values():
        for part_index in parts:
            part_degrees[part_index] += 1
    return frozenset(overcongested), ConflictGraph(incidences, part_degrees)


def ancestor_subgraphs(
    tree: RootedTree,
    partition: Partition,
    overcongested: frozenset[int],
    indices: tuple[int, ...] | None = None,
) -> dict[int, frozenset[int]]:
    """``H_i`` per part: all ancestor edges of ``P_i`` in the forest ``T \\ O``.

    For each node of the part, walks up until hitting a marked edge or the
    root; the union of traversed edges (as child endpoints) is ``H_i``.
    Walks are memoized per part so shared ancestor paths are traversed once.
    """
    wanted = indices if indices is not None else tuple(range(len(partition)))
    parent_of = tree.parent_map
    result: dict[int, frozenset[int]] = {}
    for index in wanted:
        edges: set[int] = set()
        visited: set[int] = set()
        for node in partition[index]:
            current = node
            while current not in visited:
                visited.add(current)
                if current in overcongested:
                    break
                parent = parent_of[current]
                if parent is None:
                    break
                edges.add(current)
                current = parent
        result[index] = frozenset(edges)
    return result


def steiner_prune(
    tree: RootedTree,
    part: frozenset[int],
    edges: frozenset[int],
) -> frozenset[int]:
    """Trim an ancestor-edge set to the per-block Steiner subtrees.

    The raw ``H_i`` of the proof climbs every part node to its component
    root in ``T \\ O``. For connecting the part's nodes, the chain *above*
    the highest junction of each component is dead weight: it adds
    congestion and routing rounds but joins nothing. This peels, from every
    local root downward, edges whose top endpoint has exactly one ``H``-edge
    below it and is not itself a part node. The result spans the same part
    nodes per block (block structure unchanged), is contained in the
    original set (congestion can only drop), and keeps Observation 2.6's
    dilation bound.
    """
    if not edges:
        return edges
    parent_of, children_of = tree.parent_map, tree.children_map
    remaining = set(edges)
    # h_children[x]: number of H-edges whose parent endpoint is x.
    h_children: dict[int, int] = {}
    for child in remaining:
        parent = parent_of[child]
        h_children[parent] = h_children.get(parent, 0) + 1
    # Local roots: parents that are not themselves a child endpoint in H.
    # Each peels its chain down to the first junction or part node. Chains
    # are disjoint, so every ``top`` still has its one H-edge below it.
    local_roots = [
        node
        for node, count in h_children.items()
        if count == 1 and node not in remaining and node not in part
    ]
    for top in local_roots:
        while True:
            # The unique H-edge below ``top``: its child is adjacent in T.
            for child in children_of[top]:
                if child in remaining:
                    break
            remaining.discard(child)
            if h_children.get(child) != 1 or child in part:
                break
            top = child
    return frozenset(remaining)


def build_partial_shortcut(
    graph: nx.Graph,
    tree: RootedTree,
    partition: Partition,
    delta: float,
    congestion_budget: int | None = None,
    block_budget: int | None = None,
    prune: bool = True,
) -> PartialShortcutResult:
    """Run the Theorem 3.1 construction with budgets derived from ``δ``.

    Defaults follow the paper exactly: congestion budget ``c = ⌈8·δ·D⌉``
    (with ``D = max(tree depth, 1)``) and block budget ``8δ``. When
    ``δ ≥ δ(G)``, the result satisfies ``result.succeeded`` (case I of the
    proof); when it does not, case II applies and
    :func:`repro.core.certifying.sample_dense_minor` can extract a minor of
    density exceeding ``δ`` from ``result``.

    Args:
        graph: host graph (only used for bookkeeping and later evaluation).
        tree: rooted tree of depth ≤ diameter (e.g. a BFS tree).
        partition: the parts.
        delta: minor-density parameter ``δ`` (> 0).
        congestion_budget: override ``c`` (for experiments).
        block_budget: override the satisfaction threshold ``8δ``.
        prune: trim each ``H_i`` to its per-block Steiner subtrees (see
            :func:`steiner_prune`); strictly improves congestion and
            routing cost, preserves all theorem guarantees. Disable to get
            the proof's raw ancestor-edge assignment verbatim.

    Raises:
        ShortcutError: if ``delta`` is not a finite real > 0, or ``tree``
            does not span ``graph``.
    """
    check_positive(delta, "delta")
    check_tree(tree, graph)
    if congestion_budget is None:
        congestion_budget = theorem31_congestion_budget(delta, tree.max_depth)
    if block_budget is None:
        block_budget = theorem31_block_budget(delta)
    overcongested, conflict = mark_overcongested_edges(tree, partition, congestion_budget)
    return PartialShortcutResult.from_marking(
        graph, tree, partition, delta, congestion_budget, block_budget,
        overcongested, conflict, prune=prune,
    )


def _nodes_by_decreasing_depth(tree: RootedTree):
    nodes = list(tree.nodes())
    nodes.reverse()
    return nodes
