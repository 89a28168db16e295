"""A greedy first-come-first-served shortcut constructor (ablation arm).

This is the obvious thing one would try *without* the paper's theorem: go
through the parts in some order and give each part its (Steiner-pruned)
ancestor edges, except that an edge whose load has already reached a cap is
treated as removed for all later parts. Compared with the Theorem 3.1
marking, the cap is enforced *greedily per arrival order* instead of
globally bottom-up — so early parts ride free while late parts get chopped
into many blocks, and no dense-minor dichotomy protects the outcome.

Experiment E14 measures the gap: on adversarial part collections the greedy
construction produces parts with block counts (hence dilation) far above
8δ, while the theorem's marking distributes the damage evenly. This
quantifies what the paper's structural insight actually buys over greed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import networkx as nx

from repro.core.bounds import theorem31_congestion_budget
from repro.core.partial import steiner_prune
from repro.core.shortcut import TreeRestrictedShortcut
from repro.graphs.partition import Partition
from repro.graphs.trees import RootedTree
from repro.util.errors import ShortcutError
from repro.util.rng import ensure_rng

__all__ = ["GreedyShortcutResult", "greedy_shortcut"]


@dataclass
class GreedyShortcutResult:
    """Output of the greedy constructor.

    Attributes:
        shortcut: the assignment (every part gets *something*, possibly ∅).
        congestion_cap: the per-edge load cap used.
        saturated_edges: edges that hit the cap (the greedy analogue of O).
    """

    shortcut: TreeRestrictedShortcut
    congestion_cap: int
    saturated_edges: frozenset[int]


def greedy_shortcut(
    graph: nx.Graph,
    tree: RootedTree,
    partition: Partition,
    delta: float,
    congestion_cap: int | None = None,
    order: str = "index",
    rng: int | random.Random | None = None,
) -> GreedyShortcutResult:
    """First-come-first-served tree-restricted shortcut assignment.

    Args:
        graph, tree, partition: the instance.
        delta: used only to default the cap to the paper's ``8δD``.
        congestion_cap: per-edge load limit (default ``⌈8δD⌉``).
        order: ``"index"`` (part order as given), ``"random"`` (shuffled),
            or ``"large_first"`` (big parts claim edges first).
        rng: for the random order.

    Raises:
        ShortcutError: on a non-positive cap or unknown order.
    """
    if congestion_cap is None:
        congestion_cap = theorem31_congestion_budget(delta, tree.max_depth)
    if congestion_cap < 1:
        raise ShortcutError(f"congestion cap must be >= 1, got {congestion_cap}")
    rng = ensure_rng(rng)
    indices = list(range(len(partition)))
    if order == "random":
        rng.shuffle(indices)
    elif order == "large_first":
        indices.sort(key=lambda i: -len(partition[i]))
    elif order != "index":
        raise ShortcutError(f"unknown order {order!r}")

    load: dict[int, int] = {}
    saturated: set[int] = set()
    assignments: dict[int, frozenset[int]] = {}
    for index in indices:
        part = partition[index]
        edges: set[int] = set()
        visited: set[int] = set()
        for node in part:
            current = node
            while current not in visited:
                visited.add(current)
                if current in saturated:
                    break
                parent = tree.parent_of(current)
                if parent is None:
                    break
                edges.add(current)
                current = parent
        pruned = steiner_prune(tree, part, frozenset(edges))
        for child in pruned:
            load[child] = load.get(child, 0) + 1
            if load[child] >= congestion_cap:
                saturated.add(child)
        assignments[index] = pruned

    shortcut = TreeRestrictedShortcut(
        graph,
        partition,
        tree,
        [assignments[i] for i in range(len(partition))],
        validate=False,
    )
    return GreedyShortcutResult(
        shortcut=shortcut,
        congestion_cap=congestion_cap,
        saturated_edges=frozenset(saturated),
    )
