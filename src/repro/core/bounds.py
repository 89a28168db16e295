"""The paper's bound formulas, in one place, and the checks on their inputs.

Tests and benchmarks compare *measured* quantities against these exact
expressions, so the constants live here rather than being re-derived in
each experiment. Every construction entry point checks ``δ`` and the
tree whose depth fixes ``c = 8δD`` with :func:`check_positive` and
:func:`check_tree` before computing a budget.
"""

from __future__ import annotations

import math
import numbers
from weakref import WeakSet

import networkx as nx

from repro.graphs.adjacency import graph_memo
from repro.graphs.trees import RootedTree
from repro.util.errors import GraphStructureError, ShortcutError

__all__ = [
    "check_positive",
    "check_tree",
    "theorem31_congestion_budget",
    "theorem31_block_budget",
    "observation26_dilation_bound",
    "theorem12_congestion_bound",
    "theorem12_dilation_bound",
    "lemma32_quality_bound",
    "baseline_quality_bound",
]


def check_positive(value: object, name: str) -> None:
    """Raise :class:`ShortcutError` unless ``value`` is a finite real > 0."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not 0 < value < math.inf:
        raise ShortcutError(f"{name} must be a finite real number > 0, got {value!r}")


def check_tree(tree: RootedTree, graph: nx.Graph) -> None:
    """Raise :class:`ShortcutError` unless ``tree`` spans ``graph``.

    A passed verdict is memoized on the graph by
    :func:`~repro.graphs.adjacency.graph_memo`, which any structural
    mutation clears, so re-checking a tree carried through one query's
    phases and iterations costs one O(n) walk in all.
    """
    spanning = graph_memo(graph, "repro.spanning_trees", WeakSet)
    if tree in spanning:
        return
    try:
        tree.validate_on(graph)
    except GraphStructureError as error:
        raise ShortcutError(f"the tree does not span its graph: {error}") from None
    if len(tree) != len(graph):
        raise ShortcutError(
            f"the tree does not span its graph: {len(tree)} of {len(graph)} nodes"
        )
    spanning.add(tree)


def theorem31_congestion_budget(delta: float, depth: int) -> int:
    """Theorem 3.1: partial-shortcut congestion budget ``c = 8δD``."""
    return math.ceil(8 * delta * max(depth, 1))


def theorem31_block_budget(delta: float) -> int:
    """Theorem 3.1: partial-shortcut block budget ``8δ``."""
    return math.ceil(8 * delta)


def observation26_dilation_bound(blocks: int, depth: int) -> int:
    """Observation 2.6: a ``b``-block tree-restricted shortcut has dilation ≤ ``b(2D+1)``."""
    return blocks * (2 * depth + 1)


def theorem12_congestion_bound(delta: float, depth: int, num_parts: int) -> float:
    """Theorem 1.2 via Observation 2.7: full congestion ≤ ``8δD·log₂ k``.

    The paper states ``O(δD log n)``; the concrete constant from iterating
    the 8δD partial budget ``⌈log₂ k⌉`` times is used here (``k ≤ n``).
    """
    iterations = max(1.0, math.ceil(math.log2(max(num_parts, 2))))
    return 8 * delta * max(depth, 1) * iterations


def theorem12_dilation_bound(delta: float, depth: int) -> float:
    """Theorem 1.2: full dilation ≤ ``8δ·(2D + 1)`` (block bound × Obs 2.6)."""
    return math.ceil(8 * delta) * (2 * max(depth, 1) + 1)


def lemma32_quality_bound(delta_prime: int, diameter_prime: int) -> float:
    """Lemma 3.2: every (partial) shortcut has quality ≥ ``(δ'-3)·D'/6``."""
    return (delta_prime - 3) * diameter_prime / 6.0


def baseline_quality_bound(n: int, depth: int) -> float:
    """Section 1.3: the BFS-tree baseline has quality ≤ ``2D + 2√n``."""
    return 2 * depth + 2 * math.sqrt(n)
