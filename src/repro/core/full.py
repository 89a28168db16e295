"""Observation 2.7: from partial shortcuts to full shortcuts.

A partial shortcut satisfies at least half of the parts; iterating the
Theorem 3.1 construction on the still-unsatisfied parts therefore
terminates within ``log₂ k`` iterations, at the price of a ``log₂ k``
factor on the congestion (each iteration's edges obey the per-iteration
budget, and a single edge can be reused across iterations). The block
number — and hence the Observation 2.6 dilation bound ``b(2D+1)`` — is per
part and unaffected, because each part receives its ``H_i`` from exactly
one iteration.

The loop is shared by the centralized and the simulated constructions:
it takes the partial construction to run per iteration, and every
iteration runs on the same tree ``T`` (given, or built by the simulated
construction's first iteration), so the union of the per-iteration ``H_i`` is one
``T``-restricted shortcut.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import networkx as nx

from repro.congest.stats import RoundStats
from repro.core.bounds import check_tree
from repro.core.partial import PartialShortcutResult, build_partial_shortcut
from repro.core.shortcut import TreeRestrictedShortcut
from repro.graphs.partition import Partition
from repro.graphs.trees import RootedTree
from repro.util.errors import ShortcutError

__all__ = ["FullShortcutResult", "build_full_shortcut"]


@dataclass
class FullShortcutResult:
    """A full shortcut with its construction history.

    Attributes:
        shortcut: the tree-restricted shortcut covering **every** part.
        iterations: how many partial-shortcut rounds were needed
            (Observation 2.7 bounds this by ``log₂ k`` when ``δ ≥ δ(G)``).
        delta_used: the δ of the final (successful) iteration — equal to the
            requested δ unless escalation was enabled and triggered.
        per_iteration: the raw partial results, for inspection.
        stats: the per-iteration stats composed sequentially (empty for
            the centralized construction).
        escalations: iterations that satisfied no part and doubled δ.
    """

    shortcut: TreeRestrictedShortcut
    iterations: int
    delta_used: float
    per_iteration: list[PartialShortcutResult]
    stats: RoundStats
    escalations: int

    @property
    def congestion_bound(self) -> int:
        """Provable congestion bound: sum of the per-iteration budgets."""
        return sum(result.congestion_budget for result in self.per_iteration)


def build_full_shortcut(
    graph: nx.Graph,
    tree: RootedTree | None,
    partition: Partition,
    delta: float,
    escalate_on_stall: bool = False,
    seed_result: PartialShortcutResult | None = None,
    iteration_cache: object = None,
    partial: Callable[..., PartialShortcutResult] | None = None,
) -> FullShortcutResult:
    """Iterate Theorem 3.1 until every part has a shortcut (Observation 2.7).

    Args:
        graph, tree, partition: the instance (tree depth ≤ diameter).
            ``tree`` may be ``None`` when ``partial`` builds its own: the
            first iteration's tree is then used for every later one.
        delta: minor-density parameter. With ``delta ≥ δ(G)``, every
            iteration satisfies at least half the remaining parts and the
            loop finishes within ``⌈log₂ k⌉ + 1`` iterations. The loop is
            capped at ``2⌈log₂ k⌉ + 8`` iterations (generous slack over the
            theorem bound so escalation runs can finish).
        escalate_on_stall: when an iteration satisfies *no* part (case II:
            ``delta < δ(G)``), double δ and retry instead of raising. This
            yields the adaptive construction noted at the end of
            Section 3.1.
        seed_result: an already-computed first iteration (a
            :func:`~repro.core.partial.build_partial_shortcut` run over the
            *whole* ``partition`` at ``delta``), consumed instead of
            recomputing it — e.g. the successful case-I attempt the
            certifying construction just produced. Its parts and δ must
            match the request.
        iteration_cache: optional mapping memoizing *per-iteration* partial
            results, keyed by ``(sub_partition.parts, current_delta)`` —
            anything with ``get``/``__setitem__``. Distinct full-shortcut
            requests whose iteration sequences overlap (e.g. concurrent
            jobs sharing a graph whose partitions agree on the
            still-unsatisfied tail) then reuse each other's Theorem 3.1
            work. Safe to share because a
            :class:`~repro.core.partial.PartialShortcutResult` is a
            read-only product of its key (the construction is
            deterministic and consumes no randomness). The caller owns
            scoping the mapping to one ``(graph, tree)`` pair — the key
            does not include them.
        partial: the partial construction run per iteration, called as
            ``partial(graph, tree, sub_partition, delta)``; defaults to
            Theorem 3.1's :func:`~repro.core.partial.build_partial_shortcut`.

    Raises:
        ShortcutError: on stall without escalation, when the iteration cap
            is exceeded, on a mismatched ``seed_result``, or when ``tree``
            does not span ``graph``.
    """
    if tree is not None:
        check_tree(tree, graph)
    if partial is None:
        # Looked up per call, so a rebound module attribute is honoured.
        partial = build_partial_shortcut
    k = len(partition)
    if k == 0:
        raise ShortcutError("cannot build a shortcut for an empty part collection")
    if seed_result is not None and (
        seed_result.partition.parts != partition.parts or seed_result.delta != delta
    ):
        raise ShortcutError(
            "seed_result does not match the requested partition/delta"
        )
    max_iterations = 2 * max(1, math.ceil(math.log2(max(k, 2)))) + 8
    remaining = list(range(k))
    assigned: dict[int, frozenset[int]] = {}
    history: list[PartialShortcutResult] = []
    stats = RoundStats()
    current_delta = delta
    iterations = 0
    escalations = 0
    while remaining:
        if iterations >= max_iterations:
            raise ShortcutError(
                f"full shortcut did not converge within {max_iterations} iterations "
                f"({len(remaining)} parts remain); delta={current_delta} is likely "
                "far below the true minor density"
            )
        if seed_result is not None:
            result, seed_result = seed_result, None
        else:
            sub_partition = partition.restrict(graph, remaining)
            if iteration_cache is not None:
                cache_key = (sub_partition.parts, current_delta)
                result = iteration_cache.get(cache_key)
                if result is None:
                    result = partial(graph, tree, sub_partition, current_delta)
                    iteration_cache[cache_key] = result
            else:
                result = partial(graph, tree, sub_partition, current_delta)
        tree = result.tree
        history.append(result)
        stats = stats + result.stats
        iterations += 1
        if not result.satisfied:
            if not escalate_on_stall:
                raise ShortcutError(
                    f"iteration {iterations} satisfied no part at delta={current_delta}; "
                    "the graph has a denser minor (case II). Re-run with a larger delta, "
                    "escalate_on_stall=True, or use certify_or_shortcut()."
                )
            current_delta *= 2.0
            escalations += 1
            continue
        satisfied_set = set(result.satisfied)
        next_remaining = []
        for sub_index, original_index in enumerate(remaining):
            if sub_index in satisfied_set:
                assigned[original_index] = result.subgraphs[sub_index]
            else:
                next_remaining.append(original_index)
        remaining = next_remaining
    shortcut = TreeRestrictedShortcut(
        graph,
        partition,
        tree,
        [assigned[i] for i in range(k)],
        validate=False,
    )
    return FullShortcutResult(
        shortcut=shortcut,
        iterations=iterations,
        delta_used=current_delta,
        per_iteration=history,
        stats=stats,
        escalations=escalations,
    )

