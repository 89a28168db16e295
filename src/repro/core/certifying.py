"""Case (II) of the Theorem 3.1 proof: extracting a dense minor.

When the marking process leaves more than half of the parts with conflict
degree above ``8δ``, the paper's probabilistic argument produces a bipartite
minor ``B_P'`` of density exceeding δ:

* sample each part into ``P'`` independently with probability ``1/(4D)``;
* part-nodes of ``B_P'`` are the sampled parts (branch set = the part);
* edge-nodes are the overcongested edges ``e`` whose deeper endpoint
  ``v_e`` avoids all sampled parts (branch set = the component of ``v_e``
  in ``(T \\ O) \\ ⋃P'``);
* the incidence ``(e, P_i)`` becomes a minor edge when ``P_i ∈ P'`` and the
  tree path from ``v_e`` down to the stored representative (excluding the
  representative itself) avoids all sampled parts.

In expectation ``|E| - δ|V| > 0``, so retrying the sampling finds a witness
with probability Ω(1/D) per attempt. The result is a checkable
:class:`repro.graphs.minors.MinorWitness` certifying ``δ(G) > δ``.
"""

from __future__ import annotations

import random

import networkx as nx

from repro.core.partial import PartialShortcutResult, build_partial_shortcut
from repro.graphs.minors import MinorWitness
from repro.graphs.partition import Partition
from repro.graphs.trees import RootedTree
from repro.util.errors import ShortcutError
from repro.util.rng import ensure_rng

__all__ = ["sample_dense_minor", "certify_or_shortcut", "CertifiedOutcome"]

# Cap on δ doublings; δ = n always succeeds, so finite graphs stop sooner.
_MAX_ESCALATIONS = 40


def sample_dense_minor(
    result: PartialShortcutResult,
    rng: int | random.Random | None = None,
    max_attempts: int | None = None,
    validate: bool = True,
) -> MinorWitness | None:
    """Sample the bipartite minor ``B_P'`` until its density exceeds ``δ``.

    Args:
        result: a (typically failed, i.e. case-II) run of
            :func:`repro.core.partial.build_partial_shortcut`.
        rng: seed or generator.
        max_attempts: sampling attempts; defaults to ``64·D`` (success
            probability per attempt is Ω(1/D) in case II).
        validate: check the witness against the host graph before returning.

    Returns:
        A witness with ``density > result.delta``, or ``None`` if all
        attempts failed (expected when the instance is actually in case I).
    """
    rng = ensure_rng(rng)
    tree = result.tree
    depth = max(tree.max_depth, 1)
    if max_attempts is None:
        max_attempts = 64 * depth
    probability = 1.0 / (4.0 * depth)
    for _ in range(max_attempts):
        witness = _sample_once(result, rng, probability)
        if witness is None:
            continue
        if witness.density > result.delta:
            if validate:
                witness.validate(result.graph)
            return witness
    return None


def _sample_once(
    result: PartialShortcutResult,
    rng: random.Random,
    probability: float,
) -> MinorWitness | None:
    """One sampling round; returns the assembled ``B_P'`` (any density)."""
    partition = result.partition
    tree = result.tree
    sampled_parts = [
        i for i in range(len(partition)) if rng.random() < probability
    ]
    if not sampled_parts:
        return None
    sampled_nodes: set[int] = set()
    for index in sampled_parts:
        sampled_nodes |= partition[index]

    branch_sets: dict[object, frozenset[int]] = {
        ("part", index): partition[index] for index in sampled_parts
    }
    overcongested = result.overcongested

    # Edge-nodes: overcongested edges whose deeper endpoint avoids P'.
    edge_nodes: list[int] = [
        child for child in result.conflict.incidences if child not in sampled_nodes
    ]
    for child in edge_nodes:
        branch_sets[("edge", child)] = frozenset(
            _component_below(tree, child, overcongested, sampled_nodes)
        )

    sampled_set = set(sampled_parts)
    minor_edges: set[frozenset[object]] = set()
    for child in edge_nodes:
        for part_index, representative in result.conflict.incidences[child].items():
            if part_index not in sampled_set:
                continue
            if _path_avoids(tree, child, representative, sampled_nodes):
                minor_edges.add(frozenset((("edge", child), ("part", part_index))))
    return MinorWitness(branch_sets=branch_sets, minor_edges=frozenset(minor_edges))


def _component_below(
    tree: RootedTree,
    top: int,
    overcongested: frozenset[int],
    forbidden: set[int],
) -> list[int]:
    """Component of ``top`` in ``(T \\ O) \\ forbidden``, flooding downward.

    ``top`` is the deeper endpoint of a marked edge, hence the root of its
    component in ``T \\ O``; the component is therefore exactly the
    descendants reachable through unmarked edges and unforbidden nodes.
    """
    component = [top]
    stack = [top]
    while stack:
        node = stack.pop()
        for child in tree.children_of(node):
            if child in overcongested or child in forbidden:
                continue
            component.append(child)
            stack.append(child)
    return component


def _path_avoids(
    tree: RootedTree,
    top: int,
    representative: int,
    forbidden: set[int],
) -> bool:
    """True iff the tree path ``top → representative`` avoids forbidden nodes.

    The path includes ``top`` (the deeper endpoint ``v_e``) and excludes the
    representative itself, exactly as in the paper's "potentially present"
    condition. Walks upward from the representative via parent pointers.
    """
    current = tree.parent_of(representative)
    while current is not None:
        if current in forbidden:
            return False
        if current == top:
            return True
        current = tree.parent_of(current)
    # The representative was recorded as a descendant of ``top`` reachable in
    # T \ O, so the walk must pass through ``top``; reaching the root without
    # seeing it indicates a corrupted result object.
    raise ShortcutError(
        f"representative {representative} is not a descendant of edge endpoint {top}"
    )


class CertifiedOutcome:
    """Outcome of the certifying construction: a shortcut *and/or* a witness.

    Attributes:
        result: the final partial-shortcut run (case I: ``succeeded``).
        witness: a dense-minor witness proving the *previous* δ attempt was
            below δ(G), or ``None`` if the first attempt already succeeded.
        attempts: list of ``(delta, succeeded)`` pairs in order.
    """

    def __init__(
        self,
        result: PartialShortcutResult,
        witness: MinorWitness | None,
        attempts: list[tuple[float, bool]],
    ):
        self.result = result
        self.witness = witness
        self.attempts = attempts


def certify_or_shortcut(
    graph: nx.Graph,
    tree: RootedTree,
    partition: Partition,
    initial_delta: float = 1.0,
    rng: int | random.Random | None = None,
) -> CertifiedOutcome:
    """The certifying algorithm sketched at the end of Section 3.1.

    Runs the Theorem 3.1 construction with doubling δ. Whenever an attempt
    fails (case II), it extracts a dense-minor witness *explaining why* no
    better shortcut exists at that δ, then escalates. Terminates at the
    first δ whose construction succeeds, returning both the partial
    shortcut and the densest witness gathered — i.e. a certified sandwich
    ``witness.density < δ(G)`` and a shortcut of quality ``O(δ̂·D)``.

    Raises:
        ShortcutError: if no δ within ``_MAX_ESCALATIONS`` (40) doublings
            works (impossible for finite graphs: δ = n always succeeds).
    """
    rng = ensure_rng(rng)
    delta = initial_delta
    attempts: list[tuple[float, bool]] = []
    witness: MinorWitness | None = None
    for _ in range(_MAX_ESCALATIONS):
        result = build_partial_shortcut(graph, tree, partition, delta)
        attempts.append((delta, result.succeeded))
        if result.succeeded:
            return CertifiedOutcome(result, witness, attempts)
        candidate = sample_dense_minor(result, rng=rng)
        if candidate is not None and (witness is None or candidate.density > witness.density):
            witness = candidate
        delta *= 2.0
    raise ShortcutError(
        f"certifying construction did not converge within {_MAX_ESCALATIONS} escalations"
    )
