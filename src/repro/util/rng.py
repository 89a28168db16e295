"""Randomness helpers.

All stochastic code in the library accepts either a seed, a
:class:`random.Random` instance, or ``None`` and funnels it through
:func:`ensure_rng`, so experiments are reproducible end to end.

:func:`part_sample_hash` implements the *shared-seed sampling* trick used by
the distributed shortcut construction (Theorem 1.5): every node of a part
must make the same inclusion decision without intra-part communication, so
the decision is a deterministic hash of ``(part_id, seed)`` rather than a
per-node coin flip.

:func:`derive_node_rng` plays the same role for the simulator's per-node
randomness: each node's stream is a deterministic function of
``(run_seed, node_index)``, so the streams are identical no matter which
scheduler backend runs the node or in which order.
"""

from __future__ import annotations

import hashlib
import random

__all__ = ["ensure_rng", "part_sample_hash", "derive_node_rng"]


def ensure_rng(seed: int | random.Random | None) -> random.Random:
    """Return a :class:`random.Random` for any accepted seed spec.

    Accepts an existing generator (returned as-is), an integer seed, or
    ``None`` (fresh nondeterministic generator).
    """
    if isinstance(seed, random.Random):
        return seed
    return random.Random(seed)


def derive_node_rng(run_seed: int, node_index: int) -> random.Random:
    """A per-node generator derived deterministically from the run seed.

    The seed is SHA-256 over ``(run_seed, node_index)``, so a node's stream
    depends only on the run and its position in the graph's node order —
    never on global iteration order or scheduler backend. This is what lets
    every backend produce byte-identical executions, whatever order it
    activates nodes in.
    """
    digest = hashlib.sha256(f"node:{run_seed}:{node_index}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def part_sample_hash(part_id: int, seed: int, probability: float) -> bool:
    """Deterministically decide whether a part is sampled.

    Every node that knows ``part_id`` and the broadcast ``seed`` computes the
    same boolean, emulating a shared coin with bias ``probability`` without
    any communication. The hash is SHA-256 over the pair, mapped to
    ``[0, 1)``.

    Raises:
        ValueError: if ``probability`` is outside ``[0, 1]``.
    """
    if not 0.0 <= probability <= 1.0:
        raise ValueError(f"probability must be in [0, 1], got {probability}")
    digest = hashlib.sha256(f"{part_id}:{seed}".encode()).digest()
    value = int.from_bytes(digest[:8], "big") / float(1 << 64)
    return value < probability
