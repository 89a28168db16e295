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
scheduler backend runs the node or in which order. The stream is derived
when the node's context is built but seeded on its first draw: most
algorithms never draw, and the SHA-256 plus Mersenne Twister seeding is
most of what a context costs to build.
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


def _node_seed(run_seed: int, node_index: int) -> int:
    digest = hashlib.sha256(f"node:{run_seed}:{node_index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


# The Mersenne Twister's own draws; every other random.Random method is
# built on these two.
_mt_random = random.Random.random
_mt_getrandbits = random.Random.getrandbits


class _NodeStream(random.Random):
    """``random.Random(_node_seed(run_seed, node_index))``, seeded on first use.

    Construction only records the key. The first call to :meth:`random`,
    :meth:`getrandbits` or :meth:`getstate` derives the seed and seeds the
    generator; :meth:`setstate` and :meth:`seed` replace the stream, so they
    just drop the key. Every other method draws through ``random`` or
    ``getrandbits``, so the stream is the eager generator's, draw for draw.
    Pickling and copying go through ``getstate``/``setstate``, as for any
    ``random.Random``.
    """

    __slots__ = ("_key",)

    # random.Random.__init__ sets this; seed and setstate still do.
    gauss_next = None

    def __init__(self, run_seed: int | None = None, node_index: int | None = None):
        # random.Random.__init__ would seed now. The C base allocates its
        # state unseeded for a subclass, so nothing is seeded here. Unpickling
        # and copying call this without a key, then setstate.
        self._key = None if run_seed is None else (run_seed, node_index)

    def _derive(self) -> None:
        key, self._key = self._key, None
        random.Random.seed(self, _node_seed(*key))

    def random(self) -> float:
        if self._key is not None:
            self._derive()
        return _mt_random(self)

    def getrandbits(self, k: int) -> int:
        if self._key is not None:
            self._derive()
        return _mt_getrandbits(self, k)

    def getstate(self):
        if self._key is not None:
            self._derive()
        return random.Random.getstate(self)

    def setstate(self, state) -> None:
        self._key = None
        random.Random.setstate(self, state)

    def seed(self, *args, **kwargs) -> None:
        self._key = None
        random.Random.seed(self, *args, **kwargs)


def derive_node_rng(run_seed: int, node_index: int) -> random.Random:
    """A per-node generator derived deterministically from the run seed.

    The seed is SHA-256 over ``(run_seed, node_index)``, so a node's stream
    depends only on the run and its position in the graph's node order —
    never on global iteration order or scheduler backend. This is what lets
    every backend produce byte-identical executions, whatever order it
    activates nodes in.

    The generator is seeded on its first draw, not here: a node that never
    draws costs no hashing and no Mersenne Twister seeding. Its stream is
    identical to the eager ``random.Random(seed)``'s.
    """
    return _NodeStream(run_seed, node_index)


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
