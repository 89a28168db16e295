"""Randomness helpers.

All stochastic code in the library accepts either a seed, a
:class:`random.Random` instance, a :class:`NodeStream`, or ``None`` and
funnels it through :func:`ensure_rng`, so experiments are reproducible end
to end.

:func:`part_sample_hash` implements the *shared-seed sampling* trick used by
the distributed shortcut construction (Theorem 1.5): every node of a part
must make the same inclusion decision without intra-part communication, so
the decision is a deterministic hash of ``(part_id, seed)`` rather than a
per-node coin flip.

:func:`derive_node_rng` plays the same role for the simulator's per-node
randomness: each node's stream is a deterministic function of
``(run_seed, node_index)``, so the streams are identical no matter which
scheduler backend runs the node or in which order. The stream is derived
when the node's context is built, but until its first use it holds only
that key and no generator state: most algorithms never draw, and a
``random.Random`` carries about 2.5 KB of Mersenne Twister state. Its
first use builds the eagerly seeded ``random.Random`` and forwards to it,
so the draws are that generator's, draw for draw. :func:`ensure_rng`
passes a stream through as it is.
"""

from __future__ import annotations

import hashlib
import random

__all__ = ["ensure_rng", "part_sample_hash", "derive_node_rng", "NodeStream"]


def ensure_rng(seed: int | random.Random | NodeStream | None) -> random.Random | NodeStream:
    """Return a generator for any accepted seed spec.

    Accepts an existing generator or :class:`NodeStream` (returned as-is),
    an integer seed, or ``None`` (fresh nondeterministic generator).
    """
    if isinstance(seed, (random.Random, NodeStream)):
        return seed
    return random.Random(seed)


def _node_seed(run_seed: int, node_index: int) -> int:
    digest = hashlib.sha256(f"node:{run_seed}:{node_index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


class NodeStream:
    """``random.Random(_node_seed(run_seed, node_index))``, built on first use.

    Until then the stream holds only its key. The first read of a generator
    attribute builds the generator; that read and every later one are
    forwarded to it, so the stream has the whole ``random.Random`` API.
    Dunder lookups are not forwarded. Pickling and copying keep an unused
    stream unbuilt and give a used one its own generator at the same state.
    """

    __slots__ = ("_key", "_stream")

    def __init__(self, run_seed: int, node_index: int):
        self._key = (run_seed, node_index)
        self._stream: random.Random | None = None

    def __getattr__(self, name: str):
        if name.startswith("__"):
            raise AttributeError(name)
        if self._stream is None:
            self._stream = random.Random(_node_seed(*self._key))
        return getattr(self._stream, name)

    def __getstate__(self):
        return self._key, None if self._stream is None else self._stream.getstate()

    def __setstate__(self, state) -> None:
        self._key, stream_state = state
        self._stream = None
        if stream_state is not None:
            self._stream = random.Random()
            self._stream.setstate(stream_state)


def derive_node_rng(run_seed: int, node_index: int) -> NodeStream:
    """A per-node stream derived deterministically from the run seed.

    The seed is SHA-256 over ``(run_seed, node_index)``, so a node's stream
    depends only on the run and its position in the graph's node order —
    never on global iteration order or scheduler backend. This is what lets
    every backend produce byte-identical executions, whatever order it
    activates nodes in.

    The stream holds only its key until its first use, so a node that never
    draws costs no hashing, no Mersenne Twister seeding and no generator
    state. Its first use builds the eagerly seeded ``random.Random(seed)``
    and forwards to it, draw for draw; :func:`ensure_rng` returns the
    stream as it is.
    """
    return NodeStream(run_seed, node_index)


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
