"""Message bit-size accounting for the CONGEST simulator.

The CONGEST model allows ``O(log n)`` bits per message. To keep the
simulator honest we charge every payload an explicit bit count: integers
cost their binary length, tuples cost the sum of their fields plus a small
per-field framing cost. Algorithms whose messages exceed the per-round
budget raise :class:`repro.util.errors.CongestViolation` at send time.

:func:`payload_bits` is called once per payload object of an outbox (a
payload sent to consecutive targets is sized once; see
:meth:`repro.congest.engine.MessageFabric.validate`), so the common
payloads — an ``int`` and a flat tuple of ``int`` fields — are sized in
one pass with exact type tests and no recursion. Every other payload takes
the general rules, which are the same for both paths.
"""

from __future__ import annotations

__all__ = ["bits_for_int", "payload_bits"]

# Framing cost charged per field of a structured payload. This models the
# constant-factor overhead of encoding field boundaries; any constant works
# because CONGEST budgets are O(log n) with an arbitrary constant.
_FIELD_OVERHEAD_BITS = 2

# None is encoded as a 1-bit "absent" marker.
_NONE_BITS = 1

# Booleans are a single bit.
_BOOL_BITS = 1


def bits_for_int(value: int) -> int:
    """Number of bits to encode ``value`` (sign + magnitude, minimum 1)."""
    magnitude = abs(value)
    return max(1, magnitude.bit_length()) + (1 if value < 0 else 0)


def payload_bits(payload: object) -> int:
    """Compute the bit size of a message payload.

    Supported payload types: ``int``, ``bool``, ``None``, ``str`` (8 bits per
    character), ``float`` (64 bits), and (possibly nested) tuples/lists of
    these. Anything else raises :class:`TypeError` — the simulator refuses
    to guess sizes for arbitrary objects.
    """
    # `type(...) is int` keeps bool (an int subclass, 1 bit) off the fast path.
    kind = type(payload)
    if kind is int:
        return (payload.bit_length() or 1) + (payload < 0)
    if kind is tuple and payload:
        total = 0
        for item in payload:
            if type(item) is int:
                total += (item.bit_length() or 1) + (item < 0) + _FIELD_OVERHEAD_BITS
            else:
                total += _general_bits(item) + _FIELD_OVERHEAD_BITS
        return total
    return _general_bits(payload)


def _general_bits(payload: object) -> int:
    """The size rules for every payload type, recursing into containers."""
    if payload is None:
        return _NONE_BITS
    if isinstance(payload, bool):
        return _BOOL_BITS
    if isinstance(payload, int):
        return bits_for_int(payload)
    if isinstance(payload, float):
        return 64
    if isinstance(payload, str):
        return 8 * max(1, len(payload))
    if isinstance(payload, (tuple, list)):
        if not payload:
            # An empty container still occupies the channel: charge the
            # per-field framing minimum so "send ()" is not a zero-cost
            # signaling side channel (every other payload pays >= 1 bit).
            return _FIELD_OVERHEAD_BITS
        return sum(payload_bits(item) + _FIELD_OVERHEAD_BITS for item in payload)
    raise TypeError(f"cannot size payload of type {type(payload).__name__}")
