"""EdgeQueues against a plain reference: one FIFO per (edge, slot).

The queue keeps an edge with one queued slot as a bare FIFO and switches
to a slot map when a second slot arrives. The reference below always
keeps the slot map; grants, grant order, rng draws, drops and pointers
must match it on random push/drop/resolve sequences.
"""

import random
from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.congest.engine import EdgeQueues


class _ReferenceQueues:
    """Per-edge ``slot -> deque`` maps, round-robin over slots, one grant
    per edge per tick."""

    def __init__(self, order=None, rng=None):
        self.rng = rng
        self.edges = {}
        self.pointers = {}
        self._first = None if order is not None else {}
        self.order = order if order is not None else self._first.__getitem__

    def push(self, edge, entry, slot=0):
        slots = self.edges.get(edge)
        if slots is None:
            slots = self.edges[edge] = {}
            if self._first is not None:
                self._first.setdefault(edge, len(self._first))
        slots.setdefault(slot, deque()).append(entry)

    def drop(self, slot):
        dropped = []
        for edge in list(self.edges):
            slots = self.edges[edge]
            dropped.extend(slots.pop(slot, ()))
            if not slots:
                del self.edges[edge]
                self.pointers.pop(edge, None)
        return dropped

    def resolve(self):
        granted = []
        for edge in sorted(self.edges, key=self.order):
            slots = self.edges[edge]
            pointer = self.pointers.get(edge, -1)
            slot = min((s for s in slots if s > pointer), default=min(slots))
            fifo = slots[slot]
            if self.rng is not None and len(fifo) > 1:
                position = self.rng.randrange(len(fifo))
                fifo[position], fifo[0] = fifo[0], fifo[position]
            granted.append((edge, fifo.popleft()))
            self.pointers[edge] = slot
            if not fifo:
                del slots[slot]
                if not slots:
                    del self.edges[edge]
        return granted


@given(
    st.integers(0, 2**31 - 1),
    st.sampled_from([1, 2, 4]),
    st.booleans(),
    st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_matches_reference_property(seed, num_slots, random_grants, sort_key):
    script = random.Random(seed)
    order = (lambda edge: (edge[1], edge[0])) if sort_key else None
    queues = EdgeQueues(order=order, rng=random.Random(seed) if random_grants else None)
    reference = _ReferenceQueues(order=order, rng=random.Random(seed) if random_grants else None)
    entry = 0
    for _ in range(40):
        for _ in range(script.randint(0, 6)):
            edge = (script.randrange(4), script.randrange(4))
            slot = script.randrange(num_slots)
            entry += 1
            queues.push(edge, entry, slot)
            reference.push(edge, entry, slot)
        if script.random() < 0.1:
            slot = script.randrange(num_slots)
            assert queues.drop(slot) == reference.drop(slot)
        assert queues.resolve() == reference.resolve()
        assert list(queues.edges) == list(reference.edges)
        assert queues.pointers == reference.pointers
