"""Round and message accounting for CONGEST executions."""

from __future__ import annotations

import functools
import operator
from copy import copy as _shallow
from dataclasses import dataclass, field, fields

__all__ = ["RoundStats", "POLICIES"]

# Composition policies. Every RoundStats field declares one in its
# metadata; sequential (`+`, `add_phase`) and parallel (`merge`)
# composition, `copy` and `check` are derived from the declarations, so a
# new counter cannot be forgotten by one of them.
SUM = "sum"  # a counter: adds under both compositions
SPAN = "span"  # a clock: adds sequentially, takes the max in parallel
KEY_SUM = "key-sum"  # a counter dict: key-wise sum under both
KEY_MAX = "key-max"  # a per-key clock: key-wise max under both
UNION = "union"  # a note tuple: order-preserving deduplicating union
NESTED = "nested"  # name -> RoundStats: key-wise, composing like the parent
POLICIES = (SUM, SPAN, KEY_SUM, KEY_MAX, UNION, NESTED)


def _policy(policy: str, total: str | None = None, partition: bool = False):
    """A field declaration carrying its composition policy.

    ``total`` names the scalar counter a ``KEY_SUM`` histogram sums to;
    ``partition`` marks a ``NESTED`` field whose entries partition the
    parent's counters. :meth:`RoundStats.check` verifies both identities.
    """
    metadata = {"policy": policy, "total": total, "partition": partition}
    if policy in (SUM, SPAN):
        return field(default=0, metadata=metadata)
    if policy == UNION:
        return field(default=(), metadata=metadata)
    return field(default_factory=dict, metadata=metadata)


@dataclass
class RoundStats:
    """Measured cost of a distributed execution (or a phase of one).

    Attributes:
        rounds: number of synchronous rounds executed.
        messages: total messages delivered.
        message_bits: total payload bits delivered.
        activations: number of node activations (``on_wake``/``on_round``
            calls in rounds >= 1).  Under the event-driven scheduler this is
            the true work measure — ``O(total messages)`` instead of the
            lockstep ``n * rounds``; under the dense scheduler it equals
            ``n * rounds`` by construction.
        messages_by_round: messages keyed by the round they were *sent* in.
            Round ``r`` sends are delivered in round ``r + 1``; round ``0``
            is the explicit entry for ``on_start`` emissions, so
            ``sum(messages_by_round.values()) == messages`` always holds and
            phase breakdowns sum to totals.  Keys are run-relative: summing
            two stats merges same-numbered rounds.
        edge_messages: per-directed-edge message counts ``(u, v) -> count``,
            the *measured* congestion of the execution (see
            :attr:`max_congestion`).
        virtual_time: the wall-model dimension — latency-weighted completion
            time in ticks, reported by latency-realistic executions (the
            ``event`` backend, the job layer and the packet scheduler under
            a non-uniform
            :class:`~repro.congest.asynchronous.LatencyModel`). 0 when
            transit is lockstep (no model or ``uniform``), where the
            wall-model time is :attr:`rounds`.
        completion_times: per-node last-activation virtual time, keyed by
            node id — the per-node completion profile of a latency-realistic
            run (a node is done when its last constituent activation is
            done).
        phases: optional named breakdown (phase name -> RoundStats); the
            top-level numbers are always the totals.
        notes: provenance annotations, e.g. the vectorized backend's
            record that a run was delegated to the ``event`` backend
            (its documented fallback for algorithms without a
            :class:`~repro.congest.vectorized.VectorKernel`). Never part
            of the cross-backend equivalence projection — notes describe
            *how* a run executed, not what it cost.
        arbitration_stalls: message-ticks spent queued for an edge grant
            in the multi-tenant job layer (:mod:`repro.congest.jobs`):
            each message adds its grant tick minus its send tick, the
            number of tick ends it spent waiting. Zero for every
            single-tenant execution (a job running alone is never
            arbitrated against), so the counter is not part of the
            cross-backend equivalence projection.
        jobs: the per-job projection of a multi-tenant execution — job id
            -> that job's own :class:`RoundStats` (round/tick counters in
            the job's local clock). The top-level numbers are the fabric
            aggregate; per-job ``messages``/``message_bits``/
            ``activations``/``arbitration_stalls`` sum to it.

    How each field composes is declared once, in its ``metadata["policy"]``
    (see the policy constants above): ``+`` and :meth:`add_phase` are
    sequential composition, :meth:`merge` parallel composition.
    """

    rounds: int = _policy(SPAN)
    messages: int = _policy(SUM)
    message_bits: int = _policy(SUM)
    activations: int = _policy(SUM)
    messages_by_round: dict[int, int] = _policy(KEY_SUM, total="messages")
    edge_messages: dict[tuple[int, int], int] = _policy(KEY_SUM, total="messages")
    virtual_time: int = _policy(SPAN)
    completion_times: dict[int, int] = _policy(KEY_MAX)
    phases: dict[str, "RoundStats"] = _policy(NESTED)
    notes: tuple[str, ...] = _policy(UNION)
    arbitration_stalls: int = _policy(SUM)
    jobs: dict[str, "RoundStats"] = _policy(NESTED, partition=True)

    @property
    def max_congestion(self) -> int:
        """Measured congestion: the max messages sent over one directed edge."""
        return max(self.edge_messages.values(), default=0)

    def record_message(
        self, source: int, target: int, bits: int, round_no: int
    ) -> None:
        """Charge one delivered message to every counter at once.

        ``round_no`` is the round the message was *sent* in (``0`` for
        ``on_start`` emissions, delivered in round 1).
        """
        self.messages += 1
        self.message_bits += bits
        self.messages_by_round[round_no] = self.messages_by_round.get(round_no, 0) + 1
        key = (source, target)
        self.edge_messages[key] = self.edge_messages.get(key, 0) + 1

    def __add__(self, other: "RoundStats") -> "RoundStats":
        """Sequential composition: rounds and messages add.

        Duplicate phase names are *summed*, never overwritten — mirroring
        the uniqueness guarantee :meth:`add_phase` enforces (re-running a
        named phase accumulates its cost instead of silently dropping the
        left operand's accounting).
        """
        return self._compose(other, parallel=False)

    def merge(self, other: "RoundStats") -> "RoundStats":
        """Parallel composition: counters sum, rounds take the *max*.

        This is how the stats of executions that run side by side combine —
        the job layer folds its tenants with it
        (:meth:`repro.congest.jobs.JobScheduler._aggregate`): their round
        counts overlap (max) while their activations, messages, bits, and
        per-edge/per-round counters partition the totals (sum). The
        operation is associative and commutative, so any merge order over
        the list yields the same totals (tested).
        """
        return self._compose(other, parallel=True)

    def _compose(self, other: "RoundStats", parallel: bool) -> "RoundStats":
        return RoundStats(**{
            name: _RULES[policy][parallel](getattr(self, name), getattr(other, name))
            for name, policy in _FIELDS
        })

    def copy(self) -> "RoundStats":
        """Deep copy (nested phases and jobs included)."""
        copied = {name: _shallow(getattr(self, name)) for name, _ in _FIELDS}
        for name, policy in _FIELDS:
            if policy == NESTED:
                copied[name] = {key: stats.copy() for key, stats in copied[name].items()}
        return RoundStats(**copied)

    def add_phase(self, name: str, stats: "RoundStats") -> None:
        """Record ``stats`` as a named phase and add it to the totals.

        Phase names must be unique; re-using one raises ``ValueError`` so
        silently overwritten accounting can't happen.
        """
        if name in self.phases:
            raise ValueError(f"phase {name!r} already recorded")
        self.phases[name] = stats
        for field_name, policy in _FIELDS:
            if field_name != "phases":
                setattr(self, field_name, _RULES[policy][False](
                    getattr(self, field_name), getattr(stats, field_name)
                ))

    def check(self) -> None:
        """Verify the counter identities the field declarations promise.

        Every ``KEY_SUM`` histogram sums to the counter it declares as its
        ``total`` (``messages == Σ messages_by_round == Σ edge_messages``);
        every ``SUM``/``KEY_SUM`` counter equals its sum over the entries of
        a ``partition`` field (a job aggregate over its per-job
        projection). Nested stats are checked too.

        Raises:
            ValueError: naming every identity that does not hold.
        """
        problems = [
            f"sum of {name} != {total}" for name, total in _TOTALS
            if sum(getattr(self, name).values()) != getattr(self, total)
        ]
        for part in _PARTITIONS:
            if getattr(self, part):
                folded = functools.reduce(RoundStats.merge, getattr(self, part).values())
                problems += [
                    f"{name} over {part} do not sum to the total"
                    for name, policy in _FIELDS
                    if policy in (SUM, KEY_SUM) and getattr(folded, name) != getattr(self, name)
                ]
        if problems:
            raise ValueError("RoundStats identities violated: " + "; ".join(problems))
        for name, policy in _FIELDS:
            if policy == NESTED:
                for stats in getattr(self, name).values():
                    stats.check()

    def summary(self) -> str:
        """One-line human-readable summary."""
        parts = [f"rounds={self.rounds}", f"messages={self.messages}"]
        if self.virtual_time:
            parts.append(f"virtual_time={self.virtual_time}")
        if self.activations:
            parts.append(f"activations={self.activations}")
        if self.edge_messages:
            parts.append(f"congestion={self.max_congestion}")
        if self.arbitration_stalls:
            parts.append(f"stalls={self.arbitration_stalls}")
        if self.jobs:
            parts.append(f"jobs={len(self.jobs)}")
        if self.phases:
            inner = ", ".join(f"{name}: {s.rounds}r" for name, s in self.phases.items())
            parts.append(f"phases[{inner}]")
        return " ".join(parts)


def _key_wise(combine):
    """Lift a value combiner to dicts: key-wise, keys present once pass through."""

    def compose(left: dict, right: dict) -> dict:
        merged = dict(left)
        for key, value in right.items():
            merged[key] = combine(merged[key], value) if key in merged else value
        return merged

    return compose


def _union(left: tuple, right: tuple) -> tuple:
    """Order-preserving deduplicating union of two note tuples."""
    return tuple(dict.fromkeys(left + right))


_FIELDS = tuple((f.name, f.metadata["policy"]) for f in fields(RoundStats))
_TOTALS = tuple(
    (f.name, f.metadata["total"]) for f in fields(RoundStats) if f.metadata["total"]
)
_PARTITIONS = tuple(f.name for f in fields(RoundStats) if f.metadata["partition"])
_KEY_SUM, _KEY_MAX = _key_wise(operator.add), _key_wise(max)
# policy -> (sequential composition, parallel composition)
_RULES = {
    SUM: (operator.add, operator.add),
    SPAN: (operator.add, max),
    KEY_SUM: (_KEY_SUM, _KEY_SUM),
    KEY_MAX: (_KEY_MAX, _KEY_MAX),
    UNION: (_union, _union),
    NESTED: (_key_wise(operator.add), _key_wise(RoundStats.merge)),
}
