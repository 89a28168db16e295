"""Per-node algorithm interface for the CONGEST simulator."""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.congest.network import NodeContext

__all__ = ["NodeAlgorithm"]


class NodeAlgorithm:
    """Base class for a node's state machine.

    Subclasses override :meth:`on_round`. Each round the network calls it
    with the messages received *this round* (sent by neighbors in the
    previous round); the return value is the outbox: a mapping from
    neighbor ids to payloads (at most one per neighbor — the CONGEST rule).

    A node that returns an empty outbox, does not call
    ``ctx.keep_alive()``, and has no pending ``ctx.schedule_wake()`` timer
    is considered passive; the network stops when every node is passive in
    the same round (quiescence).

    Two wake-up controls exist for silent nodes. ``ctx.keep_alive()``
    requests activation *next* round (polling); ``ctx.schedule_wake(d)``
    requests activation ``d`` rounds out. On the timer-native backend
    (``event``) a scheduled wake costs exactly one activation at
    the wake round; on the degrade backend (``dense``) the
    node may be woken with an empty inbox on every round up to it, so a
    conforming algorithm treats any wake before its own readiness condition
    as a no-op (no sends, no state changes, no ``ctx.rng`` draws). Ack-
    driven algorithms (the sweep in :mod:`repro.core.distributed`, the
    top-k pipeline) only ever use ``schedule_wake(1)`` to pace a stream of
    sends, for which the two behaviors coincide.

    This conformance contract is mechanically enforced twice over. The
    *static* half is ``repro lint`` (:mod:`repro.analysis`): the
    ``DET-RNG``/``DET-ORDER``/``DET-WALL`` rules ban the nondeterminism
    sources a non-conforming wake would need, and ``PROTO-ROUND``/
    ``PROTO-STATE`` ban the round-counter and shared-state escapes. The
    *dynamic* half is the runtime sanitizer
    (``SyncNetwork(..., sanitize=True)`` or ``REPRO_SANITIZE=1``): the
    degrade backends wrap every spurious wake in
    :func:`~repro.congest.engine.checked_spurious_wake`, which raises
    :class:`~repro.util.errors.CongestViolation` on any send, state
    change, ``ctx.rng`` draw, or wake-up latch — at the offending node
    and round, instead of as a byte-equivalence diff far downstream.

    Under the event-driven scheduler (the default, see
    :mod:`repro.congest.network`), a passive node with an empty inbox is
    not activated at all — it simply observes nothing, which is
    indistinguishable from being called with an empty inbox for any
    algorithm honoring the contract above and not consuming ``ctx.rng``
    (or other external state) during passive rounds.  :meth:`on_wake` is the
    activation entry point; it defaults to delegating to :meth:`on_round`,
    so existing algorithms need no changes.  Event-native algorithms may
    override :meth:`on_wake` directly as an opt-in fast path: it is only
    ever invoked with a non-empty inbox or after the node latched
    ``keep_alive`` in its previous activation, so empty-inbox polling
    branches can be dropped.
    """

    #: Columnar companion kernel for the vectorized scheduler backend, or
    #: ``None`` (the default) for interpreted-only algorithms. Point this
    #: at a :class:`repro.congest.vectorized.VectorKernel` subclass to opt
    #: the algorithm into whole-round array execution. A run executes
    #: on the kernel only when every node runs this one class; any other
    #: run is transparently delegated to the ``event`` backend (recorded
    #: in ``stats.notes``).
    vector_kernel = None

    def on_start(self, ctx: "NodeContext") -> dict[int, object]:
        """Called once before round 1; returns the initial outbox."""
        return {}

    def on_round(self, ctx: "NodeContext", inbox: dict[int, object]) -> dict[int, object]:
        """Process one round. ``inbox`` maps sender id -> payload."""
        raise NotImplementedError

    def on_wake(self, ctx: "NodeContext", inbox: dict[int, object]) -> dict[int, object]:
        """Event-scheduler activation: called only when there is something
        to observe (non-empty ``inbox``) or the node kept itself alive.

        Defaults to :meth:`on_round` — override for an event-native fast
        path.  The dense scheduler never calls this.
        """
        return self.on_round(ctx, inbox)

    def result(self) -> object:
        """Final per-node output, collected by the network after the run."""
        return None
