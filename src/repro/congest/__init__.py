"""A synchronous CONGEST-model simulator with event-driven scheduling.

The CONGEST model (Peleg 2000): in each round every node may send one
``O(log n)``-bit message to each neighbor. The simulator enforces both the
one-message-per-edge-direction rule (structurally: an outbox maps each
neighbor to at most one payload) and the bit budget (via
:mod:`repro.util.bitsize`), and counts rounds, messages, node activations,
and per-edge congestion so distributed algorithms report *measured*
complexities.

Active-set semantics
--------------------

The default scheduler is *event-driven*: each round, only nodes in the
**active set** — those with a non-empty inbox or a raised keep-alive latch
from the previous round — are activated, via
:meth:`~repro.congest.node.NodeAlgorithm.on_wake` (which delegates to
``on_round`` unless overridden).  The contract is unchanged from lockstep:

* a node that neither receives, nor latched ``ctx.keep_alive()``, nor has
  a due ``ctx.schedule_wake()`` timer is passive and observes nothing — it
  is simply not called, which is indistinguishable from an empty-inbox
  ``on_round`` for any conforming algorithm;
* quiescence is an empty active set (no messages in flight, no latches,
  no pending timers), the same condition as lockstep's "every node passive
  in the same round"; when only timers remain, the clock fast-forwards to
  the earliest one — scheduled wakes are how the ack-driven Theorem 1.5
  sweep paces its streams without keep-alive polling;
* rounds are still globally synchronous — activation order within a round
  follows the graph's node order, so inbox insertion order (and therefore
  every observable behavior, round count, and message count) is
  byte-identical to the dense reference scheduler.  One caveat: a node's
  ``ctx.rng`` stream advances only when the node runs, so an algorithm
  that draws randomness during rounds where it is passive (empty inbox, no
  latch) would desynchronize its stream between schedulers — conforming
  algorithms draw from ``ctx.rng`` only in activations where they observe
  something or have latched keep-alive (all algorithms in this library
  qualify trivially: none use ``ctx.rng`` in ``on_round``).

The payoff is that simulator work is ``O(total messages + keep-alives)``
instead of ``O(n * rounds)`` — on thin-frontier workloads (BFS waves on
high-diameter graphs, sparse floods) this is the difference between
``O(m)`` and ``O(n * D)`` activations.  Pass ``scheduler="dense"`` to
:class:`~repro.congest.network.SyncNetwork` for the lockstep reference
loop (used by the equivalence tests, and by any exotic algorithm that acts
spontaneously on an empty inbox without latching keep-alive).

Scheduler backends
------------------

Scheduling is pluggable (:mod:`repro.congest.engine` — backends register
themselves with ``register_backend``): the shared message semantics
(validation, bandwidth, staging, accounting) live in one
``MessageFabric``, and a ``SchedulerBackend`` supplies the activation
strategy.  Besides ``"event"`` and ``"dense"``, ``scheduler="vectorized"``
(:mod:`repro.congest.vectorized`) runs whole rounds as numpy array passes
for algorithms that declare a kernel.  ``"event"`` also takes a
``latency_model=`` (registry in :mod:`repro.congest.asynchronous`): its
virtual clock delivers with pluggable per-edge latencies, lockstep under
the default ``uniform`` model and latency-realistic (reporting
``RoundStats.virtual_time`` and per-node completion times) under
``seeded-jitter``/``degree-proportional`` and the other models.
Per-node ``ctx.rng`` streams are derived from ``(run_seed, node_index)``,
making them invariant across backends.
"""

from repro.congest.network import NodeContext, SyncNetwork
from repro.congest.node import NodeAlgorithm
from repro.congest.stats import RoundStats

__all__ = ["SyncNetwork", "NodeContext", "NodeAlgorithm", "RoundStats"]
