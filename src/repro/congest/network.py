"""The synchronous network: shared semantics behind pluggable scheduler backends.

One :class:`SyncNetwork` wraps a graph and executes a dictionary of
:class:`~repro.congest.node.NodeAlgorithm` instances in lockstep rounds:

* round ``r``: every node's ``on_round``/``on_wake`` consumes the messages
  sent to it in round ``r - 1`` and emits at most one message per neighbor;
* messages are validated against adjacency and the per-message bit budget;
* the run stops at quiescence (no messages in flight, no node keep-alive)
  or at ``max_rounds``.

Backend architecture
--------------------

``SyncNetwork`` owns the *semantics* — topology snapshot, bandwidth budget,
algorithm coverage, the run seed — and delegates *execution* to a
:class:`~repro.congest.engine.SchedulerBackend` chosen by name. The shared
per-message rules (outbox validation, bandwidth enforcement, staging for
delivery ``latency(e)`` ticks after the send,
:class:`~repro.congest.stats.RoundStats` accounting) live in one place,
:class:`~repro.congest.engine.MessageFabric`, so every backend enforces
them identically. Three backends are registered:

* ``"event"`` (default) — the event-driven *active-set* scheduler
  (:class:`~repro.congest.engine.EventBackend`). Per round, only nodes
  with a non-empty inbox, a raised keep-alive latch, or a due
  ``ctx.schedule_wake`` timer are activated (via
  :meth:`~repro.congest.node.NodeAlgorithm.on_wake`, which defaults to
  ``on_round``); quiescence falls out of an empty active set and timer
  wheel, and the clock fast-forwards over all-idle rounds. Total node
  activations are ``O(total messages + keep-alives + timer fires)``
  instead of ``O(n * rounds)``. It is also the latency-realistic
  backend: with ``latency_model=`` its virtual clock
  (:class:`~repro.congest.engine.Stepper`) delivers each message after
  its edge's per-edge latency. The default ``uniform`` model is lockstep
  (byte-identical to no model); a non-uniform model adds the
  ``RoundStats`` wall-model dimension (``virtual_time``, per-node
  ``completion_times``).
* ``"dense"`` — the seed lockstep loop
  (:class:`~repro.congest.engine.DenseBackend`): ``on_round`` on every node
  every round. The reference semantics for equivalence testing. Scheduled
  wakes degrade to keep-alive on this backend — see
  :meth:`~repro.congest.engine.NodeContext.schedule_wake` for the
  conformance contract that keeps results byte-identical anyway.
* ``"vectorized"`` — the columnar numpy backend
  (:class:`~repro.congest.vectorized.VectorizedBackend`, requires the
  ``repro[vectorized]`` extra): whole rounds execute as gather/apply/
  scatter array passes over a cached CSR adjacency for a single-class
  population whose class declares a
  :class:`~repro.congest.vectorized.VectorKernel`; every other run (no
  kernel, a refusing kernel, or mixed classes) is transparently delegated
  to ``event`` (recorded in ``stats.notes``), so the flag is always safe
  to pass.

The backend contract is strict: results, round counts, message counts,
bits, and per-edge congestion must be byte-identical across backends for
any conforming algorithm (``tests/congest/test_scheduler.py`` enforces
this); only the cost profile — activations, wall-clock — may differ. Two
invariants carry the guarantee: per-node RNG streams are derived from
``(run_seed, node_index)`` (never drawn in iteration order), and inboxes
are always materialized in sender-index order.

The per-message budget defaults to ``BANDWIDTH_FACTOR * ceil(log2 n)`` bits
— the constant in CONGEST's ``O(log n)`` is arbitrary, but fixing one keeps
algorithms honest: anything that tries to ship a whole subtree in one round
raises :class:`~repro.util.errors.CongestViolation`.
"""

from __future__ import annotations

import math
import os
import random

import networkx as nx

# Importing the backend modules is this module's registry bootstrap:
# repro.congest.engine registers event/dense at import, and the import
# below registers vectorized (as *unavailable* when numpy is missing).
# Backend classes are never named here; everything goes through
# get_backend() — enforced by ruff TID251 and the REG-BACKEND lint rule.
import repro.congest.vectorized
from repro.congest.asynchronous import resolve_latency_model
from repro.congest.engine import (
    NodeContext,
    available_schedulers,
    get_backend,
)
from repro.congest.node import NodeAlgorithm
from repro.congest.stats import RoundStats
from repro.util.errors import GraphStructureError
from repro.util.rng import ensure_rng

__all__ = [
    "SyncNetwork",
    "NodeContext",
    "BANDWIDTH_FACTOR",
    "validate_scheduler",
]

# Messages may carry up to BANDWIDTH_FACTOR * ceil(log2 n) bits. A small
# constant number of node ids / counters per message, as used by every
# algorithm in this library, fits comfortably.
BANDWIDTH_FACTOR = 8


def validate_scheduler(
    scheduler: str,
    exc: type[Exception] = ValueError,
    latency_model: object = None,
) -> None:
    """Raise ``exc`` on an invalid ``scheduler``/``latency_model``.

    API boundaries that thread ``scheduler``/``latency_model``
    arguments down to :class:`SyncNetwork` call this upfront (typically with
    their own error type) so a typo fails fast instead of deep inside — or,
    worse, being silently ignored on a code path that never builds a
    network. ``latency_model`` (a registered name or a
    :class:`~repro.congest.asynchronous.LatencyModel` instance) requires a
    backend whose ``supports_latency_models`` capability flag is set
    (currently only ``"event"``) — the others cannot honor per-edge
    latencies, so accepting one there would silently drop it. Driving the
    rejection from the class flag instead of a name list means a newly
    registered backend rejects latency models by default rather than
    silently ignoring them.
    """
    try:
        backend = get_backend(scheduler)
    except ValueError as err:
        # get_backend's message already mirrors the provider registry's
        # convention (unknown names list the registry; unavailable names
        # carry the install hint), uniformly at every boundary.
        raise exc(str(err)) from None
    if latency_model is not None:
        if not backend.supports_latency_models:
            capable = ", ".join(
                f"scheduler={name!r}"
                for name in available_schedulers()
                if get_backend(name).supports_latency_models
            )
            raise exc(
                f"latency_model requires {capable}; the {scheduler!r} "
                f"scheduler cannot honor per-edge latencies and would "
                f"ignore it"
            )
        resolve_latency_model(latency_model, exc)


class SyncNetwork:
    """Synchronous executor for a set of node algorithms on a graph.

    Args:
        graph: the communication topology.
        bandwidth_bits: per-message payload budget; defaults to
            ``BANDWIDTH_FACTOR * ceil(log2 n)``.
        enforce_bandwidth: disable only for experiments that deliberately
            exceed the model (never done in this library's algorithms).
        rng: seed or generator; one value is drawn per run to derive every
            node's ``ctx.rng`` stream from ``(run_seed, node_index)``.
        scheduler: ``"event"`` (active-set, default; takes latency
            models), ``"dense"`` (lockstep reference), or ``"vectorized"``
            (columnar numpy, requires the ``repro[vectorized]`` extra);
            see the module docstring.
        latency_model: per-edge latency assignment for the event backend —
            a registered name (``"uniform"``, ``"seeded-jitter"``,
            ``"degree-proportional"``) or a
            :class:`~repro.congest.asynchronous.LatencyModel` instance;
            ``None`` means uniform (lockstep). Rejected by ``dense`` and
            ``vectorized``.
        sanitize: the runtime conformance sanitizer — the dynamic twin of
            ``repro lint``'s static pass. When on, the degrade backend
            (``dense``) wraps every *spurious* wake (empty
            inbox, no keep-alive latch, no due timer) in
            :func:`~repro.congest.engine.checked_spurious_wake`, raising
            :class:`~repro.util.errors.CongestViolation` if the activation
            sends, draws from ``ctx.rng``, changes node state, or latches
            a wake-up — the contract that keeps backends byte-identical.
            ``None`` (default) consults the ``REPRO_SANITIZE`` environment
            variable (any value but ``""``/``"0"`` enables it), so whole
            test suites can run sanitized without threading the flag. The
            timer-native backend (``event``) never produces
            spurious wakes, so the flag is a no-op there by construction.

    Neighbor tuples and the node index used for deterministic activation
    ordering are snapshotted once per :meth:`run` (so graph mutations
    between runs are honored, as before) and built lazily on first access;
    the per-round loops do no per-round dict rebuilding, and a pure-kernel
    vectorized run never materializes the per-node neighbor tuples at all.
    Sends are validated against the graph's own adjacency mapping
    (``graph._adj``, the one networkx's algorithms read), which is live, so
    a run builds no neighbor sets and always sees the current edges.
    Neighbor *sets* are built only where a population is an induced
    subgraph (scoped jobs in :mod:`repro.congest.jobs`).
    """

    def __init__(
        self,
        graph: nx.Graph,
        bandwidth_bits: int | None = None,
        enforce_bandwidth: bool = True,
        rng: int | random.Random | None = None,
        scheduler: str = "event",
        latency_model: object = None,
        sanitize: bool | None = None,
    ):
        if graph.number_of_nodes() == 0:
            raise GraphStructureError("cannot build a network on an empty graph")
        validate_scheduler(scheduler, latency_model=latency_model)
        if sanitize is None:
            sanitize = os.environ.get("REPRO_SANITIZE", "") not in ("", "0")
        self.sanitize = bool(sanitize)
        self.graph = graph
        n = graph.number_of_nodes()
        if bandwidth_bits is None:
            bandwidth_bits = BANDWIDTH_FACTOR * max(1, math.ceil(math.log2(max(n, 2))))
        self.bandwidth_bits = bandwidth_bits
        self.enforce_bandwidth = enforce_bandwidth
        self.scheduler = scheduler
        self.latency_model = latency_model
        self._rng = ensure_rng(rng)
        self._build_tables()

    def _build_tables(self) -> None:
        """Snapshot the topology for the hot loops; adjacency stays lazy.

        ``_nodes`` is materialized eagerly (every backend and the
        coverage check need it); the ``_index``/``_neighbors`` dicts are
        built on first access and invalidated here, per run. The
        interpreted backends touch them immediately, so nothing changes
        for them — but a pure-kernel run on the vectorized backend never
        does, and skipping two O(n + m) dict builds is a measurable slice
        of its wall-clock budget.
        """
        self._nodes: tuple = tuple(self.graph.nodes())
        self._index_cache: dict | None = None
        self._neighbors_cache: dict | None = None

    @property
    def _index(self) -> dict:
        if self._index_cache is None:
            self._index_cache = {v: i for i, v in enumerate(self._nodes)}
        return self._index_cache

    @property
    def _neighbors(self) -> dict:
        if self._neighbors_cache is None:
            adj = self.graph._adj
            self._neighbors_cache = {v: tuple(adj[v]) for v in self._nodes}
        return self._neighbors_cache

    def run(
        self,
        algorithms: dict[int, NodeAlgorithm],
        max_rounds: int = 10**6,
        raise_on_timeout: bool = True,
    ) -> tuple[dict[int, object], RoundStats]:
        """Execute until quiescence (or ``max_rounds``).

        Args:
            algorithms: one algorithm instance per graph node.
            max_rounds: hard stop.
            raise_on_timeout: raise :class:`CongestViolation` if the run hits
                ``max_rounds`` without quiescing (off for algorithms that
                intentionally run forever and are sampled mid-flight).

        Returns:
            ``(results, stats)`` where ``results[v]`` is
            ``algorithms[v].result()``.

        Raises:
            GraphStructureError: if ``algorithms`` does not cover the nodes.
            CongestViolation: on model violations or timeout.
        """
        # Refresh the topology snapshot so callers that mutated the graph
        # after construction (the seed contract) see their changes.
        self._build_tables()
        nodes = self._nodes
        if len(algorithms) != len(nodes) or not all(map(algorithms.__contains__, nodes)):
            raise GraphStructureError("algorithms must cover exactly the graph nodes")
        # One draw per run: every per-node stream derives from this value
        # and the node's index, independent of backend.
        run_seed = self._rng.randrange(2**62)
        backend = get_backend(self.scheduler)()
        return backend.execute(self, algorithms, run_seed, max_rounds, raise_on_timeout)
