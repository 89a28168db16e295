"""The execution-engine layer: shared semantics, pluggable scheduler backends.

:class:`~repro.congest.network.SyncNetwork` defines *what* a CONGEST
execution means; this module defines *how* one is driven. The split is:

* :class:`MessageFabric` owns the per-message semantics every backend must
  enforce identically — adjacency validation against the graph's own
  adjacency, the bandwidth budget (a whole outbox is checked before any of
  it is staged), staging each message for delivery ``latency(e)`` ticks
  after its send (one tick under lockstep), and
  :class:`~repro.congest.stats.RoundStats` accounting (messages are
  charged at *send* time, keyed by the send round).
* :class:`Transit` is the one delivery rule — a latency model resolved
  into a static table or a link schedule — and :class:`EdgeQueues` the one
  per-edge queue (one grant per edge per tick; a send on an idle edge
  claims it instead of queueing). The fabric, the job layer's arbitration
  and the packet scheduler (:mod:`repro.sched.partwise`) all use them, and
  both of the latter send through the one claim path,
  :meth:`EdgeQueues.send`.
* :class:`Stepper` is the one virtual-clock engine: a population's staged
  arrivals, keep-alive latches and timer wheel, activated tick by tick in
  node-index order. The ``event`` backend runs one per execution and the
  job layer (:mod:`repro.congest.jobs`) one per tenant. Under lockstep
  transit its arrivals are the receivers' inbox dicts themselves, filled in
  sender-index order as the senders run; only steppers whose arrivals can
  reach a tick out of sender order keep per-message entries and sort them.
* :class:`SchedulerBackend` subclasses own the activation strategy — which
  nodes run in a round. The contract is strict: every
  backend must produce byte-identical results, round counts, and message
  counts for conforming algorithms; only the *cost profile* (activations,
  wall clock) may differ. The equivalence suite in
  ``tests/congest/test_scheduler.py`` enforces this across all backends.

Two invariants make backend equivalence possible:

* **Deterministic per-node randomness** — each node's ``ctx.rng`` stream is
  derived from ``(run_seed, node_index)`` via
  :func:`repro.util.rng.derive_node_rng`, never drawn from a shared
  generator in iteration order. A node's stream is therefore independent of
  scheduler and activation order.
* **Canonical inbox order** — within a round, activation follows the
  graph's node order, so each inbox's insertion order (observable through
  dict iteration) is sender-index order under every backend.

These invariants are mechanically enforced twice over: statically by
``repro lint`` (:mod:`repro.analysis`) and — for the spurious-wake
conformance contract of :meth:`NodeContext.schedule_wake` — dynamically by
the opt-in runtime sanitizer (``SyncNetwork(..., sanitize=True)`` or
``REPRO_SANITIZE=1``), which wraps every empty-inbox pre-readiness
activation on the degrade backend (``dense``) in
:func:`checked_spurious_wake`.

Backends register themselves here (:func:`register_backend`), mirroring
the :mod:`repro.core.providers` registry: an unknown scheduler name fails
with a message listing every registered backend, uniformly at every API
boundary. ``event`` and ``dense`` live in this module, the columnar
``vectorized`` backend in :mod:`repro.congest.vectorized`; the
latency-model registry ``event`` resolves through lives in
:mod:`repro.congest.asynchronous`.
"""

from __future__ import annotations

import heapq

from repro.congest.asynchronous import resolve_latency_model
from repro.congest.stats import RoundStats
from repro.util.bitsize import payload_bits
from repro.util.errors import CongestViolation
from repro.util.rng import NodeStream, derive_node_rng

__all__ = [
    "NodeContext",
    "Transit",
    "EdgeQueues",
    "MessageFabric",
    "Stepper",
    "SchedulerBackend",
    "EventBackend",
    "DenseBackend",
    "register_backend",
    "register_unavailable_backend",
    "get_backend",
    "available_schedulers",
    "checked_spurious_wake",
    "node_contexts",
    "require_int",
    "timeout",
]

# Scheduler-backend registry; backends self-register at import time (the
# out-of-module backends when repro.congest.network imports them).
_BACKENDS: dict[str, type["SchedulerBackend"]] = {}

# Backends whose module imported but whose optional dependency is missing:
# name -> install hint. Not listed by available_schedulers() (nothing can
# run them), but get_backend() turns the generic unknown-name error into
# the hint, so `scheduler="vectorized"` without numpy says how to fix it
# instead of looking like a typo.
_UNAVAILABLE: dict[str, str] = {}


def register_backend(
    backend: type["SchedulerBackend"], replace_existing: bool = False
) -> None:
    """Register a backend class under ``backend.name``.

    Registration is the only doorway into the scheduler surface: the
    name immediately works as ``SyncNetwork(scheduler=...)``, the CLI
    ``--scheduler`` flag, and a row in ``python -m repro registry`` —
    and the byte-equivalence suite (``tests/congest/test_scheduler.py``)
    parametrizes over the registry, so a registered backend is held to
    the same results-and-``RoundStats`` identity as the built-ins.
    Backends whose optional dependency is missing should call
    :func:`register_unavailable_backend` instead, so naming them raises
    the install hint rather than an unknown-name error. A minimal
    working example lives in ``docs/extending.md``.

    Raises:
        ValueError: when the name is taken and ``replace_existing`` is
            False.
    """
    if backend.name in _BACKENDS and not replace_existing:
        raise ValueError(f"scheduler backend {backend.name!r} is already registered")
    _BACKENDS[backend.name] = backend
    _UNAVAILABLE.pop(backend.name, None)


def register_unavailable_backend(name: str, hint: str) -> None:
    """Record a backend that exists but cannot run (missing optional dep).

    ``hint`` is the remedy shown by :func:`get_backend` — e.g. the
    ``pip install 'repro[vectorized]'`` line for the numpy-backed
    vectorized backend.
    """
    if name not in _BACKENDS:
        _UNAVAILABLE[name] = hint


def get_backend(name: str) -> type["SchedulerBackend"]:
    """Look up a registered backend class by name.

    Raises:
        ValueError: unknown name (the message lists the registry, matching
            the :mod:`repro.core.providers` error convention) or a known
            name whose optional dependency is missing (the message carries
            the install hint instead).
    """
    try:
        return _BACKENDS[name]
    except KeyError:
        hint = _UNAVAILABLE.get(name)
        if hint is not None:
            raise ValueError(
                f"scheduler {name!r} is unavailable: {hint}; "
                f"registered schedulers: {', '.join(available_schedulers())}"
            ) from None
        raise ValueError(
            f"unknown scheduler {name!r}; registered schedulers: "
            f"{', '.join(available_schedulers())}"
        ) from None


def available_schedulers() -> tuple[str, ...]:
    """Sorted names of all registered scheduler backends."""
    return tuple(sorted(_BACKENDS))


class NodeContext:
    """Read-only view of a node's environment plus the wake-up controls."""

    __slots__ = (
        "node", "neighbors", "round", "num_nodes", "rng", "_keep_alive",
        "_wake_at",
    )

    def __init__(
        self,
        node: int,
        neighbors: tuple[int, ...],
        num_nodes: int,
        rng: NodeStream,
    ):
        self.node = node
        self.neighbors = neighbors
        self.round = 0
        self.num_nodes = num_nodes
        self.rng = rng
        self._keep_alive = False
        self._wake_at: int | None = None

    def keep_alive(self) -> None:
        """Prevent quiescence this round even without sending a message.

        Needed by algorithms that poll (be woken *every* round although the
        network is silent). Under the event-driven scheduler
        this is one of the two ways for a silent node to be activated next
        round; :meth:`schedule_wake` is the other — prefer it, so deep idle
        stretches cost no activations on the timer-native backends.
        """
        self._keep_alive = True

    def schedule_wake(self, delay: int = 1) -> None:
        """Request a wake-up ``delay`` rounds (virtual ticks) from now.

        The timer-native backend (``event``) activates the node
        at exactly ``round + delay`` — no polling in between. The lockstep
        ``dense`` backend *degrades the timer to keep-alive*: the node is
        woken with an empty inbox every round until the wake round, so a
        conforming algorithm must treat a wake before its deadline as a
        no-op (no sends, no state changes, no ``ctx.rng`` draws) — with
        ``delay=1``, the common stream-pacing case, there is no early round
        to observe and the backends are trivially byte-identical.

        A pending timer persists across message-triggered activations and
        is cleared when it fires; calling again takes the *earlier* of the
        pending and requested wake rounds (timers cannot be pushed back or
        cancelled — a spurious fire on an algorithm that no longer cares is
        a no-op by the contract above).

        Raises:
            CongestViolation: if ``delay < 1`` (a same-round wake would
                break the round abstraction).
        """
        if delay < 1:
            raise CongestViolation(
                f"schedule_wake delay must be >= 1 round, got {delay}"
            )
        wake = self.round + delay
        if self._wake_at is None or wake < self._wake_at:
            self._wake_at = wake


class Transit:
    """The one delivery rule: a send on ``(u, v)`` at tick ``now`` arrives at
    ``now + ticks(u, v, now)``.

    :meth:`resolve` turns a latency model into one execution's rule for the
    engine backends, the job layer and the packet scheduler alike: uniform
    is lockstep (one tick, no table), a static model a per-directed-edge
    table drawn from the run seed, a load-dependent model a
    :class:`~repro.congest.asynchronous.LinkSchedule`, which charges each
    send in the order it is presented.
    """

    __slots__ = ("latencies", "link_schedule", "lockstep")

    def __init__(self, latencies=None, link_schedule=None):
        self.latencies = latencies
        self.link_schedule = link_schedule
        self.lockstep = latencies is None and link_schedule is None

    @classmethod
    def resolve(cls, model, graph, seed) -> "Transit":
        """``model``'s rule on ``graph``; ``seed`` is the run seed or a thunk
        drawing it, read only by a non-uniform static model."""
        if model.is_dynamic:
            return cls(link_schedule=model.schedule(graph))
        if model.is_uniform:
            return cls()
        return cls(model.build(graph, seed() if callable(seed) else seed))

    def ticks(self, u, v, now: int) -> int:
        if self.link_schedule is not None:
            return self.link_schedule.transit(u, v, now)
        return self.latencies[(u, v)] if self.latencies else 1


class EdgeQueues:
    """Per-directed-edge queues: one grant per edge per tick, the CONGEST rule.

    :meth:`send` is the one way in for the job layer and the packet
    scheduler. A send on an edge with nothing queued *claims* the edge for
    the tick and waits nowhere; a second send on a claimed edge in the same
    tick queues both, in send order, and a send onto a backlog queues
    behind it. :meth:`grants` then grants every claim and one queued entry
    per backlogged edge — exactly what queueing every send and calling
    :meth:`resolve` would grant (``tests/congest/test_edge_queues.py``).

    A queued entry waits on its edge in its *slot*'s FIFO, a plain
    ``slot -> list`` map per edge: the job layer gives each tenant a slot,
    the packet scheduler uses one (plain FIFO). :meth:`resolve` grants
    round-robin over an edge's queued slots, starting after its last
    granted slot, so on a backlogged edge any two slots' grant counts over
    any window differ by at most 1. A granted claim moves the pointer to
    its slot too. The pointer survives while the edge idles; :meth:`drop`
    forgets it on the edges it empties. The granted entry is the oldest of
    its slot's FIFO.

    Edges are granted in ``order`` (a sort key), by default in the order
    each was first sent on. A load-dependent link schedule charges transits
    in grant order, so the order is part of the schedule.
    """

    __slots__ = ("order", "edges", "claims", "pointers", "_first")

    def __init__(self, order=None):
        self.edges: dict = {}  # edge -> {slot: non-empty list}
        self.claims: dict = {}  # edge -> (slot, entry), the tick's uncontended sends
        self.pointers: dict = {}  # edge -> last granted slot
        self._first: dict | None = None if order is not None else {}
        self.order = order if order is not None else self._first.__getitem__

    def send(self, edge, entry, slot: int = 0) -> None:
        """Claim ``edge`` for the tick, or queue ``entry`` when it is taken."""
        claim = (slot, entry)
        if edge in self.edges or self.claims.setdefault(edge, claim) is not claim:
            self.push(edge, entry, slot)
            return
        first = self._first
        if first is not None and edge not in first:
            first[edge] = len(first)

    def push(self, edge, entry, slot: int = 0) -> None:
        """Queue ``entry`` on ``edge``, behind the edge's claim if it has one."""
        queued = self.edges.get(edge)
        if queued is None:
            queued = self.edges[edge] = {}
            claim = self.claims.pop(edge, None)
            if claim is not None:
                queued[claim[0]] = [claim[1]]
            first = self._first
            if first is not None and edge not in first:
                first[edge] = len(first)
        fifo = queued.get(slot)
        if fifo is None:
            queued[slot] = [entry]
        else:
            fifo.append(entry)

    def drop(self, slot: int) -> list:
        """Forget ``slot``'s claims and queued entries and return them."""
        dropped = []
        for edge in list(self.edges):
            queued = self.edges[edge]
            dropped.extend(queued.pop(slot, ()))
            if not queued:
                del self.edges[edge]
                self.pointers.pop(edge, None)
        for edge, (claimed, entry) in list(self.claims.items()):
            if claimed == slot:
                dropped.append(entry)
                del self.claims[edge]
                self.pointers.pop(edge, None)
        return dropped

    def resolve(self) -> list:
        """Grant one entry per queued edge, claims aside; returns
        ``(edge, entry)`` pairs in grant order."""
        return self._grant(self.edges, {})

    def grants(self) -> list:
        """Grant every claim and one entry per queued edge; returns
        ``(edge, entry)`` pairs in ``order``."""
        claims, self.claims = self.claims, {}
        return self._grant([*claims, *self.edges] if self.edges else claims, claims)

    def _grant(self, edges, claims: dict) -> list:
        granted = []
        queues, pointers = self.edges, self.pointers
        for edge in sorted(edges, key=self.order):
            claim = claims.get(edge)
            if claim is not None:
                pointers[edge] = claim[0]
                granted.append((edge, claim[1]))
                continue
            queued = queues[edge]
            pointer = pointers.get(edge, -1)
            slot = min((s for s in queued if s > pointer), default=min(queued))
            fifo = queued[slot]
            granted.append((edge, fifo.pop(0)))
            pointers[edge] = slot
            if not fifo:
                del queued[slot]
                if not queued:
                    del queues[edge]
        return granted


# Matches no payload: validate's "last payload sized" before the first one.
_UNSIZED = object()


class MessageFabric:
    """Message validation, staging, and accounting — one per executing context.

    A single-network backend builds one fabric for the whole graph; the
    job layer builds one per tenant (:mod:`repro.congest.jobs`).
    ``adjacency`` maps each node to its neighbours (anything supporting
    ``in``): the graph's own ``_adj`` for a full population, so a run
    builds no neighbour sets, or frozensets for an induced subgraph.
    """

    __slots__ = (
        "adjacency", "bandwidth_bits", "stats", "transit", "submit",
    )

    def __init__(
        self,
        adjacency,
        bandwidth_bits: int,
        stats: RoundStats,
        transit: Transit | None = None,
        submit=None,
    ):
        self.adjacency = adjacency
        self.bandwidth_bits = bandwidth_bits
        self.stats = stats
        self.transit = transit or Transit()
        # The job layer (repro.congest.jobs) sets `submit`: validated
        # outboxes go to its edge claims and queues, charged and staged at
        # grant time.
        self.submit = submit

    def validate(self, sender: int, outbox: dict[int, object]) -> list[int]:
        """Check adjacency and the bit budget of every send in ``outbox``.

        Returns the payloads' bit sizes in outbox order. The sender's
        neighbours and the budget are looked up once per outbox, and a
        payload object sent to consecutive targets (a flood's one
        announcement) is sized once.

        Raises:
            CongestViolation: on a non-neighbor target or an oversized
                payload.
        """
        neighbors = self.adjacency[sender]
        budget = self.bandwidth_bits
        sizes = []
        last = _UNSIZED
        for target, payload in outbox.items():
            if target not in neighbors:
                raise CongestViolation(
                    f"node {sender} tried to message non-neighbor {target}"
                )
            if payload is not last:
                last = payload
                bits = payload_bits(payload)
                if bits > budget:
                    raise CongestViolation(
                        f"node {sender} sent a {bits}-bit message to {target}; "
                        f"budget is {budget} bits"
                    )
            sizes.append(bits)
        return sizes

    def stage(
        self,
        sender: int,
        sender_index: int,
        outbox: dict[int, object],
        now: int,
        clock: "Stepper",
    ) -> None:
        """Validate ``sender``'s outbox and stage it on ``clock``.

        Every send is checked before any is staged or charged, so a
        violation anywhere in the outbox leaves the run's state untouched.
        """
        self.stage_sized(
            sender, sender_index, outbox, self.validate(sender, outbox), now, clock
        )

    def stage_sized(
        self,
        sender: int,
        sender_index: int,
        outbox: dict[int, object],
        sizes: list[int],
        now: int,
        clock: "Stepper",
    ) -> None:
        """Charge a validated outbox whose bit sizes are ``sizes`` and stage
        it on ``clock``.

        ``messages``, ``message_bits`` and ``messages_by_round`` are charged
        once for the whole outbox, ``edge_messages`` per message — the same
        totals as one :meth:`RoundStats.record_message` per send. An
        in-order clock gets each message written straight into its
        receiver's inbox dict for ``now + 1``; a resorting clock gets an
        entry per message at ``now +`` :meth:`Transit.ticks`
        (:meth:`Stepper.arrive`). With :attr:`submit` set, the outbox goes
        to it instead.
        """
        if not sizes:
            return
        if self.submit is not None:
            self.submit(sender, sender_index, outbox, sizes, now)
            return
        stats = self.stats
        count = len(sizes)
        stats.messages += count
        stats.message_bits += sum(sizes)
        by_round = stats.messages_by_round
        by_round[now] = by_round.get(now, 0) + count
        edge_messages = stats.edge_messages
        if clock.resort:
            ticks = self.transit.ticks
            for target, payload in outbox.items():
                key = (sender, target)
                edge_messages[key] = edge_messages.get(key, 0) + 1
                clock.arrive(
                    now + ticks(sender, target, now), target, (sender_index, sender, payload)
                )
            return
        bucket = clock.bucket(now + 1)
        for target, payload in outbox.items():
            key = (sender, target)
            edge_messages[key] = edge_messages.get(key, 0) + 1
            inbox = bucket.get(target)
            if inbox is None:
                bucket[target] = {sender: payload}
            else:
                inbox[sender] = payload


def require_int(name: str, value, minimum: int = 1, error: type[Exception] = ValueError) -> None:
    """Reject a ``value`` for ``name`` that is not an int ``>= minimum``.

    ``bool`` is refused although it subclasses ``int``: ``True`` as a
    budget or a bound is a caller's slip, not 1.
    """
    if type(value) is not int or value < minimum:
        raise error(f"{name} must be an int >= {minimum}, got {value!r}")


def timeout(stats: RoundStats, max_rounds: int, raise_on_timeout: bool, who: str = ""):
    """End a run that still has work past ``max_rounds``, or raise.

    ``stats.rounds`` reports the bound itself, matching the lockstep loop
    (which executes the empty rounds a virtual clock fast-forwards over).
    """
    if raise_on_timeout:
        raise CongestViolation(
            f"{who}execution did not quiesce within {max_rounds} rounds"
        )
    stats.rounds = max_rounds


class Stepper:
    """One population's virtual clock: the loop every timer-native run steps.

    A node is due at a tick when messages arrive for it, when it latched
    keep-alive the tick before, or when its :meth:`NodeContext.schedule_wake`
    timer is armed for it (validated lazily against ``ctx._wake_at``: a
    tick whose entries all went stale is not a round). :meth:`step`
    activates the due nodes in node-index order; idle ticks are never
    stepped, and are empty under every backend, so only activations differ
    from the lockstep loop.

    ``contexts`` (node -> NodeContext) is in node-index order and ``index``
    gives each node's index. ``fabric`` validates, stages, and charges
    sends; its stats are the run's. ``notify`` is called with every
    scheduled tick.

    Arrivals come in one of two forms, fixed per stepper:

    * **in order** (exactly under lockstep transit): ``arrivals[t]``
      maps each target to its inbox dict, ``{sender: payload}``.
      :meth:`MessageFabric.stage` writes every message straight into it
      for ``now + 1``; senders are activated in index order, so every
      inbox fills in sender-index order and :meth:`step` hands it to
      ``on_wake`` as is.
    * **resorted** (exactly under a non-lockstep transit):
      ``arrivals[t]`` maps each target to a list of
      ``(sender_index, sender, payload)`` entries (:meth:`arrive`), sorted
      and turned into inbox dicts when the tick is stepped: under non-unit
      transit, arrivals can reach a tick out of sender order.

    The job layer (:mod:`repro.congest.jobs`) fills in-order inboxes
    itself at grant time and re-sorts the one inbox an arbitration
    deferral lands in.

    ``record_wall`` — set exactly when the fabric's transit is not
    lockstep, the one wall-time rule — records per-node
    ``completion_times`` and, at the end of :meth:`run`, ``virtual_time``.
    """

    __slots__ = (
        "algorithms", "contexts", "index", "fabric", "stats", "resort",
        "record_wall", "notify", "arrivals", "latched", "timers", "heap",
    )

    def __init__(self, algorithms, contexts, index, fabric, notify=None):
        self.algorithms = algorithms
        self.contexts = contexts
        self.index = index
        self.fabric = fabric
        self.stats = fabric.stats
        self.record_wall = self.resort = not fabric.transit.lockstep
        self.notify = notify
        # arrivals[t][target] -> inbox dict (in order) or entry list
        # (resorted); latched -> nodes due next tick; timers[t] -> nodes
        # armed for t. The heap holds every tick with pending work
        # (repeats allowed).
        self.arrivals: dict[int, dict] = {}
        self.latched: list = []
        self.timers: dict[int, set] = {}
        self.heap: list[int] = []

    def schedule(self, tick: int) -> None:
        heapq.heappush(self.heap, tick)
        if self.notify is not None:
            self.notify(tick)

    def bucket(self, tick: int) -> dict:
        """The arrivals of ``tick``, scheduling it on first use."""
        bucket = self.arrivals.get(tick)
        if bucket is None:
            bucket = self.arrivals[tick] = {}
            self.schedule(tick)
        return bucket

    def arrive(self, tick: int, target, entry: tuple) -> None:
        """Stage one ``(sender_index, sender, payload)`` entry for ``tick``
        (resorting steppers only)."""
        bucket = self.bucket(tick)
        entries = bucket.get(target)
        if entries is None:
            bucket[target] = [entry]
        else:
            entries.append(entry)

    def _settle(self, v, ctx: NodeContext, now: int) -> None:
        """Queue ``v``'s own wake-ups after an activation: latch and timer."""
        if ctx._keep_alive:
            self.latched.append(v)
            self.schedule(now + 1)
        wake = ctx._wake_at
        if wake is not None:
            bucket = self.timers.get(wake)
            if bucket is None:
                bucket = self.timers[wake] = set()
            bucket.add(v)
            self.schedule(wake)

    def start(self) -> None:
        """Tick 0: ``on_start`` on every node, by definition."""
        algorithms, index, fabric = self.algorithms, self.index, self.fabric
        for v, ctx in self.contexts.items():
            outbox = algorithms[v].on_start(ctx)
            if outbox:
                fabric.stage(v, index[v], outbox, 0, self)
            if ctx._keep_alive or ctx._wake_at is not None:
                self._settle(v, ctx, 0)

    def next_tick(self) -> int | None:
        """The earliest tick with live work, or ``None`` at quiescence."""
        heap = self.heap
        while heap:
            tick = heap[0]
            # A latch is always due at the heap's first tick.
            if self.latched or tick in self.arrivals or any(
                self.contexts[v]._wake_at == tick for v in self.timers.get(tick, ())
            ):
                return tick
            heapq.heappop(heap)
            self.timers.pop(tick, None)
        return None

    def step(self, now: int) -> None:
        """Activate every node due at ``now``, the tick :meth:`next_tick` named."""
        heap = self.heap
        while heap and heap[0] == now:
            heapq.heappop(heap)
        contexts, index = self.contexts, self.index
        bucket = self.arrivals.pop(now, None) or {}
        timers = self.timers.pop(now, None)
        due = bucket
        if self.latched or timers:
            due = set(bucket)
            due.update(self.latched)
            self.latched = []
            if timers:
                due.update(v for v in timers if contexts[v]._wake_at == now)
        if self.resort:
            for v, entries in bucket.items():
                entries.sort()
                bucket[v] = {sender: payload for _, sender, payload in entries}
        order = sorted(due, key=index.__getitem__)
        algorithms, fabric, stats = self.algorithms, self.fabric, self.stats
        stats.rounds = now
        stats.activations += len(order)
        completion_times = stats.completion_times if self.record_wall else None
        for v in order:
            ctx = contexts[v]
            ctx.round = now
            ctx._keep_alive = False
            if ctx._wake_at is not None and ctx._wake_at <= now:
                ctx._wake_at = None  # the timer fires with this wake
            outbox = algorithms[v].on_wake(ctx, bucket.get(v) or {})
            if completion_times is not None:
                completion_times[v] = now
            if outbox:
                fabric.stage(v, index[v], outbox, now, self)
            if ctx._keep_alive or ctx._wake_at is not None:
                self._settle(v, ctx, now)

    def run(self, max_rounds: int, raise_on_timeout: bool) -> None:
        """Step every live tick; quiescence is an empty schedule."""
        while (now := self.next_tick()) is not None:
            if now > max_rounds:
                timeout(self.stats, max_rounds, raise_on_timeout)
                break
            self.step(now)
        if self.record_wall:
            self.stats.virtual_time = self.stats.rounds


def _state_fingerprint(algorithm) -> str | None:
    """A cheap before/after fingerprint of an algorithm's own state.

    ``repr`` over ``vars()`` catches any attribute rebinding and most
    container mutations; a mutation that preserves the repr (or state
    hidden behind ``__slots__``) escapes — acceptable for a sanitizer
    whose static twin (`repro lint` PROTO-STATE) covers the writes.
    """
    state = getattr(algorithm, "__dict__", None)
    if state is None:
        return None
    return repr(state)


def checked_spurious_wake(algorithm, ctx, activate, node, round_no: int):
    """Run a spurious wake under the conformance contract, or raise.

    The degrade backend (``dense``) wakes nodes with an empty
    inbox before their readiness condition — rounds the timer-native
    backends never execute. The :meth:`NodeContext.schedule_wake` contract
    makes that observably harmless by requiring such an activation to be a
    strict no-op; this wrapper (the runtime-sanitizer mode,
    ``SyncNetwork(..., sanitize=True)`` or ``REPRO_SANITIZE=1``) checks it
    dynamically: no sends, no ``ctx.rng`` draws, no state change, no
    keep-alive latch, no timer re-arm.

    Raises:
        CongestViolation: naming the node, round, and every violated
            clause — the exact divergence that would otherwise surface as
            a cross-backend byte-equivalence failure far from its cause.
    """
    state_before = _state_fingerprint(algorithm)
    rng_before = ctx.rng.getstate()
    wake_before = ctx._wake_at
    outbox = activate() or {}
    problems = []
    if outbox:
        problems.append(f"sent {len(outbox)} message(s)")
    if ctx.rng.getstate() != rng_before:
        problems.append("drew from ctx.rng")
    if _state_fingerprint(algorithm) != state_before:
        problems.append("changed its state")
    if ctx._keep_alive:
        problems.append("latched keep_alive")
    if ctx._wake_at != wake_before:
        problems.append("armed a new wake-up timer")
    if problems:
        raise CongestViolation(
            f"spurious-wake contract violation at node {node} "
            f"(round {round_no}): woken with an empty inbox before its "
            f"readiness condition, the node " + ", ".join(problems) + "; "
            "conforming algorithms treat such wakes as strict no-ops (see "
            "NodeContext.schedule_wake and repro.congest.node)"
        )
    return outbox


class SchedulerBackend:
    """One activation strategy for executing node algorithms.

    Subclasses implement :meth:`execute`, which owns the whole run — round
    0 (``on_start`` on every node, by definition), the round loop, and
    result collection — and returns ``(results, stats)``. The network
    object passed in exposes the topology snapshot (``_nodes``, ``_index``,
    ``_neighbors``), the live graph whose ``_adj`` the fabric validates
    sends against, and the per-message budget (``bandwidth_bits``).
    """

    name = "abstract"

    # Capability flag: whether this backend honors per-edge latency models
    # (``SyncNetwork(latency_model=...)``). ``validate_scheduler`` rejects a
    # latency model on any backend that leaves this False — driving the
    # check from the class, not a hard-coded name list, so a new backend
    # cannot silently accept a model it ignores.
    supports_latency_models = False

    def execute(
        self,
        net,
        algorithms: dict,
        run_seed: int,
        max_rounds: int,
        raise_on_timeout: bool,
    ) -> tuple[dict[int, object], RoundStats]:
        raise NotImplementedError


def node_contexts(net, run_seed: int) -> dict:
    """Every node's context, in index order."""
    nodes = net._nodes
    neighbors = net._neighbors
    n = len(nodes)
    return {
        v: NodeContext(v, neighbors[v], n, derive_node_rng(run_seed, i))
        for i, v in enumerate(nodes)
    }


class EventBackend(SchedulerBackend):
    """The event-driven *active-set* scheduler (default): one :class:`Stepper`.

    Per round, only nodes with a non-empty inbox, a raised keep-alive
    latch, or a due :meth:`NodeContext.schedule_wake` timer are activated
    (via ``on_wake``); quiescence is an empty schedule. Total activations
    are ``O(total messages + keep-alives + timer fires)`` instead of the
    lockstep ``O(n * rounds)``.

    Transit follows the run's latency model (``SyncNetwork(latency_model=
    ...)``, uniform by default); a non-lockstep transit also records the
    wall-model dimension (``virtual_time``, ``completion_times``).
    """

    name = "event"
    supports_latency_models = True

    def execute(self, net, algorithms, run_seed, max_rounds, raise_on_timeout):
        model = resolve_latency_model(net.latency_model)
        transit = Transit.resolve(model, net.graph, run_seed)
        fabric = MessageFabric(
            net.graph._adj, net.bandwidth_bits, RoundStats(), transit=transit,
        )
        clock = Stepper(algorithms, node_contexts(net, run_seed), net._index, fabric)
        clock.start()
        clock.run(max_rounds, raise_on_timeout)
        return {v: algorithms[v].result() for v in net._nodes}, clock.stats


class DenseBackend(SchedulerBackend):
    """The seed lockstep loop: ``on_round`` on every node every round.

    Kept as the reference semantics for equivalence testing and for exotic
    algorithms that act spontaneously on empty inboxes without latching
    keep-alive (none in this library). Scheduled wakes degrade to
    keep-alive here: a pending timer keeps the run going (every node is
    executed every round anyway), and the node's early rounds are the
    empty-inbox no-ops the :meth:`NodeContext.schedule_wake` contract
    requires of conforming algorithms.
    """

    name = "dense"

    def execute(self, net, algorithms, run_seed, max_rounds, raise_on_timeout):
        nodes = net._nodes
        index = net._index
        stats = RoundStats()
        fabric = MessageFabric(net.graph._adj, net.bandwidth_bits, stats)
        contexts = node_contexts(net, run_seed)
        # The stepper runs round 0 and is the staging sink; the rounds
        # themselves are this loop's.
        clock = Stepper(algorithms, contexts, index, fabric)
        clock.start()
        sanitize = getattr(net, "sanitize", False)
        alive = any(c._keep_alive or c._wake_at is not None for c in contexts.values())
        round_no = 0
        while alive or clock.arrivals:
            if round_no >= max_rounds:
                timeout(stats, max_rounds, raise_on_timeout)
                break
            round_no += 1
            stats.rounds = round_no
            bucket = clock.arrivals.pop(round_no, {})
            alive = False
            for v in nodes:
                ctx = contexts[v]
                ctx.round = round_no
                latched_prev = ctx._keep_alive
                ctx._keep_alive = False
                timer_fired = ctx._wake_at is not None and ctx._wake_at <= round_no
                if timer_fired:
                    ctx._wake_at = None  # the timer fires with this round
                inbox = bucket.get(v) or {}
                algorithm = algorithms[v]
                if sanitize and not inbox and not latched_prev and not timer_fired:
                    # This activation exists only because the dense loop
                    # wakes everyone: the timer-native backends would skip
                    # it, so the conformance contract requires a no-op.
                    outbox = checked_spurious_wake(
                        algorithm, ctx,
                        lambda a=algorithm, c=ctx: a.on_round(c, {}),
                        v, round_no,
                    )
                else:
                    outbox = algorithm.on_round(ctx, inbox) or {}
                stats.activations += 1
                if outbox:
                    fabric.stage(v, index[v], outbox, round_no, clock)
                alive = alive or ctx._keep_alive or ctx._wake_at is not None
        return {v: algorithms[v].result() for v in nodes}, stats


register_backend(EventBackend)
register_backend(DenseBackend)
