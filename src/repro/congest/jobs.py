"""Multi-tenant job scheduling: N algorithm instances over one fabric.

The north star is a service where many tenants run queries concurrently
against a shared graph. :class:`~repro.congest.network.SyncNetwork`
executes exactly one algorithm population per run; this module multiplexes
*jobs* — independent :class:`~repro.congest.node.NodeAlgorithm`
populations — over a single virtual-time execution:

* every message is tagged with its job: each job owns a
  :class:`~repro.congest.engine.MessageFabric` that submits its sends
  under the job's slot, and per-node inboxes are demultiplexed per job (a
  node participating in two jobs is two independent state machines with
  two independent rng streams);
* bandwidth is arbitrated: a directed edge carries at most one message
  per global tick *across all jobs* — the CONGEST rule. Every send goes
  through the shared :class:`~repro.congest.engine.EdgeQueues` — the
  packet scheduler's queue too — under its job's slot: a send on an edge
  with nothing queued *claims* the edge for its tick and is granted at the
  end of that tick without queueing; only contention queues, in the
  job's FIFO. Grants go round-robin over job slots, so the schedule is
  exactly the one that queueing every send would give, deterministic and
  byte-identical per seed. A granted
  message charges ``arbitration_stalls`` the ticks it waited (grant tick
  minus send tick; zero for a claim); a timed-out job's dropped sends
  charge the same up to the drop;
* per-job observability: every job gets its own
  :class:`~repro.congest.stats.RoundStats` in its own job-local clock,
  and the aggregate stats carry the per-job projection in
  ``stats.jobs``. Per-job ``messages``/``message_bits``/``activations``/
  ``arbitration_stalls`` sum to the fabric aggregate by construction.

**Solo identity.** A job running alone is never arbitrated against (a
node activates at most once per tick and emits at most one message per
neighbor, so a single job submits at most one message per directed edge
per tick — every send is granted at its send tick). Each job runs on the
engine's own :class:`~repro.congest.engine.Stepper`, the loop of the
``event`` backend, so a solo full-population job produces
byte-identical results *and* RoundStats to a direct ``SyncNetwork`` run
with the same rng and latency model — the contract
``tests/congest/test_jobs.py`` pins with and without a model. A solo
*scoped* job (a population covering a subset of the graph) is likewise
byte-identical to a direct run on the induced subgraph of its
population, in the shared graph's node order.

**Fairness bound.** Per directed edge,
:class:`~repro.congest.engine.EdgeQueues` cycles grants round-robin over
the job slots with queued messages. On a symmetric workload where all K jobs
stay backlogged on an edge, any window of T consecutive ticks gives each
job ``T / K`` grants on that edge, up to an absolute deviation of at most
1 — no job's arbitration share deviates from ``1/K`` by more than ``1/T``
(pinned by ``tests/congest/test_jobs.py``).

**Job-local clocks.** A job admitted at global tick ``s`` sees its own
tick 0 there: ``ctx.round``, per-job ``rounds``/``messages_by_round``/
``completion_times``, and ``max_rounds`` are all job-relative. The
aggregate ``rounds`` is the service makespan (the last global tick with
any activity); aggregate ``messages_by_round`` is the key-wise sum of the
job-relative histograms (exactly what :meth:`RoundStats.merge` computes),
and the aggregate leaves ``completion_times`` empty — per-job times live
in the ``stats.jobs`` projection.

Admission control (``max_inflight``) bounds how many jobs multiplex at
once; queued jobs are admitted in submission order as slots free up. The
:mod:`repro.serve` JobServer layers a query API with completion callbacks
on top of this driver.
"""

from __future__ import annotations

import functools
import heapq
import random
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass

import networkx as nx

from repro.congest.asynchronous import resolve_latency_model
from repro.congest.engine import (
    EdgeQueues,
    MessageFabric,
    NodeContext,
    Stepper,
    Transit,
    require_int,
    timeout,
)
from repro.congest.network import bandwidth_budget
from repro.congest.node import NodeAlgorithm
from repro.congest.stats import RoundStats
from repro.util.errors import CongestViolation, GraphStructureError
from repro.util.rng import derive_node_rng, ensure_rng

__all__ = ["Job", "JobOutcome", "ScheduleResult", "JobScheduler"]

# The job layer runs the one virtual-clock backend, "event" (with or
# without a latency model). The lockstep degrade backend (dense) and the
# columnar backend have no virtual-time delivery path to arbitrate, so
# the job layer does not drive them.
_MODES = ("event",)


class Job:
    """One tenant's unit of work, submitted to a :class:`JobScheduler`.

    Exactly one of the two kinds:

    * **population job** — ``algorithms`` maps node -> NodeAlgorithm. The
      population may cover the whole graph or any subset (the job then
      runs on the induced subgraph of its keys, in the shared graph's
      node order). Runs multiplexed on the shared fabric.
    * **call job** — ``call`` is a zero-argument callable returning
      ``(result, RoundStats)``. Used for queries whose driver interleaves
      centralized glue with packet-scheduler phases (the shortcut apps);
      executed atomically at admission, under the same admission control
      and per-job accounting, but not fabric-multiplexed.

    Args:
        job_id: unique identifier (the key of the per-job stats
            projection).
        algorithms: the population (population jobs).
        call: the query thunk (call jobs).
        rng: seed or generator; one ``run_seed`` is drawn at admission
            exactly as ``SyncNetwork.run`` draws it, so a solo job
            replays a direct run byte for byte.
        max_rounds: job-local tick bound, an int >= 1 (same default as
            ``SyncNetwork.run``).
        raise_on_timeout: raise :class:`CongestViolation` on timeout
            instead of completing the job with ``status="timeout"``.
        on_complete: optional callback invoked with the
            :class:`JobOutcome` the moment the job completes (while the
            schedule is still running).

    Raises:
        CongestViolation: unless exactly one of ``algorithms`` and
            ``call`` is given, or when ``max_rounds`` is not an int >= 1.
    """

    def __init__(
        self,
        job_id: str,
        algorithms: dict[int, NodeAlgorithm] | None = None,
        *,
        call: Callable[[], tuple[object, RoundStats]] | None = None,
        rng: int | random.Random | None = None,
        max_rounds: int = 10**6,
        raise_on_timeout: bool = True,
        on_complete: Callable[["JobOutcome"], None] | None = None,
    ):
        if (algorithms is None) == (call is None):
            raise CongestViolation(
                f"job {job_id!r} must define exactly one of algorithms= "
                "(population job) or call= (call job)"
            )
        require_int(f"job {job_id!r}: max_rounds", max_rounds, error=CongestViolation)
        self.job_id = job_id
        self.algorithms = algorithms
        self.call = call
        self.rng = rng
        self.max_rounds = max_rounds
        self.raise_on_timeout = raise_on_timeout
        self.on_complete = on_complete


@dataclass
class JobOutcome:
    """What a completed job produced, plus its measured cost.

    Attributes:
        job_id: the job's identifier.
        results: per-node results dict (population jobs) or the call's
            result (call jobs).
        stats: the job's own RoundStats, in its job-local clock. This is
            the same object exposed under the aggregate's
            ``stats.jobs[job_id]`` (as a copy).
        admitted_tick: global tick at which the job started (its local
            tick 0).
        completed_tick: global tick at which it quiesced.
        status: ``"completed"`` or ``"timeout"``.
    """

    job_id: str
    results: object
    stats: RoundStats
    admitted_tick: int
    completed_tick: int
    status: str = "completed"


@dataclass
class ScheduleResult:
    """Everything a :meth:`JobScheduler.run` produced.

    Attributes:
        outcomes: job id -> :class:`JobOutcome`, in completion order.
        stats: fabric-level aggregate RoundStats: ``rounds`` is the
            service makespan in global ticks, counters are the sums over
            jobs, ``arbitration_stalls`` the total message-ticks queued,
            and ``stats.jobs`` the per-job projection.
    """

    outcomes: dict[str, JobOutcome]
    stats: RoundStats


class _JobState:
    """Driver-internal execution state of one admitted population job."""

    __slots__ = (
        "job", "slot", "offset", "queues", "stats", "stepper", "pending", "timed_out",
    )

    def __init__(self, job: Job, slot: int, offset: int, queues: EdgeQueues):
        self.job = job
        self.slot = slot
        self.offset = offset  # global tick of the job's local tick 0
        self.queues = queues
        self.stats = RoundStats()
        self.pending = 0  # messages claimed or queued, not yet granted
        self.timed_out = False

    def submit(self, sender, sender_index, outbox, sizes, now) -> None:
        """Send a validated outbox sent at job tick ``now`` under the job's
        slot (the fabric's hook); :meth:`EdgeQueues.send` claims or queues."""
        send, slot = self.queues.send, self.slot
        for (target, payload), bits in zip(outbox.items(), sizes):
            send((sender, target), (self, sender_index, payload, bits, now), slot)
        self.pending += len(sizes)

    def charge(self, rel: int, count: int, bits: int) -> None:
        """Charge ``count`` granted messages of ``bits`` in all, sent at job
        tick ``rel``, to every counter but ``edge_messages``."""
        stats = self.stats
        stats.messages += count
        stats.message_bits += bits
        by_round = stats.messages_by_round
        by_round[rel] = by_round.get(rel, 0) + count
        self.pending -= count


class JobScheduler:
    """Multiplex N jobs over one shared graph with fair edge arbitration.

    Args:
        graph: the shared communication topology.
        scheduler: execution mode — only ``"event"``, the backend whose
            engine every job runs, so a solo job is byte-identical to a
            direct ``SyncNetwork`` run.
        latency_model: per-edge latency model (``None`` = uniform, i.e.
            lockstep); a non-lockstep model adds the wall-model stats
            dimension (``virtual_time``, ``completion_times``). Static
            models build a latency table per job from the job's own run
            seed (the solo-identity contract), so jitter is per-flow.
            Load-dependent models
            (:class:`~repro.congest.asynchronous.LoadDependentLatency`:
            ``contention``) instead share one
            :class:`~repro.congest.asynchronous.LinkSchedule` across all
            tenants in global ticks — concurrent jobs on a link slow each
            other down, so tenant contention costs virtual time, not just
            ``arbitration_stalls``. They are seed-free by contract, which
            keeps the shared schedule well-defined and solo runs
            byte-identical to the direct backend.
        bandwidth_bits: per-message budget applied to every job, an int
            >= 1; default per job is the ``SyncNetwork`` rule over the
            job's population size.
        max_inflight: admission control — at most this many population
            jobs multiplex at once (``None`` = unbounded); the rest queue
            in submission order.

    Raises:
        GraphStructureError: on an empty graph.
        ValueError: on an unknown scheduler, or a ``bandwidth_bits`` or
            ``max_inflight`` that is neither ``None`` nor an int >= 1.
    """

    def __init__(
        self,
        graph: nx.Graph,
        scheduler: str = "event",
        latency_model: object = None,
        bandwidth_bits: int | None = None,
        max_inflight: int | None = None,
    ):
        if graph.number_of_nodes() == 0:
            raise GraphStructureError("cannot build a job scheduler on an empty graph")
        if scheduler not in _MODES:
            raise ValueError(
                f"unknown job-layer scheduler {scheduler!r}; the job layer "
                f"runs the virtual-clock backend: {', '.join(_MODES)}"
            )
        if bandwidth_bits is not None:
            require_int("bandwidth_bits", bandwidth_bits)
        if max_inflight is not None:
            require_int("max_inflight", max_inflight)
        self.graph = graph
        self.scheduler = scheduler
        self.latency_model = latency_model
        self._model = resolve_latency_model(latency_model)
        self.bandwidth_bits = bandwidth_bits
        self.max_inflight = max_inflight

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------

    def _population(self, job: Job) -> tuple:
        unknown = [v for v in job.algorithms if v not in self._gindex]
        if unknown:
            raise GraphStructureError(
                f"job {job.job_id!r} population includes non-graph nodes "
                f"{unknown[:5]}"
            )
        if len(job.algorithms) == len(self._nodes):
            return self._nodes
        members = set(job.algorithms)
        return tuple(v for v in self._nodes if v in members)

    def _admit(self, job: Job, offset: int) -> _JobState:
        state = _JobState(job, self._next_slot, offset, self._queues)
        self._next_slot += 1
        nodes = self._population(job)
        # One draw per job, exactly as SyncNetwork.run draws its run seed.
        run_seed = ensure_rng(job.rng).randrange(2**62)
        if len(nodes) == len(self._nodes):
            # A full population validates against the graph's own adjacency.
            neighbors = self._neighbors
            adjacency = self.graph._adj
            graph_view = self.graph
        else:
            # Induced-subgraph semantics: the job runs on G[population]
            # with neighbor order inherited from the shared graph.
            members = set(nodes)
            neighbors = {
                v: tuple([w for w in self._neighbors[v] if w in members])
                for v in nodes
            }
            adjacency = {v: frozenset(nbrs) for v, nbrs in neighbors.items()}
            graph_view = self.graph.subgraph(nodes)
        # Static latencies are per job, from its own run seed (the
        # solo-identity contract); a load-dependent schedule is shared.
        transit = self._shared_transit or Transit.resolve(
            self._model, graph_view, run_seed
        )
        bandwidth = self.bandwidth_bits
        if bandwidth is None:
            bandwidth = bandwidth_budget(len(nodes))
        fabric = MessageFabric(
            adjacency, bandwidth, state.stats, transit=transit, submit=state.submit,
        )
        contexts = {
            v: NodeContext(
                v, neighbors[v], len(nodes), derive_node_rng(run_seed, i)
            )
            for i, v in enumerate(nodes)
        }
        state.stepper = Stepper(
            job.algorithms, contexts, {v: i for i, v in enumerate(nodes)}, fabric,
            notify=lambda tick: self._wake_global(offset + tick),
        )
        self._running.append(state)
        state.stepper.start()
        if self._queues.claims or self._queues.edges:
            self._wake_global(offset)
        return state

    def _admit_from_queue(self, offset: int) -> None:
        while self._queue and (
            self.max_inflight is None or len(self._running) < self.max_inflight
        ):
            job = self._queue.popleft()
            if job.call is not None:
                self._complete_call(job, offset)
            else:
                self._admit(job, offset)

    # ------------------------------------------------------------------
    # The tick loop
    # ------------------------------------------------------------------

    def _wake_global(self, tick: int) -> None:
        if tick not in self._in_heap:
            self._in_heap.add(tick)
            heapq.heappush(self._heap, tick)

    def _grant(self, now: int) -> None:
        """Grant global tick ``now``'s sends: every claim, and one queued send
        per backlogged edge.

        Mirrors ``MessageFabric.stage_sized`` with the grant tick as the
        send tick — for a solo job every send is a claim granted at its
        send tick, so the accounting is byte-identical to the direct
        backends. Under lockstep transit a job's claims are written
        straight into its in-order inbox dicts, in activation order
        (sender-index order within the job), and charged once per job; a
        queued grant (:meth:`EdgeQueues.resolve`), which may land after
        later senders, re-sorts the one inbox it lands in and charges
        ``arbitration_stalls`` the ticks it waited. Otherwise every grant
        of :meth:`EdgeQueues.grants` becomes a resorted arrival at
        ``Transit.ticks``; a load-dependent transit is asked of the shared
        link schedule in global ticks, in grant order, so cross-tenant
        contention costs virtual time too.
        """
        queues = self._queues
        if not self._model.is_uniform:
            for edge, entry in queues.grants():
                self._deliver(edge, entry, now)
            return
        claims, queues.claims = queues.claims, {}
        deferred = queues.resolve() if queues.edges else []
        pointers = queues.pointers
        state = None
        for edge, (slot, (owner, _, payload, bits, _)) in claims.items():
            if owner is not state:
                if state is not None:
                    state.charge(rel, count, total)
                state, count, total = owner, 0, 0
                rel = now - state.offset
                bucket = state.stepper.bucket(rel + 1)
                edge_messages = state.stats.edge_messages
            pointers[edge] = slot
            count += 1
            total += bits
            edge_messages[edge] = edge_messages.get(edge, 0) + 1
            sender, target = edge
            inbox = bucket.get(target)
            if inbox is None:
                bucket[target] = {sender: payload}
            else:
                inbox[sender] = payload
        if state is not None:
            state.charge(rel, count, total)
        for edge, entry in deferred:
            self._deliver(edge, entry, now)

    def _deliver(self, edge, entry: tuple, now: int) -> None:
        """Charge and stage one message granted at global tick ``now``."""
        state, sender_index, payload, bits, sent = entry
        rel = now - state.offset
        stats = state.stats
        stats.arbitration_stalls += rel - sent
        state.charge(rel, 1, bits)
        stats.edge_messages[edge] = stats.edge_messages.get(edge, 0) + 1
        stepper = state.stepper
        sender, target = edge
        if stepper.resort:
            ticks = stepper.fabric.transit.ticks(sender, target, now)
            stepper.arrive(rel + ticks, target, (sender_index, sender, payload))
            return
        bucket = stepper.bucket(rel + 1)
        inbox = bucket.setdefault(target, {})
        inbox[sender] = payload
        if len(inbox) > 1:
            index = stepper.index
            bucket[target] = dict(sorted(inbox.items(), key=lambda item: index[item[0]]))

    def _tick(self, state: _JobState, now: int) -> bool:
        """Step one job at global tick ``now``; True when it executed a round."""
        rel = now - state.offset
        stepper = state.stepper
        if stepper.next_tick() != rel:
            return False
        job = state.job
        if rel > job.max_rounds:
            timeout(state.stats, job.max_rounds, job.raise_on_timeout, f"job {job.job_id!r}: ")
            state.timed_out = True
            stepper.heap.clear()
            for entry in self._queues.drop(state.slot):
                state.stats.arbitration_stalls += rel - entry[-1]
            state.pending = 0
        else:
            stepper.step(rel)
        return True

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------

    def _complete_call(self, job: Job, tick: int) -> None:
        result, stats = job.call()
        if not isinstance(stats, RoundStats):
            raise CongestViolation(
                f"call job {job.job_id!r} must return (result, RoundStats); "
                f"got {type(stats).__name__} for the stats"
            )
        self._finish(
            JobOutcome(
                job_id=job.job_id,
                results=result,
                stats=stats,
                admitted_tick=tick,
                completed_tick=tick,
            ),
            job,
        )

    def _complete(self, state: _JobState, now: int) -> None:
        job = state.job
        if state.stepper.record_wall:
            state.stats.virtual_time = state.stats.rounds
        self._finish(
            JobOutcome(
                job_id=job.job_id,
                results={v: job.algorithms[v].result() for v in state.stepper.contexts},
                stats=state.stats,
                admitted_tick=state.offset,
                completed_tick=now,
                status="timeout" if state.timed_out else "completed",
            ),
            job,
        )
        self._running.remove(state)
        # The fabric's submit hook points back at the state; dropping the
        # stepper breaks that cycle, so the job's contexts free right away.
        state.stepper = None
        self._last_activity = max(self._last_activity, now)

    def _finish(self, outcome: JobOutcome, job: Job) -> None:
        self._outcomes[outcome.job_id] = outcome
        if job.on_complete is not None:
            job.on_complete(outcome)
        if self._on_complete is not None:
            self._on_complete(outcome)

    def _reap(self, now: int) -> None:
        """Complete the quiesced jobs; while that frees slots for queued
        jobs, admit them at the next tick and reap again there (a job can
        quiesce at its admission)."""
        while True:
            finished = [
                state for state in self._running
                if state.pending == 0 and state.stepper.next_tick() is None
            ]
            for state in finished:
                self._complete(state, now)
            if not (finished and self._queue):
                return
            now += 1
            self._admit_from_queue(now)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def run(
        self,
        jobs: list[Job],
        on_complete: Callable[[JobOutcome], None] | None = None,
    ) -> ScheduleResult:
        """Execute ``jobs`` to completion and return outcomes + aggregate.

        Jobs are admitted in list order, at most ``max_inflight``
        population jobs at a time; later jobs are admitted the tick after
        a slot frees. Call jobs execute atomically at their admission
        tick.

        Raises:
            CongestViolation: model violations, or a job timing out with
                ``raise_on_timeout`` set.
        """
        seen = set()
        for job in jobs:
            if job.job_id in seen:
                raise CongestViolation(f"duplicate job id {job.job_id!r}")
            seen.add(job.job_id)
        # Topology snapshot, shared by every job (the amortization the
        # serial path pays once per run).
        self._nodes = tuple(self.graph.nodes())
        self._gindex = {v: i for i, v in enumerate(self._nodes)}
        adj = self.graph._adj
        self._neighbors = {v: tuple(adj[v]) for v in self._nodes}
        gindex = self._gindex
        # Edges resolve in global node-index order: under a load-dependent
        # model the shared link schedule charges transits in grant order,
        # and this order matches the direct backends' activation order
        # (the solo-identity contract).
        n = len(self._nodes)
        self._queues = EdgeQueues(order=lambda edge: gindex[edge[0]] * n + gindex[edge[1]])
        # One link schedule per run, shared by every tenant (global
        # ticks): load-dependent transit is a property of the physical
        # link, so concurrent jobs on a link slow each other down.
        self._shared_transit = (
            Transit.resolve(self._model, self.graph, None)
            if self._model.is_dynamic
            else None
        )
        self._running: list[_JobState] = []
        self._queue: deque[Job] = deque(jobs)
        self._outcomes: dict[str, JobOutcome] = {}
        self._heap: list[int] = []
        self._in_heap: set[int] = set()
        self._next_slot = 0
        self._last_activity = 0
        self._on_complete = on_complete

        self._admit_from_queue(0)
        self._reap(0)
        while self._heap or self._queue:
            if not self._heap:
                # Running jobs all quiesced exactly at the last tick and
                # freed their slots; admit the queue at the next tick.
                self._admit_from_queue(self._last_activity + 1)
                self._reap(self._last_activity + 1)
                continue
            now = heapq.heappop(self._heap)
            self._in_heap.discard(now)
            busy = False
            for state in list(self._running):
                busy = self._tick(state, now) or busy
            self._grant(now)
            if self._queues.edges:
                self._wake_global(now + 1)
                busy = True
            if busy:
                self._last_activity = max(self._last_activity, now)
            self._reap(now)
        return ScheduleResult(outcomes=self._outcomes, stats=self._aggregate())

    def _aggregate(self) -> RoundStats:
        """The fabric aggregate: the parallel fold of every job's stats.

        Counters sum (:meth:`RoundStats.merge`); then the fields this
        layer defines differently are set: ``rounds`` (and, when transit is
        not lockstep, ``virtual_time``) is the service makespan, and per-node
        ``completion_times`` and ``phases`` stay with the per-job
        projection in ``jobs``.
        """
        agg = functools.reduce(
            RoundStats.merge, (o.stats for o in self._outcomes.values()), RoundStats()
        )
        agg.rounds = self._last_activity
        # The stepper's wall-time rule: a job's transit is lockstep exactly
        # when the model is uniform (Transit.resolve).
        agg.virtual_time = 0 if self._model.is_uniform else self._last_activity
        agg.completion_times = {}
        agg.phases = {}
        agg.jobs = {job_id: o.stats.copy() for job_id, o in self._outcomes.items()}
        return agg
