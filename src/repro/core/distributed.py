"""Theorem 1.5: the distributed CONGEST construction of the shortcuts.

Pipeline (each phase runs in the simulator and is measured):

1. **bfs** — build a BFS tree from the root (``O(D)`` rounds); skipped
   when the caller passes a tree.
2. **meta** — convergecast the tree depth to the root and broadcast the
   sweep parameters ``(seed, c, τ)`` (``O(D)`` rounds).
3. **sweep** — the *ack-driven sampled upward sweep*: each part is
   sampled with the shared-seed probability ``p = Θ(log n)/c`` (so all of a
   part's nodes agree without communication); sampled part-ids flow up the
   tree one id per edge per round; a node whose accumulated distinct-id
   count reaches the threshold ``τ = ceil(3/4 · p · c)`` declares its
   parent edge *overcongested* and stops forwarding. This is the sampling
   idea of [HIZ16a, HHW18] applied to the paper's exact marking process;
   Chernoff bounds give ``|I_e| ≥ c ⇒ marked`` and ``marked ⇒ |I_e| ≥ c/2``
   whp, so all Theorem 3.1 guarantees hold with constant-factor slack.
   Rounds: ``O(D + total forwarded ids) = O(D log n)`` worst case, usually
   far less. With ``exact=True`` the sample rate is 1 and ``τ = c`` — the
   deterministic variant, used to cross-validate the sampled marking
   against the centralized one.
4. **verify** — all parts aggregate through their candidate shortcuts
   (random-delay scheduling, measured): this is how parts learn their
   aggregate actually works and is the dominant ``O~(δD)`` term.

Total measured rounds: ``O(D log n + δD log n) = O~(δD)`` — experiment E5.

The ack protocol (PR 5)
-----------------------

The sweep used to be *level-synchronized*: a node at depth ``ℓ`` owned a
calibrated window of ``τ + 1`` rounds and decided its marking at the
window's first round, trusting that lockstep delivery put every child
forward inside the previous window. That calibration reads ``ctx.round``
as wall time, so under a non-uniform latency model (``latency_model=``)
slow links pushed child forwards past their window and silently degraded
the Theorem 3.1 marking. The sweep is now *ack-driven* and event-native —
correct under **arbitrary** per-edge latencies, the asynchronous-safe
convergecast assumption of the Ghaffari–Haeupler shortcut frameworks:

* a node's upward stream is ``(ID, part_id)`` messages, one per round
  (paced by ``ctx.schedule_wake(1)``, no keep-alive polling), terminated
  either by piggybacking the last id as ``(FIN, part_id)`` or — when there
  is nothing to forward (marked, or an empty id set) — by a bare ``(ACK,)``;
* a parent decides its own marking exactly when every child has completed
  (``FIN``/``ACK`` received from each), never by counting rounds, so its
  decision is always based on its final accumulated id set;
* leaves decide in ``on_start``; quiescence is the root having absorbed
  every stream — the network's own termination detector, no horizon.

The packet scheduler (:mod:`repro.sched.partwise`) runs the verification
phase with the same convergecast-completion rule and the same delivery
convention (a message sent at tick ``t`` crosses edge ``e`` by
``t + latency(e)``). The retired level-synchronized node survives as
:class:`KeepAliveSweepNode` (``sweep="keep-alive"``) — the measurement arm
benchmark E19 contrasts against, and the regression subject for its
round-skip decision bug.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import networkx as nx

from repro.congest.network import SyncNetwork, validate_scheduler
from repro.congest.node import NodeAlgorithm
from repro.congest.primitives.bfs import distributed_bfs
from repro.congest.primitives.broadcast import tree_aggregate, tree_broadcast
from repro.congest.stats import RoundStats
from repro.core.bounds import theorem31_block_budget, theorem31_congestion_budget
from repro.core.partial import PartialShortcutResult, conflict_from_marking
from repro.graphs.partition import Partition
from repro.graphs.trees import RootedTree
# Unused here, but perfbench/spans.py rebinds ``payload_bits`` by name in
# this module to count bit-sizing calls, so the name must stay bound.
from repro.util.bitsize import payload_bits  # noqa: F401
from repro.util.errors import ShortcutError
from repro.util.rng import ensure_rng, part_sample_hash

__all__ = [
    "DistributedShortcutResult",
    "distributed_partial_shortcut",
    "SweepNode",
    "KeepAliveSweepNode",
    "SWEEP_VARIANTS",
]

_ID_TAG = 0  # (0, part_id): one forwarded distinct id, more follow
_FIN_TAG = 1  # (1, part_id): the final forwarded id, doubling as the ack
_ACK_TAG = 2  # (2,): completion with nothing to forward (marked, or empty)

# Registered sweep implementations for distributed_partial_shortcut.
SWEEP_VARIANTS = ("ack", "keep-alive")


class SweepNode(NodeAlgorithm):
    """One node of the ack-driven sampled upward sweep.

    Purely reactive: the node accumulates distinct ids from its children's
    streams and decides its marking at the exact moment the last child
    completes (``FIN``/``ACK`` received from each) — leaves decide in
    ``on_start``. An unmarked node then streams its accumulated ids upward
    one per round (``schedule_wake(1)`` paces the stream; the last id is
    piggybacked as the ack), a marked or empty node sends a bare ack.
    Because completion is signalled, never inferred from the round number,
    the marking is exact under every scheduler backend and every latency
    model, and activations are ``O(messages)`` — no keep-alive polling.
    """

    def __init__(
        self,
        node: int,
        part_id: int | None,
        parent: int | None,
        children: tuple[int, ...],
        tau: int,
        probability: float,
        seed: int,
    ):
        self.node = node
        self.parent = parent
        self.tau = tau
        self.pending = set(children)
        self.ids: set[int] = set()
        if part_id is not None and part_sample_hash(part_id, seed, probability):
            self.ids.add(part_id)
        self.marked = False
        self.decided = False
        self.send_queue: list[int] = []

    def _decide(self, ctx):
        """All children complete: fix the marking, open the upward stream."""
        self.decided = True
        if self.parent is None:
            return {}
        if len(self.ids) >= self.tau:
            self.marked = True
            return {self.parent: (_ACK_TAG,)}
        self.send_queue = sorted(self.ids)  # streamed from the end
        return self._emit(ctx)

    def _emit(self, ctx):
        """One send of the upward stream; the final one carries the ack."""
        if not self.send_queue:
            return {self.parent: (_ACK_TAG,)}
        item = self.send_queue.pop()
        if self.send_queue:
            ctx.schedule_wake(1)
            return {self.parent: (_ID_TAG, item)}
        return {self.parent: (_FIN_TAG, item)}

    def on_start(self, ctx):
        if not self.pending:
            return self._decide(ctx)
        return {}

    def on_round(self, ctx, inbox):
        for sender, payload in inbox.items():
            tag = payload[0]
            if tag == _ID_TAG:
                self.ids.add(payload[1])
            elif tag == _FIN_TAG:
                self.ids.add(payload[1])
                self.pending.discard(sender)
            else:
                self.pending.discard(sender)
        if not self.decided:
            if self.pending:
                return {}
            return self._decide(ctx)
        if self.send_queue:
            # A paced continuation of the stream (all children are done by
            # now, so this wake carries no messages to ingest).
            return self._emit(ctx)
        return {}

    # Event-native: every wake either carries child messages or is the
    # schedule_wake(1) stream continuation — the lockstep body above is
    # already free of polling branches.
    on_wake = on_round

    def result(self):
        return {
            "marked": self.marked,
            "ids_seen": len(self.ids),
            "decided": self.decided,
        }


class KeepAliveSweepNode(NodeAlgorithm):
    """The retired level-synchronized sweep (``sweep="keep-alive"``).

    Node at depth ``ℓ`` owns the window of rounds
    ``[(depth_max - ℓ)·(τ+1) + 1, (depth_max - ℓ + 1)·(τ+1)]``. All of its
    children's forwards arrive by the window's first round *in lockstep*,
    so the node's marking decision at that round is based on its final
    accumulated id set. Under a non-uniform latency model the windows are
    read against virtual time, so the marking degrades (deterministically)
    as links slow down — kept as the measurement arm that benchmark E19
    contrasts with the ack-driven sweep, and as the activation-cost
    contrast (every node latches keep-alive for the entire schedule).

    The decision check is ``ctx.round >= decision_round`` with a
    ``decided`` latch, *not* equality: a clock that skips rounds (virtual
    time under a non-uniform model jumps between arrival ticks whenever a
    node's wakes are not back-to-back) would strand an equality-checking
    node undecided until ``max_rounds``.
    """

    def __init__(
        self,
        node: int,
        part_id: int | None,
        parent: int | None,
        depth: int,
        depth_max: int,
        tau: int,
        probability: float,
        seed: int,
    ):
        self.node = node
        self.parent = parent
        self.tau = tau
        window = tau + 1
        self.decision_round = (depth_max - depth) * window + 1
        self.last_round = depth_max * window + 1
        self.ids: set[int] = set()
        if part_id is not None and part_sample_hash(part_id, seed, probability):
            self.ids.add(part_id)
        self.marked = False
        self.send_queue: list[int] = []
        self.decided = False

    def on_start(self, ctx):
        # The sweep is window-driven: stay alive through the whole schedule
        # even while silent, so quiescence detection does not cut it short.
        ctx.keep_alive()
        return {}

    def on_round(self, ctx, inbox):
        for payload in inbox.values():
            if payload[0] == _ID_TAG:
                self.ids.add(payload[1])
        outbox: dict[int, object] = {}
        if self.parent is not None:
            if ctx.round >= self.decision_round and not self.decided:
                self.decided = True
                if len(self.ids) >= self.tau:
                    self.marked = True
                else:
                    self.send_queue = sorted(self.ids)
            if self.decided and not self.marked and self.send_queue:
                outbox[self.parent] = (_ID_TAG, self.send_queue.pop())
        if ctx.round < self.last_round:
            ctx.keep_alive()
        return outbox

    def result(self):
        return {
            "marked": self.marked,
            "ids_seen": len(self.ids),
            "decided": self.decided,
        }


@dataclass
class DistributedShortcutResult(PartialShortcutResult):
    """Output of the distributed construction.

    A :class:`~repro.core.partial.PartialShortcutResult` whose
    ``overcongested`` set is the sampled marking and whose ``stats`` are
    the measured rounds per phase; ``params`` records the sweep's
    parameters (sample rate, threshold, shared seed, ...).
    """

    params: dict = field(default_factory=dict)


def distributed_partial_shortcut(
    graph: nx.Graph,
    partition: Partition,
    delta: float,
    root: int | None = None,
    tree: RootedTree | None = None,
    rng: int | random.Random | None = None,
    sampling_factor: float = 6.0,
    exact: bool = False,
    run_verification: bool = True,
    elect_root: bool = False,
    scheduler: str = "event",
    latency_model: object = None,
    sweep: str = "ack",
) -> DistributedShortcutResult:
    """Run the full Theorem 1.5 pipeline; all round counts are measured.

    Args:
        graph: connected host graph.
        partition: the parts (every node knows only its own part id).
        delta: the minor-density parameter fixing the budgets
            ``c = 8δD`` and block budget ``8δ``.
        root: BFS root (defaults to the smallest node id).
        tree: a rooted tree to build on instead of a fresh BFS tree: phase
            1 is skipped and the root is ``tree.root``. Observation 2.7
            passes its first iteration's tree to every later iteration.
        rng: seed or generator (drives the shared sampling seed and the
            verification delays).
        sampling_factor: the ``Θ(log n)`` multiplier in the sample rate.
        exact: disable sampling (deterministic variant), used to
            cross-validate the marking against the centralized process.
        run_verification: include phase 4 (dominant cost; disable only for
            sweep-only microbenchmarks).
        elect_root: run a real distributed leader election for the root
            instead of assuming one (adds a measured ``O(D)``-round phase).
        scheduler: simulator scheduler for every phase (``"event"``,
            ``"dense"``, or ``"vectorized"``; see :mod:`repro.congest`).
        latency_model: per-edge latency model for the event scheduler
            (``None`` = uniform/lockstep-equivalent). The default
            ack-driven sweep keeps the marking exact under any model; the
            ``"keep-alive"`` sweep reads its calibrated windows against
            virtual time and degrades (deterministically) as links slow
            down — the measurement arm of benchmark E19.
        sweep: ``"ack"`` (event-native ack-driven sweep, the default) or
            ``"keep-alive"`` (the retired level-synchronized variant; see
            :class:`KeepAliveSweepNode`).

    Raises:
        ShortcutError: if ``delta <= 0``, if more than one of ``root``,
            ``elect_root`` and ``tree`` is given, or on an unknown
            ``sweep`` variant.
    """
    if delta <= 0:
        raise ShortcutError(f"delta must be positive, got {delta}")
    if sweep not in SWEEP_VARIANTS:
        raise ShortcutError(
            f"unknown sweep variant {sweep!r}; registered sweeps: "
            f"{', '.join(SWEEP_VARIANTS)}"
        )
    validate_scheduler(
        scheduler, ShortcutError, latency_model=latency_model
    )
    rng = ensure_rng(rng)
    stats = RoundStats()
    if tree is not None and (root is not None or elect_root):
        raise ShortcutError("a given tree fixes the root; pass no root or elect_root")
    if elect_root:
        if root is not None:
            raise ShortcutError("pass either root or elect_root, not both")
        from repro.congest.primitives.election import elect_leader

        root, election_stats = elect_leader(
            graph, rng=rng, scheduler=scheduler,
            latency_model=latency_model,
        )
        stats.add_phase("election", election_stats)
    elif root is None:
        root = min(graph.nodes())

    # Phase 1: BFS tree, unless the caller passed one.
    if tree is None:
        tree, bfs_stats = distributed_bfs(
            graph, root, rng=rng, scheduler=scheduler,
            latency_model=latency_model,
        )
        stats.add_phase("bfs", bfs_stats)

    # Phase 2: depth convergecast + parameter broadcast.
    depth_values = {v: tree.depth_of(v) for v in graph.nodes()}
    depth_max, up_stats = tree_aggregate(
        graph, tree, depth_values, max, rng=rng, scheduler=scheduler,
        latency_model=latency_model,
    )
    depth_max = max(depth_max, 1)
    n = graph.number_of_nodes()
    congestion_budget = theorem31_congestion_budget(delta, depth_max)
    block_budget = theorem31_block_budget(delta)
    # 16-bit shared seed: enough hash diversity, and a bare int fits the
    # O(log n) message budget even on tiny graphs.
    seed = rng.randrange(2**16)
    if exact:
        probability = 1.0
        tau = congestion_budget
    else:
        probability = min(1.0, sampling_factor * math.log2(max(n, 2)) / congestion_budget)
        if probability >= 1.0:
            tau = congestion_budget
        else:
            tau = max(1, math.ceil(0.75 * probability * congestion_budget))
    # Three scalar broadcasts keep each message within the bit budget.
    meta_stats = up_stats
    for scalar in (seed, congestion_budget, tau):
        _, down_stats = tree_broadcast(
            graph, tree, scalar, rng=rng, scheduler=scheduler,
            latency_model=latency_model,
        )
        meta_stats = meta_stats + down_stats
    stats.add_phase("meta", meta_stats)

    # Phase 3: the sampled upward sweep.
    network = SyncNetwork(
        graph, rng=rng, scheduler=scheduler,
        latency_model=latency_model,
    )
    if sweep == "ack":
        algorithms: dict[int, NodeAlgorithm] = {
            v: SweepNode(
                node=v,
                part_id=partition.part_index_of(v),
                parent=tree.parent_of(v),
                children=tree.children_of(v),
                tau=tau,
                probability=probability,
                seed=seed,
            )
            for v in graph.nodes()
        }
    else:
        algorithms = {
            v: KeepAliveSweepNode(
                node=v,
                part_id=partition.part_index_of(v),
                parent=tree.parent_of(v),
                depth=tree.depth_of(v),
                depth_max=depth_max,
                tau=tau,
                probability=probability,
                seed=seed,
            )
            for v in graph.nodes()
        }
    sweep_results, sweep_stats = network.run(algorithms)
    stats.add_phase("sweep", sweep_stats)
    marked = frozenset(v for v, r in sweep_results.items() if r["marked"])
    # Stranded nodes (non-root, never reached a marking decision): always 0
    # for the ack-driven sweep by construction; for the keep-alive sweep a
    # regression guard on the >= decision check (a skipped clock must not
    # leave windows unentered).
    undecided = sum(
        1
        for v, r in sweep_results.items()
        if not r["decided"] and tree.parent_of(v) is not None
    )

    # Interpret the marking exactly as the centralized construction would.
    result = DistributedShortcutResult.from_marking(
        graph, tree, partition, delta, congestion_budget, block_budget,
        marked, conflict_from_marking(tree, partition, marked),
        stats=stats,
        params={
            "probability": probability,
            "tau": tau,
            "seed": seed,
            "depth_max": depth_max,
            "exact": exact,
            "sweep": sweep,
            "undecided": undecided,
        },
    )

    # Phase 4: parts verify their shortcut by aggregating through it.
    if run_verification and result.satisfied:
        from repro.sched.partwise import partwise_aggregate

        shortcut = result.shortcut()
        sub_partition = shortcut.partition
        verification = partwise_aggregate(
            graph,
            sub_partition,
            shortcut,
            {v: 1 for v in graph.nodes()},
            lambda a, b: a + b,
            rng=rng,
            latency_model=latency_model,
        )
        stats.add_phase("verify", verification.stats)
    return result

