"""Broadcast and convergecast on a known rooted tree.

Both primitives assume each node already knows its parent and children
(e.g. from :func:`repro.congest.primitives.bfs.distributed_bfs`) and
complete in ``depth + O(1)`` rounds; a pipelined broadcast of ``k``
scalars takes ``depth + k - 1``.

Convergecast payloads must stay within the CONGEST bit budget, so the
combiner must produce constant-size aggregates (min / max / sum / count —
exactly the aggregates of the part-wise aggregation problem,
Definition 2.1).

Both node classes are *event-native*: neither ever latches keep-alive,
so a wake-up carries messages to observe — or, for a broadcast root, is
its own pacing timer. ``on_round`` is the dense scheduler's lockstep
entry point. The dense/event equivalence suite pins the two code
paths to identical behavior.
"""

from __future__ import annotations

import random
from collections.abc import Callable

import networkx as nx

from repro.congest.network import SyncNetwork
from repro.congest.node import NodeAlgorithm
from repro.congest.stats import RoundStats
from repro.congest.vectorized import VectorKernel
from repro.graphs.trees import RootedTree
from repro.util.bitsize import payload_bits
from repro.util.errors import GraphStructureError

__all__ = ["tree_broadcast", "pipelined_broadcast", "tree_aggregate"]


class _BroadcastNode(NodeAlgorithm):
    """One node of :func:`pipelined_broadcast`: the root sends one value
    per round (``schedule_wake(1)`` paces it), every other node forwards
    each arrival to its children and keeps it."""

    def __init__(self, node: int, tree: RootedTree, values: tuple):
        self.node = node
        self.children = tree.children_of(node)
        self.is_root = node == tree.root
        self.values = list(values) if self.is_root else []
        self.sent = 0

    def _send_next(self, ctx):
        """Root: the next value to every child, pacing the rest."""
        value = self.values[self.sent]
        self.sent += 1
        if self.sent < len(self.values):
            ctx.schedule_wake(1)
        return {child: value for child in self.children}

    def on_start(self, ctx):
        if self.is_root and self.children and self.values:
            return self._send_next(ctx)
        return {}

    def on_round(self, ctx, inbox):
        if self.is_root:
            # Only the pacing timer wakes the root; on dense every later
            # round is a spurious wake and must stay a no-op.
            if 0 < self.sent < len(self.values):
                return self._send_next(ctx)
            return {}
        if not inbox:
            return {}
        value = next(iter(inbox.values()))
        self.values.append(value)
        return {child: value for child in self.children}

    # Event-native: a non-root node never latches keep-alive or a timer,
    # so a wake-up *is* one delivery from its parent, and the root is only
    # ever woken by its own pacing timer.
    on_wake = on_round

    def result(self):
        return tuple(self.values)


class _BroadcastVectorKernel(VectorKernel):
    """Columnar pipelined broadcast: the wave walks a child-CSR level by level.

    Under lockstep a node at depth ``d`` receives value ``j`` in round
    ``d + j``, so a ``received`` count per node stands for its values, and
    each forward batch groups the senders by the value they pass on — the
    adoption rule of ``_BroadcastNode.on_wake``. The roots' pacing timer
    sends value ``r`` in round ``r`` and counts one activation, as its
    wake-up does on ``event``.
    """

    dtypes = {"received": "int64"}

    def setup(self, ops, algorithms):
        np = ops.np
        index = ops.csr.index
        self.received = ops.columns(self.dtypes)["received"]
        counts = np.zeros(ops.n + 1, dtype=np.int64)
        child_rows: list = []
        roots = []
        self.values: tuple = ()
        for i, v in enumerate(ops.csr.nodes):
            alg = algorithms[v]
            row = [index[c] for c in alg.children]
            child_rows.extend(row)
            counts[i + 1] = len(row)
            if alg.is_root:
                self.values = tuple(alg.values)
                self.received[i] = len(self.values)
                if row:
                    roots.append(i)
        self.childptr = np.cumsum(counts)
        self.childidx = np.array(child_rows, dtype=np.int64)
        self.roots = np.array(roots, dtype=np.int64)
        self.bits = [payload_bits(value) for value in self.values]
        self.sent = 0

    def _forward(self, ops, sources, position):
        src, dst = ops.expand(sources, self.childptr, self.childidx)
        ops.emit(src, dst, payload=self.values[position], bits=self.bits[position])

    def _pace_roots(self, ops):
        """The roots' next value, one per round, as their timer sends it."""
        if self.sent < len(self.values) and self.roots.size:
            if self.sent:
                ops.stats.activations += int(self.roots.size)
            self._forward(ops, self.roots, self.sent)
            self.sent += 1

    def on_start(self, ops):
        self._pace_roots(ops)

    def apply(self, ops, inbox):
        receivers = inbox.receivers
        self.received[receivers] += 1
        self._pace_roots(ops)
        return receivers

    def scatter(self, ops, ready):
        positions = self.received[ready] - 1
        for position in ops.np.unique(positions).tolist():
            self._forward(ops, ready[positions == position], position)

    def fill_results(self, ops, results):
        prefixes = [self.values[:count] for count in range(len(self.values) + 1)]
        results.update(zip(ops.csr.nodes, [
            prefixes[count] for count in self.received.tolist()
        ]))


_BroadcastNode.vector_kernel = _BroadcastVectorKernel


def _check_tree(graph: nx.Graph, tree: RootedTree) -> None:
    """The tree must span exactly the graph's nodes (O(n); a tree edge
    that is not a graph edge already fails at its first send)."""
    if len(tree) != graph.number_of_nodes() or not all(map(tree.__contains__, graph)):
        raise GraphStructureError(
            f"the tree ({len(tree)} nodes) does not span exactly the "
            f"graph's {graph.number_of_nodes()} nodes"
        )


def tree_broadcast(
    graph: nx.Graph,
    tree: RootedTree,
    value: object,
    rng: int | random.Random | None = None,
    scheduler: str = "event",
    latency_model: object = None,
) -> tuple[dict[int, object], RoundStats]:
    """Send ``value`` from the tree root to every node (``depth`` rounds).

    Raises:
        GraphStructureError: if ``tree`` does not span exactly the graph's
            nodes.
    """
    received, stats = pipelined_broadcast(
        graph, tree, (value,), rng=rng, scheduler=scheduler,
        latency_model=latency_model,
    )
    return {v: values[0] if values else None for v, values in received.items()}, stats


def pipelined_broadcast(
    graph: nx.Graph,
    tree: RootedTree,
    values: tuple,
    rng: int | random.Random | None = None,
    scheduler: str = "event",
    latency_model: object = None,
) -> tuple[dict[int, tuple], RoundStats]:
    """Send the scalars ``values`` from the tree root to every node in one
    run: one scalar per message, the root sending one per round, so the
    wave takes ``depth + len(values) - 1`` rounds instead of one run of
    ``depth`` rounds per value.

    Each tree edge must deliver the wave in send order, as lockstep and
    every static latency model do (one fixed latency per edge);
    ``contention`` does for waves of up to three values.

    Returns:
        ``({node: values received, in order}, stats)``.

    Raises:
        GraphStructureError: if ``tree`` does not span exactly the graph's
            nodes.
    """
    _check_tree(graph, tree)
    network = SyncNetwork(
        graph, rng=rng, scheduler=scheduler,
        latency_model=latency_model,
    )
    algorithms = {v: _BroadcastNode(v, tree, values) for v in graph.nodes()}
    return network.run(algorithms)


class _AggregateNode(NodeAlgorithm):
    def __init__(
        self,
        node: int,
        tree: RootedTree,
        value: object,
        combine: Callable[[object, object], object],
    ):
        self.node = node
        self.parent = tree.parent_of(node)
        self.pending = set(tree.children_of(node))
        self.accumulator = value
        self.combine = combine
        self.sent = False

    def _ready_outbox(self):
        if self.pending or self.sent:
            return {}
        self.sent = True
        if self.parent is None:
            return {}
        return {self.parent: self.accumulator}

    def on_start(self, ctx):
        return self._ready_outbox()

    def on_round(self, ctx, inbox):
        for sender, payload in inbox.items():
            self.pending.discard(sender)
            self.accumulator = self.combine(self.accumulator, payload)
        return self._ready_outbox()

    # Event-native: this node never latches keep-alive, so a wake-up always
    # carries child reports, and on_round already has no empty-inbox polling
    # branch to skip — the native activation *is* the lockstep body.
    on_wake = on_round

    def result(self):
        return self.accumulator


class _AggregateVectorKernel(VectorKernel):
    """Columnar convergecast: countdown columns, object-array payloads.

    ``pending`` child counts live in an int column (each child reports
    exactly once, so the interpreted ``pending.discard(sender)`` is a
    decrement here); accumulators stay a Python object list folded with
    the user's ``combine`` in ``(receiver, sender-index)`` order — the
    inbox order every interpreted backend materializes.
    """

    dtypes = {"pending": "int64", "sent": "bool"}

    def setup(self, ops, algorithms):
        np = ops.np
        index = ops.csr.index
        cols = ops.columns(self.dtypes)
        self.pending = cols["pending"]
        self.sent = cols["sent"]
        self.parent = np.full(ops.n, -1, dtype=np.int64)
        self.acc: list = [None] * ops.n
        self.combine = None
        for i, v in enumerate(ops.csr.nodes):
            alg = algorithms[v]
            if alg.parent is not None:
                self.parent[i] = index[alg.parent]
            self.pending[i] = len(alg.pending)
            self.acc[i] = alg.accumulator
            self.combine = alg.combine

    def _report(self, ops, ready):
        # Mirrors _ready_outbox: latch sent (the root included), then
        # report each non-root accumulator to its parent.
        np = ops.np
        self.sent[ready] = True
        senders = ready[self.parent[ready] >= 0]
        if senders.size == 0:
            return
        objs = np.empty(senders.size, dtype=object)
        bits = np.empty(senders.size, dtype=np.int64)
        for j, i in enumerate(senders.tolist()):
            objs[j] = self.acc[i]
            bits[j] = payload_bits(self.acc[i])
        ops.emit(senders, self.parent[senders], objs=objs, bits=bits)

    def on_start(self, ops):
        self._report(ops, ops.np.flatnonzero(self.pending == 0))

    def apply(self, ops, inbox):
        combine = self.combine
        acc = self.acc
        for d, payload in zip(inbox.dst.tolist(), inbox.objs.tolist()):
            acc[d] = combine(acc[d], payload)
        receivers = inbox.receivers
        self.pending[receivers] -= inbox.counts
        return receivers[(self.pending[receivers] == 0) & ~self.sent[receivers]]

    def scatter(self, ops, ready):
        self._report(ops, ready)

    def fill_results(self, ops, results):
        results.update(zip(ops.csr.nodes, self.acc))


_AggregateNode.vector_kernel = _AggregateVectorKernel


def tree_aggregate(
    graph: nx.Graph,
    tree: RootedTree,
    values: dict[int, object],
    combine: Callable[[object, object], object],
    rng: int | random.Random | None = None,
    scheduler: str = "event",
    latency_model: object = None,
) -> tuple[object, RoundStats]:
    """Combine per-node ``values`` up the tree; the root's total is returned.

    ``combine`` must be associative and commutative and keep payloads within
    the bit budget (ints, small tuples).

    Raises:
        GraphStructureError: if ``tree`` does not span exactly the graph's
            nodes, or ``values`` misses a node.
    """
    _check_tree(graph, tree)
    missing = [v for v in graph if v not in values]
    if missing:
        raise GraphStructureError(
            f"values miss {len(missing)} graph nodes, e.g. {missing[:5]}"
        )
    network = SyncNetwork(
        graph, rng=rng, scheduler=scheduler,
        latency_model=latency_model,
    )
    algorithms = {
        v: _AggregateNode(v, tree, values[v], combine) for v in graph.nodes()
    }
    results, stats = network.run(algorithms)
    return results[tree.root], stats
