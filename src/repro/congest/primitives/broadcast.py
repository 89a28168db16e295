"""Broadcast and convergecast on a known rooted tree.

Both primitives assume each node already knows its parent and children
(e.g. from :func:`repro.congest.primitives.bfs.distributed_bfs`) and
complete in ``depth + O(1)`` rounds.

Convergecast payloads must stay within the CONGEST bit budget, so the
combiner must produce constant-size aggregates (min / max / sum / count —
exactly the aggregates of the part-wise aggregation problem,
Definition 2.1).

Both node classes are *event-native*: they override ``on_wake`` directly
(neither ever latches keep-alive, so a wake-up always carries messages to
observe) and keep ``on_round`` only as the dense scheduler's lockstep
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

__all__ = ["tree_broadcast", "tree_aggregate"]


class _BroadcastNode(NodeAlgorithm):
    def __init__(self, node: int, tree: RootedTree, value: object):
        self.node = node
        self.children = tree.children_of(node)
        self.is_root = node == tree.root
        self.value = value if self.is_root else None

    def on_start(self, ctx):
        if self.is_root:
            return {child: self.value for child in self.children}
        return {}

    def on_round(self, ctx, inbox):
        if self.value is None and inbox:
            self.value = next(iter(inbox.values()))
            return {child: self.value for child in self.children}
        return {}

    def on_wake(self, ctx, inbox):
        # Event-native fast path: this node never latches keep-alive, so a
        # wake-up *is* the single delivery from its parent — no polling
        # branch needed.
        if self.value is None:
            self.value = next(iter(inbox.values()))
            return {child: self.value for child in self.children}
        return {}

    def result(self):
        return self.value


class _BroadcastVectorKernel(VectorKernel):
    """Columnar tree broadcast: the wave walks a child-CSR level by level.

    All messages carry the one broadcast value, so the columns reduce to a
    ``has_value`` flag and the payload rides as a shared object — exactly
    the adoption rule of ``_BroadcastNode.on_wake``.
    """

    dtypes = {"has_value": "bool"}

    def setup(self, ops, algorithms):
        np = ops.np
        index = ops.csr.index
        self.has_value = ops.columns(self.dtypes)["has_value"]
        counts = np.zeros(ops.n + 1, dtype=np.int64)
        child_rows: list = []
        roots = []
        self.value = None
        for i, v in enumerate(ops.csr.nodes):
            alg = algorithms[v]
            row = [index[c] for c in alg.children]
            child_rows.extend(row)
            counts[i + 1] = len(row)
            if alg.is_root:
                roots.append(i)
                self.value = alg.value
        self.childptr = np.cumsum(counts)
        self.childidx = np.array(child_rows, dtype=np.int64)
        self.roots = np.array(roots, dtype=np.int64)
        self.has_value[self.roots] = True
        self.bits = payload_bits(self.value)

    def _forward(self, ops, sources):
        src, dst = ops.expand(sources, self.childptr, self.childidx)
        ops.emit(src, dst, payload=self.value, bits=self.bits)

    def on_start(self, ops):
        self._forward(ops, self.roots)

    def apply(self, ops, inbox):
        receivers = inbox.receivers
        new = receivers[~self.has_value[receivers]]
        self.has_value[new] = True
        return new

    def scatter(self, ops, ready):
        self._forward(ops, ready)

    def fill_results(self, ops, results):
        value = self.value
        results.update(zip(ops.csr.nodes, [
            value if has else None for has in self.has_value.tolist()
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
    _check_tree(graph, tree)
    network = SyncNetwork(
        graph, rng=rng, scheduler=scheduler,
        latency_model=latency_model,
    )
    algorithms = {v: _BroadcastNode(v, tree, value) for v in graph.nodes()}
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
