"""Pipelined multi-item convergecast: collect the k smallest items at the root.

The workhorse behind "collect a bounded number of ids/values at the root"
steps (e.g. gathering candidate edges, or the sweep's distinct-id streams).
Each node forwards, one item per round, the smallest items it has seen and
not yet sent, keeping only ``k``; classic pipelining gives ``O(depth + k)``
rounds — the measured complexity asserted in the tests.

Termination is *ack-driven* (PR 5): a node signals completion up the tree
the moment it can guarantee no further items will flow — every child has
signalled completion and everything in its final top-``k`` window has been
forwarded — by piggybacking its last item as a ``FIN`` message (or sending
a bare ``ACK`` when there is nothing left to carry it). The retired
variant instead kept every node alive for a *calibrated horizon* of
``depth + k + 2`` rounds, which (a) cost ``n · (depth + k)`` activations
on every instance regardless of traffic and (b) read ``ctx.round`` as wall
time, so a non-uniform latency model could push late items past the
horizon and silently truncate the result. The ack protocol pipelines
exactly as before — a node forwards eagerly while its children are still
streaming, paced by ``ctx.schedule_wake(1)`` rather than keep-alive
polling — but finishes by *quiescing*, which is correct under every
scheduler backend and every latency model.
"""

from __future__ import annotations

import random

import networkx as nx

from repro.congest.network import SyncNetwork
from repro.congest.node import NodeAlgorithm
from repro.congest.stats import RoundStats
from repro.graphs.trees import RootedTree
from repro.util.errors import GraphStructureError

__all__ = ["pipelined_top_k", "TopKNode"]

_ID_TAG = 0  # (0, item): a forwarded item, completion not yet guaranteed
_FIN_TAG = 1  # (1, item): the final forwarded item, doubling as the ack
_ACK_TAG = 2  # (2,): completion with no item left to piggyback it on


class TopKNode(NodeAlgorithm):
    """Forwards its k smallest known items upward, one per round, then acks.

    Eagerly pipelined: forwarding starts in ``on_start`` and continues
    while children are still streaming (new smaller items wake the node and
    join the stream). The completion ack — ``FIN`` piggybacked on the last
    item, or a bare ``ACK`` — is sent only once every child has acked and
    the (now frozen) top-``k`` window is fully forwarded, so the root's
    quiescence *is* global completion: no horizon, no keep-alive.
    """

    def __init__(self, node: int, tree: RootedTree, items: list, k: int):
        self.node = node
        self.parent = tree.parent_of(node)
        self.pending = set(tree.children_of(node))
        self.k = k
        # Set semantics from the start: a node's own duplicates must not
        # occupy top-k window slots (inbox ingest already dedups).
        self.known: list = sorted(set(items))[:k]
        self.sent: set = set()
        self.done = False

    def _ingest(self, inbox):
        for sender, payload in inbox.items():
            tag = payload[0]
            if tag == _ACK_TAG:
                self.pending.discard(sender)
                continue
            if tag == _FIN_TAG:
                self.pending.discard(sender)
            item = payload[1]
            if item not in self.known:
                self.known.append(item)
                self.known.sort()
                del self.known[self.k :]

    def _emit(self, ctx):
        if self.parent is None or self.done:
            return {}
        for item in self.known:
            if item not in self.sent:
                self.sent.add(item)
                if any(other not in self.sent for other in self.known):
                    # More to stream: pace the next send one round out.
                    ctx.schedule_wake(1)
                    return {self.parent: (_ID_TAG, item)}
                if not self.pending:
                    # Children all acked and this empties the window: the
                    # last item carries the ack.
                    self.done = True
                    return {self.parent: (_FIN_TAG, item)}
                # Window drained but children may still deliver smaller
                # items; their messages will wake this node again.
                return {self.parent: (_ID_TAG, item)}
        if not self.pending:
            self.done = True
            return {self.parent: (_ACK_TAG,)}
        return {}

    def on_start(self, ctx):
        return self._emit(ctx)

    def on_round(self, ctx, inbox):
        self._ingest(inbox)
        return self._emit(ctx)

    # Event-native: every wake either carries child messages or is the
    # schedule_wake(1) stream continuation, and the lockstep body is a
    # no-op when neither applies — no polling branch to skip.
    on_wake = on_round

    def result(self):
        return tuple(self.known)


def pipelined_top_k(
    graph: nx.Graph,
    tree: RootedTree,
    items: dict[int, list],
    k: int,
    rng: int | random.Random | None = None,
    scheduler: str = "event",
    latency_model: object = None,
) -> tuple[tuple, RoundStats]:
    """Collect the k globally-smallest items at the tree root.

    Args:
        graph: the communication graph (the tree's host).
        tree: a rooted spanning tree.
        items: per-node lists of comparable, hashable, CONGEST-sized items.
            *Set* semantics: equal items collapse to one occurrence (each
            node forwards a value at most once), so the result is the k
            smallest **distinct** values — the id-collection contract every
            caller in this library relies on (pinned by the tests).
        k: how many to collect.

    Returns:
        ``(top_k_items, stats)`` with ``stats.rounds = O(depth + k)``; the
        ack-driven termination quiesces as soon as the root has everything
        (often well under the retired ``depth + k + 2`` horizon) and is
        exact under any ``latency_model``.

    Raises:
        GraphStructureError: if ``k < 1``.
    """
    if k < 1:
        raise GraphStructureError(f"k must be positive, got {k}")
    network = SyncNetwork(
        graph, rng=rng, scheduler=scheduler,
        latency_model=latency_model,
    )
    algorithms = {
        v: TopKNode(v, tree, list(items.get(v, [])), k)
        for v in graph.nodes()
    }
    results, stats = network.run(algorithms)
    return results[tree.root], stats
