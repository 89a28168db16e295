"""Distributed BFS-tree construction (flooding).

The root announces depth 0; every node adopts as parent the smallest-id
neighbor among the first announcements it hears, replies with a JOIN so
parents learn their children, and re-announces. Completes in
``eccentricity(root) + O(1)`` rounds with one message per edge direction —
the textbook CONGEST BFS.
"""

from __future__ import annotations

import random

import networkx as nx

from repro.congest.network import SyncNetwork
from repro.congest.node import NodeAlgorithm
from repro.congest.stats import RoundStats
from repro.congest.vectorized import VectorKernel
from repro.graphs.trees import RootedTree
from repro.util.bitsize import payload_bits
from repro.util.errors import GraphStructureError

__all__ = ["distributed_bfs", "BfsNode", "BfsVectorKernel"]

_ADV = 0  # ("adv" message tag, depth)
_JOIN = 1  # join message tag
_JOIN_BITS = payload_bits((_JOIN,))


class BfsNode(NodeAlgorithm):
    """Per-node state machine for BFS flooding.

    Event-native: ``on_wake`` is the event backend's entry point (a BFS
    node never latches keep-alive, so a wake always carries messages) and
    ``on_round`` the dense scheduler's; the equivalence suite pins the two.
    A node announces one shared ``(ADV, depth)`` object to all its other
    neighbours, so the fabric sizes it once per outbox.
    """

    def __init__(self, node: int, is_root: bool):
        self.node = node
        self.is_root = is_root
        self.parent: int | None = None
        self.depth: int | None = 0 if is_root else None
        # Sorted ids in a tuple, not a list: the collector stops tracking a
        # tuple of ints, and result() hands it out as is, so neither the
        # node's state nor its result dict adds a long-lived container per
        # node for the cyclic collector to walk.
        self.children: tuple[int, ...] = ()

    def on_start(self, ctx):
        if not self.is_root:
            return {}
        return {neighbor: (_ADV, 0) for neighbor in ctx.neighbors}

    def _adopt(self, ctx, parent, parent_depth):
        """Join below ``parent``: JOIN to it, announce the depth to the rest."""
        self.parent = parent
        self.depth = depth = parent_depth + 1
        outbox = {parent: (_JOIN,)}
        announce = (_ADV, depth)
        for neighbor in ctx.neighbors:
            if neighbor != parent:
                outbox[neighbor] = announce
        return outbox

    def _add_children(self, inbox):
        joins = [sender for sender, payload in inbox.items() if payload[0] == _JOIN]
        if joins:
            joins.extend(self.children)
            joins.sort()
            self.children = tuple(joins)

    def on_round(self, ctx, inbox):
        self._add_children(inbox)
        if self.depth is None:
            advertisers = [
                (sender, payload[1]) for sender, payload in inbox.items() if payload[0] == _ADV
            ]
            if advertisers:
                # All first-round advertisers have the same depth
                # (synchronous flooding); adopt the smallest id for
                # determinism.
                return self._adopt(ctx, *min(advertisers))
        return {}

    def on_wake(self, ctx, inbox):
        if self.depth is None:
            # A node hears JOINs only once it has joined, so this first
            # inbox holds ADVs alone: adopt the smallest-id advertiser.
            parent = min(inbox)
            return self._adopt(ctx, parent, inbox[parent][1])
        self._add_children(inbox)
        return {}

    def result(self):
        return {
            "parent": self.parent,
            "depth": self.depth,
            "children": self.children,
        }


def _materialize(tag, value):
    if tag == _JOIN:
        return (_JOIN,)
    return (_ADV, value)


class BfsVectorKernel(VectorKernel):
    """Columnar BFS flooding: one apply/scatter pass advances the wave.

    ``apply`` adopts, for every unvisited receiver at once, the
    advertiser with the smallest node id — ``min(advertisers)`` over
    ``(sender, depth)`` pairs is decided by the sender id alone (ids are
    unique within an inbox), reproduced here as a ``(receiver, id)``
    lexsort + first-per-group. ``scatter`` emits the JOIN to each parent
    and re-advertises to the remaining neighbors in one flat batch.
    """

    dtypes = {"depth": "int64", "parent": "int64"}

    @classmethod
    def accepts(cls, csr, members, algorithms):
        # The advertiser tie-break compares node *ids*; without an int64
        # id column there is nothing to lexsort by.
        return csr.ids is not None

    def setup(self, ops, claimed, algorithms):
        np = ops.np
        self.claimed = claimed
        cols = ops.columns(self.dtypes)
        self.depth = cols["depth"]
        self.depth.fill(-1)
        self.parent = cols["parent"]
        self.parent.fill(-1)
        nodes = ops.csr.nodes
        self.roots = np.array(
            [i for i in claimed.tolist() if algorithms[nodes[i]].is_root],
            dtype=np.int64,
        )
        self.depth[self.roots] = 0
        self.join_src: list = []  # per-round JOIN (src, dst) index arrays
        self.join_dst: list = []

    def on_start(self, ops):
        src, dst = ops.expand(self.roots)
        ops.emit(
            src, dst, tag=_ADV, value=0, bits=payload_bits((_ADV, 0)),
            materialize=_materialize,
        )

    def apply(self, ops, inbox):
        np = ops.np
        joins = inbox.tag == _JOIN
        if joins.any():
            self.join_src.append(inbox.src[joins])
            self.join_dst.append(inbox.dst[joins])
        adv = (inbox.tag == _ADV) & (self.depth[inbox.dst] < 0)
        if not adv.any():
            return None
        src, dst, depth = inbox.src[adv], inbox.dst[adv], inbox.value[adv]
        order = np.lexsort((ops.ids[src], dst))
        sorted_dst = dst[order]
        heads = np.empty(sorted_dst.size, dtype=bool)
        heads[0] = True
        np.not_equal(sorted_dst[1:], sorted_dst[:-1], out=heads[1:])
        first = np.flatnonzero(heads)
        newly = sorted_dst[first]
        self.parent[newly] = src[order][first]
        self.depth[newly] = depth[order][first] + 1
        return newly

    def scatter(self, ops, ready):
        np = ops.np
        src, dst = ops.expand(ready)
        join = dst == self.parent[src]
        # Synchronous flooding: every node adopted this round shares one
        # depth, so the ADV value and size are scalars. One batch carries
        # the JOINs and the ADVs alike.
        depth_val = int(self.depth[ready[0]])
        ops.emit(
            src, dst, tag=np.where(join, _JOIN, _ADV),
            value=np.where(join, 0, depth_val),
            bits=np.where(join, _JOIN_BITS, payload_bits((_ADV, depth_val))),
            materialize=_materialize,
        )

    def fill_results(self, ops, results):
        np = ops.np
        nodes = ops.csr.nodes
        n = ops.n
        # Children lists, vectorized: sort all JOINs by (receiver, child
        # id) and slice each receiver's already-sorted segment.
        child_lo = child_hi = None
        if self.join_src:
            all_src = np.concatenate(self.join_src)
            all_dst = np.concatenate(self.join_dst)
            child_ids = ops.ids[all_src]
            order = np.lexsort((child_ids, all_dst))
            sorted_dst = all_dst[order]
            sorted_children = tuple(child_ids[order].tolist())
            span = np.arange(n, dtype=np.int64)
            child_lo = np.searchsorted(sorted_dst, span, side="left").tolist()
            child_hi = np.searchsorted(sorted_dst, span, side="right").tolist()
        claimed = self.claimed.tolist()
        depths = [d if d >= 0 else None for d in self.depth.tolist()]
        parents = [nodes[p] if p >= 0 else None for p in self.parent.tolist()]
        if child_lo is not None:
            kids = [sorted_children[lo:hi] for lo, hi in zip(child_lo, child_hi)]
        else:
            kids = [()] * n
        if len(claimed) == n:
            results.update(zip(nodes, [
                {"parent": p, "depth": d, "children": k}
                for p, d, k in zip(parents, depths, kids)
            ]))
        else:
            results.update(zip(
                (nodes[i] for i in claimed),
                [{"parent": parents[i], "depth": depths[i],
                  "children": kids[i]} for i in claimed],
            ))


BfsNode.vector_kernel = BfsVectorKernel


def distributed_bfs(
    graph: nx.Graph,
    root: int,
    rng: int | random.Random | None = None,
    scheduler: str = "event",
    latency_model: object = None,
) -> tuple[RootedTree, RoundStats]:
    """Build a BFS tree of ``graph`` from ``root`` in the CONGEST model.

    Returns:
        the tree and the measured execution stats
        (``rounds ≈ eccentricity(root) + 1``).

    Raises:
        GraphStructureError: if the graph is disconnected (some node never
            joins the tree).
    """
    if root not in graph:
        raise GraphStructureError(f"root {root} is not in the graph")
    network = SyncNetwork(
        graph, rng=rng, scheduler=scheduler,
        latency_model=latency_model,
    )
    algorithms = {v: BfsNode(v, v == root) for v in graph.nodes()}
    results, stats = network.run(algorithms)
    parent = {v: results[v]["parent"] for v in graph.nodes()}
    unjoined = [v for v, p in parent.items() if p is None and v != root]
    if unjoined:
        raise GraphStructureError(
            f"graph is disconnected: {len(unjoined)} nodes never joined the BFS tree"
        )
    return RootedTree(root, parent), stats
