"""Distributed primitives: BFS trees, broadcast, convergecast.

Each primitive is a runner function that builds per-node
:class:`~repro.congest.node.NodeAlgorithm` instances, executes them on a
:class:`~repro.congest.network.SyncNetwork`, and returns its result
together with measured :class:`~repro.congest.stats.RoundStats`.
"""

from repro.congest.primitives.bfs import distributed_bfs
from repro.congest.primitives.broadcast import (
    pipelined_broadcast,
    tree_aggregate,
    tree_broadcast,
)

__all__ = [
    "distributed_bfs",
    "tree_broadcast",
    "pipelined_broadcast",
    "tree_aggregate",
]
