"""Graph normalization and small structural helpers.

The rest of the library assumes simple undirected graphs with integer node
labels ``0..n-1``. :func:`normalize_graph` converts arbitrary networkx graphs
into that form; the remaining helpers provide the handful of checks used on
nearly every code path.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import networkx as nx

from repro.util.errors import GraphStructureError

__all__ = [
    "normalize_graph",
    "canonical_edge",
    "require_connected",
    "require_nodes_exist",
    "induces_connected_subgraph",
    "CSRAdjacency",
    "graph_csr",
]


def normalize_graph(graph: nx.Graph) -> nx.Graph:
    """Return a copy of ``graph`` with nodes relabeled to ``0..n-1``.

    Node order follows the sorted order of the original labels when they are
    sortable, and insertion order otherwise. Graph-level attributes are
    preserved; self-loops are rejected because the CONGEST model and the
    shortcut definitions assume simple graphs.

    Raises:
        GraphStructureError: if the graph is directed or has self-loops.
    """
    if graph.is_directed():
        raise GraphStructureError("expected an undirected graph")
    if any(u == v for u, v in graph.edges()):
        raise GraphStructureError("self-loops are not supported")
    try:
        ordered = sorted(graph.nodes())
    except TypeError:
        ordered = list(graph.nodes())
    mapping = {node: index for index, node in enumerate(ordered)}
    relabeled = nx.relabel_nodes(graph, mapping, copy=True)
    relabeled = nx.Graph(relabeled)
    relabeled.graph.update(graph.graph)
    return relabeled


def canonical_edge(u: int, v: int) -> tuple[int, int]:
    """Canonical (sorted) representation of the undirected edge ``{u, v}``."""
    return (u, v) if u <= v else (v, u)


def require_connected(graph: nx.Graph, what: str = "graph") -> None:
    """Raise :class:`GraphStructureError` unless ``graph`` is connected."""
    if graph.number_of_nodes() == 0:
        raise GraphStructureError(f"{what} is empty")
    if not nx.is_connected(graph):
        raise GraphStructureError(f"{what} must be connected")


def require_nodes_exist(graph: nx.Graph, nodes: Iterable[int], what: str = "node set") -> None:
    """Raise :class:`GraphStructureError` if any node is missing from the graph."""
    missing = [node for node in nodes if node not in graph]
    if missing:
        raise GraphStructureError(f"{what} references nodes not in the graph: {missing[:5]}")


def induces_connected_subgraph(graph: nx.Graph, nodes: Iterable[int]) -> bool:
    """True iff ``nodes`` is nonempty and ``graph[nodes]`` is connected.

    Runs a BFS restricted to ``nodes`` instead of materializing the induced
    subgraph, which matters when this is called once per part on large
    partitions.
    """
    node_set = set(nodes)
    if not node_set:
        return False
    start = next(iter(node_set))
    seen = {start}
    frontier = [start]
    while frontier:
        next_frontier = []
        for u in frontier:
            for w in graph.neighbors(u):
                if w in node_set and w not in seen:
                    seen.add(w)
                    next_frontier.append(w)
        frontier = next_frontier
    return len(seen) == len(node_set)


@dataclass(frozen=True)
class CSRAdjacency:
    """A graph's adjacency in compressed-sparse-row form, index-space.

    The flat layout the vectorized scheduler backend
    (:mod:`repro.congest.vectorized`) executes rounds over. Node *indices*
    are positions in ``nodes`` (the graph's node order — the same order
    every scheduler backend activates in); each directed edge ``u -> v``
    owns one *slot* in ``indices``.

    Attributes:
        nodes: the graph's nodes in graph order (index -> node id).
        index: node id -> index (the inverse of ``nodes``).
        indptr: int64 array of length ``n + 1``; node ``i``'s neighbor
            slots are ``indptr[i]:indptr[i + 1]``.
        indices: int64 array of length ``2m``; neighbor *indices*, sorted
            ascending within each row — so a row gather reproduces the
            sender-index inbox order the interpreted backends stage.
        ids: int64 array of the node ids themselves, or ``None`` when any
            label is not a plain int (kernels that compare ids, e.g. the
            BFS min-advertiser rule, refuse such graphs and the run falls
            back to the interpreted path).
        flat_keys: int64 array of length ``2m``, ``src * n + dst`` per
            slot, strictly increasing — ``searchsorted`` over it maps an
            ``(src, dst)`` pair to its edge slot (and validates adjacency)
            without per-message dict lookups.
    """

    nodes: tuple
    index: dict
    indptr: object
    indices: object
    ids: object
    flat_keys: object

    @property
    def n(self) -> int:
        return len(self.nodes)

    def slot_pairs(self) -> list:
        """``(src_id, dst_id)`` per edge slot, built lazily and cached.

        The key tuples of ``RoundStats.edge_messages`` — shared across
        runs on the same graph so repeated executions do not rebuild
        ``2m`` tuples each.
        """
        pairs = self.__dict__.get("_slot_pairs")
        if pairs is None:
            import numpy

            nodes = self.nodes
            src_of_slot = numpy.repeat(
                numpy.arange(self.n, dtype=numpy.int64),
                numpy.diff(self.indptr),
            )
            pairs = list(zip(
                [nodes[i] for i in src_of_slot.tolist()],
                [nodes[i] for i in self.indices.tolist()],
            ))
            object.__setattr__(self, "_slot_pairs", pairs)
        return pairs


# The key of the CSR in ``graph.__networkx_cache__``. networkx clears that
# cache on every structural mutation (add/remove of a node or an edge), so
# a cached CSR is never stale and a hit costs one dict lookup.
_CSR_KEY = "repro.graph_csr"


def graph_csr(graph: nx.Graph) -> CSRAdjacency:
    """The memoized :class:`CSRAdjacency` of ``graph``.

    The CSR lives in ``graph.__networkx_cache__``, which networkx clears
    whenever the graph's structure changes. Frozen graphs, graph views
    among them, are never cached: a view's cache is not cleared when the
    graph it views mutates, so their CSR is rebuilt on every call.

    Requires numpy (the vectorized backend's optional dependency).

    Raises:
        ImportError: when numpy is not installed.
    """
    import numpy

    cache = None if nx.is_frozen(graph) else getattr(graph, "__networkx_cache__", None)
    if cache is not None:
        csr = cache.get(_CSR_KEY)
        if csr is not None:
            return csr
    nodes = tuple(graph.nodes())
    index = {v: i for i, v in enumerate(nodes)}
    n = len(nodes)
    indptr = numpy.zeros(n + 1, dtype=numpy.int64)
    rows = []
    for i, v in enumerate(nodes):
        row = sorted(index[w] for w in graph.neighbors(v))
        rows.extend(row)
        indptr[i + 1] = indptr[i] + len(row)
    indices = numpy.array(rows, dtype=numpy.int64) if rows else numpy.zeros(
        0, dtype=numpy.int64
    )
    if all(type(v) is int and abs(v) < 2**31 for v in nodes):
        ids = numpy.array(nodes, dtype=numpy.int64)
    else:
        ids = None
    src_of_slot = numpy.repeat(
        numpy.arange(n, dtype=numpy.int64), numpy.diff(indptr)
    )
    flat_keys = src_of_slot * n + indices
    csr = CSRAdjacency(
        nodes=nodes, index=index, indptr=indptr, indices=indices, ids=ids,
        flat_keys=flat_keys,
    )
    if cache is not None:
        cache[_CSR_KEY] = csr
    return csr
