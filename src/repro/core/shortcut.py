"""Shortcut objects and their quality measures (Definitions 2.2 and 2.3).

A *shortcut* for a part collection ``P_1 .. P_k`` is a collection of
subgraphs ``H_1 .. H_k``; its

* **congestion** is the maximum, over edges ``e``, of the number of ``H_i``
  containing ``e``;
* **dilation** is the maximum, over parts, of the diameter of
  ``G[P_i] + H_i``;
* **quality** is congestion + dilation.

*Tree-restricted* shortcuts take all their edges from one rooted tree; the
connected components of ``(P_i ∪ V(H_i), H_i)`` are the part's *blocks*,
and the maximum block count bounds the dilation via Observation 2.6:
``dilation <= b(2D + 1)``.
"""

from __future__ import annotations

from collections import Counter, deque
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

import networkx as nx

from repro.graphs.adjacency import canonical_edge
from repro.graphs.partition import Partition
from repro.graphs.trees import RootedTree
from repro.util.errors import ShortcutError

__all__ = [
    "Shortcut",
    "ShortcutQuality",
    "TreeRestrictedShortcut",
    "UNREACHABLE",
    "augmented_adjacency",
    "augmented_edges",
]

Edge = tuple[int, int]

# Sentinel dilation for a part whose augmented subgraph is disconnected.
# Definition 2.2 requires G[P_i] + H_i to have bounded diameter, so a
# disconnected augmented subgraph means "infinite dilation".
UNREACHABLE = float("inf")


@dataclass(frozen=True)
class ShortcutQuality:
    """Measured quality of a shortcut.

    Attributes:
        congestion: max number of parts sharing one edge (0 for empty shortcuts).
        dilation: max diameter of ``G[P_i] + H_i`` over parts.
        block_number: max blocks of any part, or ``None`` for shortcuts that
            are not tree-restricted.
    """

    congestion: int
    dilation: float
    block_number: int | None = None

    @property
    def quality(self) -> float:
        """Congestion + dilation (the paper's ``Q = c + d``)."""
        return self.congestion + self.dilation


class Shortcut:
    """A shortcut assignment ``H_i`` per part.

    Args:
        graph: the host graph ``G``.
        partition: the parts ``P_1 .. P_k``.
        subgraphs: one edge collection per part (canonical or uncanonical
            endpoint order; normalized internally). Length must equal the
            number of parts.
        validate: verify that every shortcut edge is a graph edge.

    Raises:
        ShortcutError: on length mismatch or (with ``validate``) foreign edges.
    """

    def __init__(
        self,
        graph: nx.Graph,
        partition: Partition,
        subgraphs: Sequence[Iterable[Edge]],
        validate: bool = True,
    ):
        subgraph_list = [frozenset(canonical_edge(u, v) for u, v in edges) for edges in subgraphs]
        if len(subgraph_list) != len(partition):
            raise ShortcutError(
                f"got {len(subgraph_list)} subgraphs for {len(partition)} parts"
            )
        if validate:
            for index, edges in enumerate(subgraph_list):
                for u, v in edges:
                    if not graph.has_edge(u, v):
                        raise ShortcutError(
                            f"H_{index} contains ({u}, {v}) which is not a graph edge"
                        )
        self.graph = graph
        self.partition = partition
        self.subgraphs: tuple[frozenset[Edge], ...] = tuple(subgraph_list)

    # ------------------------------------------------------------------
    # Congestion
    # ------------------------------------------------------------------

    def edge_congestion(self) -> Counter:
        """How many parts use each edge."""
        counts: Counter = Counter()
        for edges in self.subgraphs:
            counts.update(edges)
        return counts

    def congestion(self) -> int:
        """Maximum edge congestion (0 when no part uses any shortcut edge)."""
        counts = self.edge_congestion()
        return max(counts.values()) if counts else 0

    # ------------------------------------------------------------------
    # Dilation
    # ------------------------------------------------------------------

    def augmented_subgraph(self, index: int) -> nx.Graph:
        """The graph ``G[P_i] + H_i`` for part ``index``.

        Its nodes and every node's neighbours come in the order
        :func:`augmented_edges` defines, which the packet scheduler's
        routing trees follow.
        """
        part = self.partition[index]
        augmented = nx.Graph()
        augmented.add_nodes_from(part)
        augmented.add_edges_from(augmented_edges(self.graph, part, self.subgraphs[index]))
        return augmented

    def part_dilation(self, index: int, exact: bool = True) -> float:
        """Diameter of ``G[P_i] + H_i`` (``UNREACHABLE`` if disconnected).

        With ``exact=False`` uses the double-sweep lower bound, which is
        cheap and typically tight on the tree-plus-path subgraphs produced
        by the constructions here.
        """
        augmented = self.augmented_subgraph(index)
        sources = list(augmented.nodes()) if exact else [next(iter(augmented.nodes()))]
        best = 0.0
        n = augmented.number_of_nodes()
        for source in sources:
            dist = _bfs(augmented, source)
            if len(dist) != n:
                return UNREACHABLE
            farthest = max(dist.values())
            if not exact:
                # Double sweep: second BFS from the farthest node found.
                far_node = max(dist, key=dist.__getitem__)
                second = _bfs(augmented, far_node)
                if len(second) != n:
                    return UNREACHABLE
                return float(max(second.values()))
            best = max(best, float(farthest))
        return best

    def dilation(self, exact: bool = True) -> float:
        """Maximum part dilation."""
        if not len(self.partition):
            raise ShortcutError("dilation of an empty partition is undefined")
        return max(self.part_dilation(i, exact=exact) for i in range(len(self.partition)))

    # ------------------------------------------------------------------
    # Summary
    # ------------------------------------------------------------------

    def quality(self, exact: bool = True) -> ShortcutQuality:
        """Measured congestion, dilation, and (if applicable) block number."""
        return ShortcutQuality(
            congestion=self.congestion(),
            dilation=self.dilation(exact=exact),
            block_number=self._block_number(),
        )

    def _block_number(self) -> int | None:
        return None


class TreeRestrictedShortcut(Shortcut):
    """A shortcut whose edges all come from one rooted tree (Definition 2.3).

    Args:
        tree: the rooted tree ``T``.
        tree_edge_children: per part, the tree edges of ``H_i`` given as
            child endpoints (the library's canonical tree-edge encoding).
    """

    def __init__(
        self,
        graph: nx.Graph,
        partition: Partition,
        tree: RootedTree,
        tree_edge_children: Sequence[Iterable[int]],
        validate: bool = True,
    ):
        children_list = [frozenset(children) for children in tree_edge_children]
        if validate:
            for index, children in enumerate(children_list):
                for child in children:
                    if child not in tree or tree.parent_of(child) is None:
                        raise ShortcutError(
                            f"H_{index} references {child}, not a tree edge child"
                        )
        edge_sets = [
            [tree.edge_endpoints(child) for child in children] for children in children_list
        ]
        super().__init__(graph, partition, edge_sets, validate=validate)
        self.tree = tree
        self.tree_edge_children: tuple[frozenset[int], ...] = tuple(children_list)

    def part_block_number(self, index: int) -> int:
        """Number of blocks of part ``index``.

        Blocks are the connected components of ``(P_i ∪ V(H_i), H_i)``
        (Definition 2.3) — computed by a union-find over the tree edges of
        ``H_i`` plus the isolated part nodes.
        """
        part = self.partition[index]
        children = self.tree_edge_children[index]
        parent: dict[int, int] = {}

        def find(x: int) -> int:
            root = x
            while parent[root] != root:
                root = parent[root]
            while parent[x] != root:
                parent[x], x = root, parent[x]
            return root

        def add(x: int) -> None:
            if x not in parent:
                parent[x] = x

        for node in part:
            add(node)
        for child in children:
            up, down = self.tree.edge_endpoints(child)
            add(up)
            add(down)
            ru, rv = find(up), find(down)
            if ru != rv:
                parent[ru] = rv
        return len({find(x) for x in parent})

    def block_number(self) -> int:
        """Maximum block count over parts."""
        return max(self.part_block_number(i) for i in range(len(self.partition)))

    def _block_number(self) -> int | None:
        return self.block_number()

    def dilation_upper_bound(self) -> int:
        """Observation 2.6: ``dilation <= b(2D + 1)`` without any BFS."""
        return self.block_number() * (2 * self.tree.max_depth + 1)


def augmented_edges(
    graph: nx.Graph, part: frozenset[int], edges: Iterable[Edge]
) -> Iterator[Edge]:
    """The edges of ``G[P_i] + H_i`` in their defining order.

    For each node of ``part``, in the part's iteration order, its graph
    edges to other part nodes (so an in-part edge comes once from each
    end); then the ``H_i`` edges in ``edges`` order. Adding the part's
    nodes and then these edges to an ``nx.Graph`` fixes its node order and
    every node's neighbour order; :func:`augmented_adjacency` replays the
    same sequence into plain dicts.
    """
    for u in part:
        for v in graph.neighbors(u):
            if v in part:
                yield u, v
    yield from edges


def augmented_adjacency(
    graph: nx.Graph, part: frozenset[int], edges: Iterable[Edge]
) -> dict[int, dict[int, None]]:
    """``G[P_i] + H_i`` as ``node -> {neighbour: None}``, insertion-ordered.

    Nodes and neighbours come in exactly the order
    :meth:`Shortcut.augmented_subgraph` gives: :func:`augmented_edges`
    replayed the way ``nx.Graph.add_edge`` inserts (a new endpoint ``u``
    before a new ``v``; a repeated edge moves nothing).
    """
    adjacency: dict[int, dict[int, None]] = {u: {} for u in part}
    for u, v in augmented_edges(graph, part, edges):
        around_u = adjacency.get(u)
        if around_u is None:
            around_u = adjacency[u] = {}
        around_v = adjacency.get(v)
        if around_v is None:
            around_v = adjacency[v] = {}
        around_u[v] = None
        around_v[u] = None
    return adjacency


def _bfs(graph: nx.Graph, source: int) -> dict[int, int]:
    dist = {source: 0}
    queue = deque([source])
    while queue:
        node = queue.popleft()
        for neighbor in graph.neighbors(node):
            if neighbor not in dist:
                dist[neighbor] = dist[node] + 1
                queue.append(neighbor)
    return dist
