"""Parts and partitions for the part-wise aggregation problem.

Definition 2.1 of the paper: vertices are divided into disjoint parts, each
inducing a connected subgraph. Parts need *not* cover every node — the
paper's wheel-graph example uses a single part consisting of all nodes
except the hub — so :class:`Partition` tracks covered and free nodes
separately.
"""

from __future__ import annotations

import random
from collections import deque
from collections.abc import Iterable, Iterator, Sequence

import networkx as nx

from repro.graphs.adjacency import induces_connected_subgraph
from repro.util.errors import PartitionError
from repro.util.rng import ensure_rng

__all__ = [
    "Partition",
    "voronoi_partition",
    "forest_cut_partition",
    "singleton_partition",
    "whole_graph_partition",
    "grid_rows_partition",
]


class Partition:
    """An ordered collection of disjoint, connected, nonempty parts.

    Args:
        graph: the host graph.
        parts: iterable of node collections, one per part.
        validate: when True (default), check disjointness, nonemptiness,
            membership, and connectivity of each part. Turn off only for
            parts already validated by a generator.

    Raises:
        PartitionError: if validation fails.
    """

    __slots__ = ("_parts", "_part_of")

    def __init__(self, graph: nx.Graph, parts: Iterable[Iterable[int]], validate: bool = True):
        frozen = tuple(frozenset(part) for part in parts)
        part_of: dict[int, int] = {}
        for index, part in enumerate(frozen):
            if validate and not part:
                raise PartitionError(f"part {index} is empty")
            for node in part:
                if node in part_of:
                    raise PartitionError(
                        f"node {node} appears in parts {part_of[node]} and {index}"
                    )
                part_of[node] = index
        if validate:
            missing = [node for node in part_of if node not in graph]
            if missing:
                raise PartitionError(
                    f"partition references nodes not in the graph: {missing[:5]}"
                )
            for index, part in enumerate(frozen):
                if not induces_connected_subgraph(graph, part):
                    raise PartitionError(f"part {index} does not induce a connected subgraph")
        self._parts = frozen
        self._part_of = part_of

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    @property
    def parts(self) -> tuple[frozenset[int], ...]:
        """The parts, in order."""
        return self._parts

    def __len__(self) -> int:
        return len(self._parts)

    def __iter__(self) -> Iterator[frozenset[int]]:
        return iter(self._parts)

    def __getitem__(self, index: int) -> frozenset[int]:
        return self._parts[index]

    def part_index_of(self, node: int) -> int | None:
        """Index of the part containing ``node``, or ``None`` if uncovered."""
        return self._part_of.get(node)

    @property
    def covered_nodes(self) -> frozenset[int]:
        """All nodes that belong to some part."""
        return frozenset(self._part_of)

    def covers(self, node: int) -> bool:
        """True iff ``node`` belongs to some part."""
        return node in self._part_of

    # ------------------------------------------------------------------
    # Derivation
    # ------------------------------------------------------------------

    def restrict(self, graph: nx.Graph, indices: Sequence[int]) -> "Partition":
        """A new partition containing only the parts at ``indices`` (in order)."""
        return Partition(graph, [self._parts[i] for i in indices], validate=False)

    def leader_of(self, index: int) -> int:
        """Deterministic leader node of part ``index`` (the smallest label)."""
        return min(self._parts[index])


# ----------------------------------------------------------------------
# Generators
# ----------------------------------------------------------------------


def _require_num_parts(num_parts, num_nodes: int) -> None:
    """Reject a ``num_parts`` that is not an int in ``[1, num_nodes]``.

    ``bool`` is refused although it subclasses ``int``: ``True`` is a
    caller's slip, not one part.
    """
    if type(num_parts) is not int or not 1 <= num_parts <= num_nodes:
        raise PartitionError(
            f"num_parts must be an int in [1, {num_nodes}], got {num_parts!r}"
        )


def voronoi_partition(
    graph: nx.Graph,
    num_parts: int,
    rng: int | random.Random | None = None,
) -> Partition:
    """Partition a connected graph into BFS-Voronoi cells around random centers.

    Runs a multi-source BFS from ``num_parts`` distinct random centers; each
    node joins the cell of the center that reaches it first (ties broken by
    center order). Cells are connected by construction and cover all nodes.

    Raises:
        PartitionError: unless ``num_parts`` is an int in ``[1, n]``.
    """
    rng = ensure_rng(rng)
    nodes = list(graph.nodes())
    _require_num_parts(num_parts, len(nodes))
    centers = rng.sample(nodes, num_parts)
    owner: dict[int, int] = {center: idx for idx, center in enumerate(centers)}
    queue = deque(centers)
    while queue:
        node = queue.popleft()
        for neighbor in graph.neighbors(node):
            if neighbor not in owner:
                owner[neighbor] = owner[node]
                queue.append(neighbor)
    cells: list[list[int]] = [[] for _ in range(num_parts)]
    for node, cell in owner.items():
        cells[cell].append(node)
    return Partition(graph, cells, validate=False)


def forest_cut_partition(
    graph: nx.Graph,
    num_parts: int,
    rng: int | random.Random | None = None,
) -> Partition:
    """Partition by cutting ``num_parts - 1`` random edges of a random spanning tree.

    Produces connected parts of irregular sizes — a good stress test for the
    shortcut constructions since part shapes do not follow BFS geometry.

    Raises:
        PartitionError: unless ``num_parts`` is an int in ``[1, n]``.
    """
    rng = ensure_rng(rng)
    nodes = list(graph.nodes())
    _require_num_parts(num_parts, len(nodes))
    for u, v in graph.edges():
        graph.edges[u, v]["_rand_weight"] = rng.random()
    tree = nx.minimum_spanning_tree(graph, weight="_rand_weight")
    for u, v in graph.edges():
        del graph.edges[u, v]["_rand_weight"]
    tree_edges = list(tree.edges())
    cut = rng.sample(tree_edges, num_parts - 1) if num_parts > 1 else []
    tree.remove_edges_from(cut)
    components = [list(component) for component in nx.connected_components(tree)]
    return Partition(graph, components, validate=False)


def singleton_partition(graph: nx.Graph) -> Partition:
    """Every node is its own part (the start state of Boruvka's algorithm)."""
    return Partition(graph, [[node] for node in graph.nodes()], validate=False)


def whole_graph_partition(graph: nx.Graph) -> Partition:
    """A single part containing every node."""
    return Partition(graph, [list(graph.nodes())], validate=False)


def grid_rows_partition(graph: nx.Graph) -> Partition:
    """Rows of a grid graph as parts.

    Requires the graph to have been produced by
    :func:`repro.graphs.generators.planar.grid_graph` (which records its
    dimensions in ``graph.graph``). Row parts are the canonical hard case
    for tree-restricted shortcuts: every row needs to ride the same few
    vertical tree paths.

    Raises:
        PartitionError: if the graph lacks grid metadata.
    """
    width = graph.graph.get("width")
    height = graph.graph.get("height")
    if width is None or height is None:
        raise PartitionError("graph does not carry grid metadata (width/height)")
    rows = [[row * width + col for col in range(width)] for row in range(height)]
    return Partition(graph, rows, validate=False)
