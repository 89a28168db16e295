"""Rooted spanning trees.

The shortcut machinery works with a rooted tree ``T`` of depth at most the
graph diameter ``D`` (Definition 2.3 of the paper). A tree edge is always
identified by its *child endpoint* — the paper's ``v_e``, the endpoint
further from the root — which makes sets of tree edges plain sets of node
ids and keeps the bottom-up marking process allocation-free.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Iterator

import networkx as nx

from repro.util.errors import GraphStructureError

__all__ = ["RootedTree", "bfs_tree"]


class RootedTree:
    """A rooted tree given by a parent map.

    The tree is immutable after construction. Nodes are arbitrary hashable
    labels (ints everywhere in this library). Tree edges are referred to by
    their child endpoint: the edge ``e`` with deeper endpoint ``v`` is just
    ``v``; its two endpoints are ``(parent_of(v), v)``.

    Args:
        root: the root node.
        parent: mapping from every tree node to its parent; the root must
            map to ``None``.

    Raises:
        GraphStructureError: if the parent map does not describe a tree
            rooted at ``root`` (cycles, unreachable nodes, missing root).
    """

    __slots__ = (
        "_root", "_parent", "_children", "_depth", "_max_depth", "_order",
        "__weakref__",
    )

    def __init__(self, root: int, parent: dict[int, int | None]):
        if root not in parent or parent[root] is not None:
            raise GraphStructureError("root must be in the parent map and map to None")
        self._root = root
        self._parent = dict(parent)
        children: dict[int, list[int]] = {node: [] for node in self._parent}
        for node, par in self._parent.items():
            if node == root:
                continue
            if par is None:
                raise GraphStructureError(f"non-root node {node} has parent None")
            if par not in self._parent:
                raise GraphStructureError(f"parent {par} of node {node} is not a tree node")
            children[par].append(node)
        self._children = children
        # BFS from the root assigns depths and simultaneously detects nodes
        # that are not reachable (which would indicate a cycle or a second
        # component in the parent map).
        depth: dict[int, int] = {root: 0}
        order: list[int] = [root]
        queue = deque([root])
        while queue:
            node = queue.popleft()
            for child in children[node]:
                depth[child] = depth[node] + 1
                order.append(child)
                queue.append(child)
        if len(depth) != len(self._parent):
            unreachable = set(self._parent) - set(depth)
            raise GraphStructureError(
                f"parent map is not a tree: {len(unreachable)} nodes unreachable from root"
            )
        self._depth = depth
        self._max_depth = max(depth.values())
        self._order = order

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    @property
    def root(self) -> int:
        """The root node."""
        return self._root

    @property
    def max_depth(self) -> int:
        """Depth of the deepest node (0 for a single-node tree)."""
        return self._max_depth

    def __len__(self) -> int:
        return len(self._parent)

    def __contains__(self, node: int) -> bool:
        return node in self._parent

    def nodes(self) -> Iterator[int]:
        """All tree nodes in BFS (root-first) order."""
        return iter(self._order)

    def parent_of(self, node: int) -> int | None:
        """Parent of ``node`` (``None`` for the root)."""
        return self._parent[node]

    def children_of(self, node: int) -> tuple[int, ...]:
        """Children of ``node``."""
        return tuple(self._children[node])

    @property
    def parent_map(self) -> dict[int, int | None]:
        """``node -> parent`` (``None`` at the root), shared, not copied.

        For loops that would otherwise call :meth:`parent_of` per step;
        callers read it and never mutate it.
        """
        return self._parent

    @property
    def children_map(self) -> dict[int, list[int]]:
        """``node -> children`` lists, shared like :attr:`parent_map`."""
        return self._children

    def depth_of(self, node: int) -> int:
        """Distance from the root to ``node`` along the tree."""
        return self._depth[node]

    # ------------------------------------------------------------------
    # Edge views (edges are child endpoints)
    # ------------------------------------------------------------------

    def edge_children(self) -> Iterator[int]:
        """All tree edges, as child endpoints, in BFS order."""
        return (node for node in self._order if node != self._root)

    def edge_children_by_decreasing_depth(self) -> Iterator[int]:
        """Tree edges ordered deepest-first.

        This is the processing order of the overcongestion marking step in
        the proof of Theorem 3.1 ("we process tree edges in order of
        decreasing depths, level by level").
        """
        return (node for node in reversed(self._order) if node != self._root)

    def edge_endpoints(self, child: int) -> tuple[int, int]:
        """The ``(parent, child)`` endpoints of the tree edge ``child``."""
        parent = self._parent[child]
        if parent is None:
            raise GraphStructureError("the root has no parent edge")
        return (parent, child)

    # ------------------------------------------------------------------
    # Ancestor walks
    # ------------------------------------------------------------------

    def path_up(self, node: int, stop_edges: Iterable[int] | None = None) -> list[int]:
        """Nodes on the path from ``node`` up to its component root.

        With ``stop_edges`` (a set of child endpoints of *removed* edges,
        e.g. the overcongested set ``O``), the walk stops *before* crossing a
        removed edge, i.e. it returns the path inside the forest ``T \\ O``
        ending at the component root. Without it, the walk ends at the tree
        root. The returned list starts at ``node``.
        """
        removed = set(stop_edges) if stop_edges is not None else frozenset()
        path = [node]
        current = node
        while current != self._root and current not in removed:
            current = self._parent[current]  # type: ignore[assignment]
            path.append(current)
        return path

    def ancestor_edges(self, node: int, stop_edges: Iterable[int] | None = None) -> list[int]:
        """Tree edges (child endpoints) on the path from ``node`` upward.

        Same stopping semantics as :meth:`path_up`: with ``stop_edges``, the
        edge whose child endpoint is in the set is *not* included and the
        walk stops there.
        """
        path = self.path_up(node, stop_edges)
        return path[:-1] if len(path) > 1 else []

    def component_root(self, node: int, removed_edges: Iterable[int] | None = None) -> int:
        """Root of ``node``'s component in the forest ``T`` minus removed edges."""
        return self.path_up(node, removed_edges)[-1]

    def is_ancestor(self, ancestor: int, node: int) -> bool:
        """True iff ``ancestor`` lies on the path from ``node`` to the root.

        A node counts as its own ancestor.
        """
        current = node
        while True:
            if current == ancestor:
                return True
            parent = self._parent[current]
            if parent is None:
                return False
            current = parent

    def subtree_nodes(self, node: int) -> list[int]:
        """All descendants of ``node``, including ``node`` itself."""
        result = []
        stack = [node]
        while stack:
            current = stack.pop()
            result.append(current)
            stack.extend(self._children[current])
        return result

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------

    def validate_on(self, graph: nx.Graph) -> None:
        """Check that every tree edge exists in ``graph``.

        Raises:
            GraphStructureError: on the first missing edge or node.
        """
        for node in self._parent:
            if node not in graph:
                raise GraphStructureError(f"tree node {node} is not in the graph")
        for child in self.edge_children():
            parent = self._parent[child]
            if not graph.has_edge(parent, child):
                raise GraphStructureError(f"tree edge ({parent}, {child}) is not a graph edge")


def bfs_tree(graph: nx.Graph, root: int | None = None) -> RootedTree:
    """Breadth-first-search spanning tree of a connected graph.

    BFS trees have depth at most the graph diameter, which is exactly the
    depth requirement of Definition 2.4 ("any tree T with depth at most D").

    Args:
        graph: a connected undirected graph.
        root: the root node; defaults to the smallest node label.

    Raises:
        GraphStructureError: if the graph is disconnected or the root is
            not a node of the graph.
    """
    if graph.number_of_nodes() == 0:
        raise GraphStructureError("cannot build a BFS tree of an empty graph")
    if root is None:
        root = min(graph.nodes())
    if root not in graph:
        raise GraphStructureError(f"root {root} is not in the graph")
    parent: dict[int, int | None] = {root: None}
    queue = deque([root])
    while queue:
        node = queue.popleft()
        for neighbor in graph.neighbors(node):
            if neighbor not in parent:
                parent[neighbor] = node
                queue.append(neighbor)
    if len(parent) != graph.number_of_nodes():
        raise GraphStructureError("graph is disconnected; BFS tree does not span it")
    return RootedTree(root, parent)
