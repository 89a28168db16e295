"""Property tests for conflict_from_marking and steiner_prune consistency."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.partial import (
    ancestor_subgraphs,
    conflict_from_marking,
    mark_overcongested_edges,
    steiner_prune,
)
from repro.graphs.trees import bfs_tree

from tests.conftest import graphs_with_partitions


class TestConflictFromMarking:
    @given(graphs_with_partitions(min_nodes=4, max_nodes=30), st.integers(2, 8))
    @settings(max_examples=25, deadline=None)
    def test_roundtrip_with_exact_marking_property(self, graph_and_partition, budget):
        """Re-interpreting the exact marking reproduces the conflict graph."""
        graph, partition = graph_and_partition
        tree = bfs_tree(graph, root=0)
        marked, conflict = mark_overcongested_edges(tree, partition, budget)
        reinterpreted = conflict_from_marking(tree, partition, marked)
        assert reinterpreted.part_degrees == conflict.part_degrees
        assert set(reinterpreted.incidences) == set(conflict.incidences)
        for child in conflict.incidences:
            assert set(reinterpreted.incidences[child]) == set(
                conflict.incidences[child]
            )

    @given(
        graphs_with_partitions(min_nodes=4, max_nodes=25),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_arbitrary_marking_degrees_bounded_property(
        self, graph_and_partition, seed
    ):
        """Degrees never exceed the number of marked edges, reps are part nodes."""
        graph, partition = graph_and_partition
        tree = bfs_tree(graph, root=0)
        rng = random.Random(seed)
        candidates = [v for v in tree.nodes() if tree.parent_of(v) is not None]
        marked = frozenset(v for v in candidates if rng.random() < 0.3)
        conflict = conflict_from_marking(tree, partition, marked)
        for degree in conflict.part_degrees.values():
            assert 0 <= degree <= len(marked)
        for child, parts in conflict.incidences.items():
            assert child in marked
            for part_index, representative in parts.items():
                assert representative in partition[part_index]


class TestSteinerPruneProperties:
    @given(graphs_with_partitions(min_nodes=3, max_nodes=25))
    @settings(max_examples=25, deadline=None)
    def test_idempotent_property(self, graph_and_partition):
        graph, partition = graph_and_partition
        tree = bfs_tree(graph, root=0)
        for part in partition:
            raw = frozenset(
                child
                for node in part
                for child in tree.ancestor_edges(node)
            )
            once = steiner_prune(tree, part, raw)
            twice = steiner_prune(tree, part, once)
            assert once == twice

    @given(graphs_with_partitions(min_nodes=3, max_nodes=25))
    @settings(max_examples=25, deadline=None)
    def test_subset_property(self, graph_and_partition):
        graph, partition = graph_and_partition
        tree = bfs_tree(graph, root=0)
        for part in partition:
            raw = frozenset(
                child
                for node in part
                for child in tree.ancestor_edges(node)
            )
            assert steiner_prune(tree, part, raw) <= raw


def _reference_ancestor_subgraphs(tree, partition, overcongested, indices=None):
    """Plain copy of the ancestor walk through the tree's accessor methods."""
    wanted = indices if indices is not None else tuple(range(len(partition)))
    result = {}
    for index in wanted:
        edges = set()
        visited = set()
        for node in partition[index]:
            current = node
            while current not in visited:
                visited.add(current)
                if current in overcongested:
                    break
                parent = tree.parent_of(current)
                if parent is None:
                    break
                edges.add(current)
                current = parent
        result[index] = frozenset(edges)
    return result


def _reference_steiner_prune(tree, part, edges):
    """Plain copy of the peeling loop: a LIFO worklist of local roots."""
    if not edges:
        return edges
    remaining = set(edges)
    h_children = {}
    for child in remaining:
        parent = tree.parent_of(child)
        h_children[parent] = h_children.get(parent, 0) + 1
    peel = [
        node
        for node in h_children
        if node not in remaining and h_children[node] == 1 and node not in part
    ]
    while peel:
        top = peel.pop()
        if h_children.get(top, 0) != 1 or top in part:
            continue
        child = next((c for c in tree.children_of(top) if c in remaining), None)
        if child is None:
            continue
        remaining.discard(child)
        h_children[top] -= 1
        if child in h_children and child not in part and h_children[child] == 1:
            peel.append(child)
    return frozenset(remaining)


class TestPruningOracle:
    """The map-walking rewrite matches the plain two-step reference.

    Both equality and iteration order are compared: the order of each
    ``H_i`` feeds the neighbour order of ``G[P_i] + H_i``, and so the
    packet scheduler's routing trees.
    """

    @given(
        graphs_with_partitions(min_nodes=2, max_nodes=40),
        st.integers(min_value=0, max_value=2**31 - 1),
        st.sampled_from([0.0, 0.1, 0.3, 0.7]),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_property(self, graph_and_partition, seed, density):
        graph, partition = graph_and_partition
        rng = random.Random(seed)
        tree = bfs_tree(graph, root=rng.choice(sorted(graph.nodes())))
        candidates = [v for v in tree.nodes() if tree.parent_of(v) is not None]
        marked = frozenset(v for v in candidates if rng.random() < density)
        indices = tuple(sorted(rng.sample(range(len(partition)), rng.randint(0, len(partition)))))
        for wanted in (None, indices):
            raw = ancestor_subgraphs(tree, partition, marked, wanted)
            expected = _reference_ancestor_subgraphs(tree, partition, marked, wanted)
            assert list(raw) == list(expected)
            for index, edges in raw.items():
                assert edges == expected[index]
                assert list(edges) == list(expected[index])
                pruned = steiner_prune(tree, partition[index], edges)
                reference = _reference_steiner_prune(tree, partition[index], edges)
                assert pruned == reference
                assert list(pruned) == list(reference)

    @given(
        graphs_with_partitions(min_nodes=2, max_nodes=40),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_arbitrary_edge_sets_match_reference_property(self, graph_and_partition, seed):
        """Pruning sets that are not ancestor-closed matches the reference too."""
        graph, partition = graph_and_partition
        rng = random.Random(seed)
        tree = bfs_tree(graph, root=0)
        candidates = [v for v in tree.nodes() if tree.parent_of(v) is not None]
        for part in partition:
            edges = frozenset(rng.sample(candidates, rng.randint(0, len(candidates))))
            pruned = steiner_prune(tree, part, edges)
            reference = _reference_steiner_prune(tree, part, edges)
            assert pruned == reference
            assert list(pruned) == list(reference)
