"""Tests for Steiner pruning of partial-shortcut subgraphs."""

from hypothesis import given, settings

from repro.core.partial import build_partial_shortcut, steiner_prune
from repro.graphs.generators import grid_graph
from repro.graphs.partition import voronoi_partition
from repro.graphs.trees import RootedTree, bfs_tree

from tests.conftest import graphs_with_partitions


class TestSteinerPrune:
    def test_singleton_part_prunes_to_nothing(self):
        # A single-node part needs no shortcut at all; the raw ancestor
        # chain is pure overhead.
        tree = RootedTree(0, {0: None, 1: 0, 2: 1, 3: 2})
        part = frozenset({3})
        raw = frozenset({3, 2, 1})
        assert steiner_prune(tree, part, raw) == frozenset()

    def test_chain_between_two_part_nodes_kept(self):
        tree = RootedTree(0, {0: None, 1: 0, 2: 1, 3: 2, 4: 3})
        part = frozenset({2, 4})
        # Walks: 4 -> root gives {4,3,2,1}; prune the chain above node 2.
        raw = frozenset({4, 3, 2, 1})
        pruned = steiner_prune(tree, part, raw)
        assert pruned == frozenset({4, 3})

    def test_junction_is_kept(self):
        #      0
        #      1
        #     / \
        #    2   3     part = {2, 3}: junction at 1, chain 1->0 pruned.
        tree = RootedTree(0, {0: None, 1: 0, 2: 1, 3: 1})
        part = frozenset({2, 3})
        raw = frozenset({1, 2, 3})
        pruned = steiner_prune(tree, part, raw)
        assert pruned == frozenset({2, 3})

    def test_empty_input(self):
        tree = RootedTree(0, {0: None, 1: 0})
        assert steiner_prune(tree, frozenset({1}), frozenset()) == frozenset()

    def test_part_node_stops_peeling(self):
        # Part node in the middle of a chain anchors the peel.
        tree = RootedTree(0, {0: None, 1: 0, 2: 1, 3: 2})
        part = frozenset({1, 3})
        raw = frozenset({3, 2, 1})
        pruned = steiner_prune(tree, part, raw)
        # Edge 1 (chain 0-1 above part node 1) is pruned; 3,2 connect 3 to 1.
        assert pruned == frozenset({3, 2})


class TestPruningPreservesGuarantees:
    def test_pruned_subset_of_raw(self, small_grid):
        tree = bfs_tree(small_grid)
        partition = voronoi_partition(small_grid, 6, rng=1)
        raw = build_partial_shortcut(small_grid, tree, partition, 3.0, prune=False)
        pruned = build_partial_shortcut(small_grid, tree, partition, 3.0, prune=True)
        assert raw.satisfied == pruned.satisfied
        for index in pruned.satisfied:
            assert pruned.subgraphs[index] <= raw.subgraphs[index]

    def test_pruned_congestion_not_worse(self):
        graph = grid_graph(10, 10)
        tree = bfs_tree(graph)
        partition = voronoi_partition(graph, 25, rng=2)
        raw = build_partial_shortcut(graph, tree, partition, 3.0, prune=False)
        pruned = build_partial_shortcut(graph, tree, partition, 3.0, prune=True)
        assert pruned.shortcut().congestion() <= raw.shortcut().congestion()

    @given(graphs_with_partitions(min_nodes=4, max_nodes=30))
    @settings(max_examples=25, deadline=None)
    def test_pruned_parts_stay_connected_property(self, graph_and_partition):
        # The crucial safety property: pruning must never disconnect
        # G[P_i] + H_i (dilation must stay finite).
        graph, partition = graph_and_partition
        tree = bfs_tree(graph, root=0)
        result = build_partial_shortcut(graph, tree, partition, 4.0, prune=True)
        if not result.satisfied:
            return
        shortcut = result.shortcut()
        assert shortcut.dilation(exact=False) < float("inf")

    @given(graphs_with_partitions(min_nodes=4, max_nodes=30))
    @settings(max_examples=25, deadline=None)
    def test_block_count_unchanged_property(self, graph_and_partition):
        graph, partition = graph_and_partition
        tree = bfs_tree(graph, root=0)
        raw = build_partial_shortcut(graph, tree, partition, 4.0, prune=False)
        pruned = build_partial_shortcut(graph, tree, partition, 4.0, prune=True)
        if not raw.satisfied:
            return
        raw_shortcut = raw.shortcut()
        pruned_shortcut = pruned.shortcut()
        for position in range(len(raw.satisfied)):
            assert (
                pruned_shortcut.part_block_number(position)
                == raw_shortcut.part_block_number(position)
            )
