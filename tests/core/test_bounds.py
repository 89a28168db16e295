"""Tests for repro.core.bounds — the paper's formulas and the checks on their inputs."""

import pytest

from repro.core.bounds import (
    baseline_quality_bound,
    check_tree,
    lemma32_quality_bound,
    observation26_dilation_bound,
    theorem12_congestion_bound,
    theorem12_dilation_bound,
    theorem31_block_budget,
    theorem31_congestion_budget,
)
from repro.core.distributed import distributed_partial_shortcut
from repro.core.full import build_full_shortcut
from repro.core.partial import build_partial_shortcut
from repro.graphs.generators import grid_graph
from repro.graphs.partition import grid_rows_partition
from repro.graphs.trees import RootedTree, bfs_tree
from repro.util.errors import ShortcutError

_GRID = grid_graph(4, 4)
_ENTRIES = {
    "partial": lambda delta: build_partial_shortcut(
        _GRID, bfs_tree(_GRID), grid_rows_partition(_GRID), delta
    ),
    "full": lambda delta: build_full_shortcut(
        _GRID, bfs_tree(_GRID), grid_rows_partition(_GRID), delta
    ),
    "distributed": lambda delta: distributed_partial_shortcut(
        _GRID, grid_rows_partition(_GRID), delta, rng=1
    ),
}


class TestDeltaCheckAtEveryEntry:
    """Every construction entry rejects a δ that is not a finite real > 0
    before computing a budget from it."""

    @pytest.mark.parametrize("entry", sorted(_ENTRIES))
    @pytest.mark.parametrize("delta", [0, -1.5, float("nan"), float("inf"), "3", True])
    def test_bad_delta_is_a_shortcut_error(self, entry, delta):
        with pytest.raises(ShortcutError, match="delta must be a finite real number > 0"):
            _ENTRIES[entry](delta)


_TREE_ENTRIES = {
    "partial": lambda graph, tree: build_partial_shortcut(
        graph, tree, grid_rows_partition(graph), 3.0
    ),
    "full": lambda graph, tree: build_full_shortcut(
        graph, tree, grid_rows_partition(graph), 3.0
    ),
}


class TestTreeCheckAtEveryEntry:
    """The centralized constructions reject a tree that does not span their
    graph, and a passed verdict is memoized until the graph mutates."""

    @pytest.mark.parametrize("entry", sorted(_TREE_ENTRIES))
    @pytest.mark.parametrize("size", [3, 5])
    def test_tree_of_another_graph_is_a_shortcut_error(self, entry, size):
        graph = grid_graph(4, 4)
        with pytest.raises(ShortcutError, match="does not span"):
            _TREE_ENTRIES[entry](graph, bfs_tree(grid_graph(size, size)))

    def test_passed_verdict_is_memoized(self, monkeypatch):
        graph = grid_graph(6, 6)
        tree = bfs_tree(graph)
        walks = []
        validate_on = RootedTree.validate_on
        monkeypatch.setattr(
            RootedTree, "validate_on",
            lambda self, g: walks.append(g) or validate_on(self, g),
        )
        for _ in range(3):
            check_tree(tree, graph)
        build_full_shortcut(graph, tree, grid_rows_partition(graph), 3.0)
        assert walks == [graph]
        check_tree(bfs_tree(graph), graph)
        assert len(walks) == 2

    @pytest.mark.parametrize("entry", sorted(_TREE_ENTRIES))
    def test_removed_tree_edge_is_detected_after_the_memo(self, entry):
        graph = grid_graph(4, 4)
        tree = bfs_tree(graph)
        _TREE_ENTRIES[entry](graph, tree)
        child = next(tree.edge_children())
        graph.remove_edge(tree.parent_of(child), child)
        with pytest.raises(ShortcutError, match="not a graph edge"):
            check_tree(tree, graph)
        with pytest.raises(ShortcutError, match="not a graph edge"):
            _TREE_ENTRIES[entry](graph, tree)


class TestBudgets:
    def test_congestion_budget_formula(self):
        assert theorem31_congestion_budget(3.0, 10) == 240

    def test_congestion_budget_floors_depth_at_one(self):
        assert theorem31_congestion_budget(2.0, 0) == 16

    def test_block_budget_formula(self):
        assert theorem31_block_budget(3.0) == 24
        assert theorem31_block_budget(2.5) == 20

    def test_fractional_delta_rounds_up(self):
        assert theorem31_congestion_budget(0.5, 10) == 40


class TestDerivedBounds:
    def test_observation26(self):
        assert observation26_dilation_bound(3, 10) == 63

    def test_theorem12_congestion_grows_with_parts(self):
        small = theorem12_congestion_bound(2.0, 10, 4)
        large = theorem12_congestion_bound(2.0, 10, 1000)
        assert large > small

    def test_theorem12_dilation_independent_of_parts(self):
        assert theorem12_dilation_bound(2.0, 10) == 16 * 21

    def test_lemma32(self):
        assert lemma32_quality_bound(9, 60) == 60.0

    def test_baseline(self):
        assert baseline_quality_bound(100, 10) == 40.0
