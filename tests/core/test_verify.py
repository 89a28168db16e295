"""Tests for the theorem-compliance verifier."""

from hypothesis import given, settings

from repro.core.full import build_full_shortcut
from repro.core.partial import build_partial_shortcut
from repro.core.verify import BoundCheck, verify_full_result, verify_partial_result
from repro.graphs.generators import grid_graph, k_tree
from repro.graphs.partition import grid_rows_partition, voronoi_partition
from repro.graphs.trees import bfs_tree

from tests.conftest import graphs_with_partitions


class TestBoundCheck:
    def test_holds(self):
        assert BoundCheck("x", 3, 5).holds
        assert BoundCheck("x", 5, 5).holds
        assert not BoundCheck("x", 6, 5).holds

    def test_str_mentions_status(self):
        assert "ok" in str(BoundCheck("x", 1, 2))
        assert "VIOLATED" in str(BoundCheck("x", 3, 2))


class TestVerifyPartial:
    def test_grid_rows_compliant(self):
        graph = grid_graph(10, 10)
        tree = bfs_tree(graph)
        partition = grid_rows_partition(graph)
        result = build_partial_shortcut(graph, tree, partition, 3.0)
        report = verify_partial_result(result)
        assert report.all_hold, report.summary()
        assert not report.violations()

    def test_summary_has_verdict(self):
        graph = grid_graph(6, 6)
        tree = bfs_tree(graph)
        partition = grid_rows_partition(graph)
        result = build_partial_shortcut(graph, tree, partition, 3.0)
        assert "ALL BOUNDS HOLD" in verify_partial_result(result).summary()

    def test_case_two_reported_as_violation(self):
        from repro.graphs.generators import lower_bound_graph

        instance = lower_bound_graph(5, 20)
        tree = bfs_tree(instance.graph)
        result = build_partial_shortcut(instance.graph, tree, instance.partition, 0.05)
        report = verify_partial_result(result)
        names = [check.name for check in report.violations()]
        assert "theorem31.case_one_unsatisfied" in names

    @given(graphs_with_partitions(min_nodes=4, max_nodes=30))
    @settings(max_examples=20, deadline=None)
    def test_unconditional_bounds_hold_property(self, graph_and_partition):
        graph, partition = graph_and_partition
        from repro.graphs.properties import degeneracy

        tree = bfs_tree(graph, root=0)
        delta = max(1.0, float(degeneracy(graph)))
        result = build_partial_shortcut(graph, tree, partition, delta)
        report = verify_partial_result(result, exact_dilation=False)
        # Congestion / blocks / dilation checks are unconditional theorems;
        # only the case-I check can fail (when delta < delta(G)).
        for check in report.violations():
            assert check.name == "theorem31.case_one_unsatisfied"


class TestVerifyFull:
    def test_grid_compliant(self):
        graph = grid_graph(10, 10)
        tree = bfs_tree(graph)
        partition = voronoi_partition(graph, 15, rng=1)
        result = build_full_shortcut(graph, tree, partition, 3.0)
        report = verify_full_result(result, delta=3.0)
        assert report.all_hold, report.summary()

    def test_k_tree_compliant(self):
        graph = k_tree(80, 3, rng=2)
        tree = bfs_tree(graph)
        partition = voronoi_partition(graph, 20, rng=3)
        result = build_full_shortcut(graph, tree, partition, 3.0)
        report = verify_full_result(result, delta=3.0, exact_dilation=False)
        assert report.all_hold, report.summary()

    def test_escalated_run_skips_iteration_check(self):
        from repro.graphs.generators import lower_bound_graph

        instance = lower_bound_graph(5, 20)
        tree = bfs_tree(instance.graph)
        result = build_full_shortcut(
            instance.graph, tree, instance.partition, 0.05, escalate_on_stall=True
        )
        report = verify_full_result(result, delta=0.05, exact_dilation=False)
        names = [check.name for check in report.checks]
        assert "observation27.iterations" not in names
        assert report.all_hold, report.summary()
