"""Cross-module integration tests: full pipelines, end to end.

Each test exercises a realistic chain of subsystems — generators → trees →
construction → scheduling → application — the way a downstream user would.
"""

import networkx as nx
import pytest

from repro.apps.connectivity import subgraph_components
from repro.apps.mst import assign_random_weights, distributed_mst
from repro.apps.partwise import solve_partwise_aggregation
from repro.core.certifying import certify_or_shortcut
from repro.core.distributed import distributed_partial_shortcut
from repro.core.full import build_full_shortcut
from repro.core.verify import verify_full_result
from repro.graphs.adjacency import canonical_edge
from repro.graphs.generators import (
    expanded_clique,
    grid_graph,
    lower_bound_graph,
)
from repro.graphs.generators.geometric import barbell_graph, random_geometric_graph
from repro.graphs.partition import voronoi_partition
from repro.graphs.trees import bfs_tree
from repro.sched.partwise import partwise_aggregate


class TestDistributedPipelineWithElection:
    def test_constructed_shortcut_actually_aggregates(self):
        graph = grid_graph(10, 10)
        partition = voronoi_partition(graph, 16, rng=4)
        result = distributed_partial_shortcut(graph, partition, delta=3.0, rng=5)
        shortcut = result.shortcut()
        sub = shortcut.partition
        aggregation = partwise_aggregate(
            graph, sub, shortcut, {v: v for v in graph.nodes()}, min, rng=6
        )
        assert not aggregation.incomplete
        for position in range(len(sub)):
            assert aggregation.values[position] == min(sub[position])


class TestCertifyThenUse:
    def test_certified_shortcut_serves_aggregation(self):
        instance = lower_bound_graph(5, 20)
        graph, partition = instance.graph, instance.partition
        tree = bfs_tree(graph)
        outcome = certify_or_shortcut(
            graph, tree, partition, initial_delta=0.1, rng=7
        )
        assert outcome.witness is not None
        shortcut = outcome.result.shortcut()
        sub = shortcut.partition
        aggregation = partwise_aggregate(
            graph, sub, shortcut, {v: 1 for v in graph.nodes()},
            lambda a, b: a + b, rng=8,
        )
        assert not aggregation.incomplete
        row_length = (instance.delta - 1) * instance.depth + 1
        assert all(value == row_length for value in aggregation.values.values())


class TestMstOnHardTopologies:
    def test_mst_on_lower_bound_graph(self):
        instance = lower_bound_graph(5, 20)
        graph = instance.graph
        weights = assign_random_weights(graph, rng=9)
        result = distributed_mst(graph, weights, delta=5.0, rng=10)
        for u, v in graph.edges():
            graph.edges[u, v]["weight"] = weights[canonical_edge(u, v)]
        reference = nx.minimum_spanning_tree(graph, weight="weight")
        assert result.weight == sum(
            data["weight"] for _, _, data in reference.edges(data=True)
        )

    def test_mst_on_barbell(self):
        graph = barbell_graph(6, 12)
        weights = assign_random_weights(graph, rng=11)
        result = distributed_mst(graph, weights, rng=12)
        assert len(result.edges) == graph.number_of_nodes() - 1


class TestConnectivityOnGeometric:
    def test_components_of_thinned_geometric_graph(self):
        pytest.importorskip("numpy", reason="sampling needs numpy/scipy")
        graph = random_geometric_graph(70, 0.25, rng=13)
        import random

        rng = random.Random(14)
        edges = {
            canonical_edge(u, v) for u, v in graph.edges() if rng.random() < 0.4
        }
        result = subgraph_components(graph, edges, rng=15)
        subgraph = nx.Graph()
        subgraph.add_nodes_from(graph.nodes())
        subgraph.add_edges_from(edges)
        assert result.num_components == nx.number_connected_components(subgraph)


class TestEndToEndApi:
    def test_solve_partwise_with_simulated_construction_on_clique_family(self):
        graph = expanded_clique(6, 10)
        partition = voronoi_partition(graph, 12, rng=16)
        solution = solve_partwise_aggregation(
            graph, partition, {v: 1 for v in graph.nodes()},
            lambda a, b: a + b, provider="theorem31-simulated", rng=17,
        )
        assert solution.construction_stats.rounds > 0
        for index, part in enumerate(partition):
            assert solution.values[index] == len(part)

    def test_observation27_multiple_iterations_under_tight_delta(self):
        # Force multiple partial rounds by running with a delta well below
        # the analytic bound but above the stall point.
        instance = lower_bound_graph(6, 26)
        tree = bfs_tree(instance.graph)
        result = build_full_shortcut(
            instance.graph, tree, instance.partition,
            delta=0.4, escalate_on_stall=True,
        )
        report = verify_full_result(result, delta=0.4, exact_dilation=False)
        assert report.all_hold, report.summary()
        assert result.shortcut.dilation(exact=False) < float("inf")
