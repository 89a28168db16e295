"""Tests for the packet-level part-wise aggregation engine."""

import math
import random
from collections import deque

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import build_full_shortcut
from repro.core.providers import ShortcutRequest, build_shortcut
from repro.core.shortcut import Shortcut
from repro.graphs.generators import grid_graph, k_tree, series_parallel_graph, wheel_graph
from repro.graphs.partition import Partition, grid_rows_partition, voronoi_partition
from repro.graphs.trees import bfs_tree
from repro.sched import partwise_aggregate
from repro.sched.partwise import plan_routing_trees
from repro.util.errors import ShortcutError

from tests.conftest import graphs_with_partitions


class TestPlanning:
    def test_routing_tree_spans_communication_graph(self, small_grid):
        partition = Partition(small_grid, [[0, 1, 2]])
        shortcut = Shortcut(small_grid, partition, [[(2, 3)]])
        plans = plan_routing_trees(small_grid, partition, shortcut)
        assert set(plans[0].parent) == {0, 1, 2, 3}
        assert plans[0].root == 0

    def test_disconnected_raises(self, small_grid):
        partition = Partition(small_grid, [[0, 1]])
        shortcut = Shortcut(small_grid, partition, [[(34, 35)]])
        with pytest.raises(ShortcutError):
            plan_routing_trees(small_grid, partition, shortcut)


_seeds = st.integers(0, 2**16)

# Small members of the registered generator families (planar grids and
# wheels, k-trees, series-parallel graphs) with a Voronoi partition.
_FAMILIES = st.one_of(
    st.builds(grid_graph, st.integers(2, 6), st.integers(2, 6)),
    st.builds(wheel_graph, st.integers(4, 30)),
    st.integers(1, 3).flatmap(
        lambda k: st.builds(k_tree, st.integers(k + 1, 30), st.just(k), rng=_seeds)
    ),
    st.builds(series_parallel_graph, st.integers(2, 30), rng=_seeds),
)


@st.composite
def _instances(draw):
    """A generated graph, a Voronoi partition and a shortcut for it.

    The shortcut comes from ``theorem31-centralized`` or is hand-built:
    per part, a random subset of the edges leaving it (like the golden
    wheel's spokes), some extended one hop further out, in random order.
    """
    graph = draw(_FAMILIES)
    rng = random.Random(draw(_seeds))
    partition = voronoi_partition(graph, rng.randint(1, graph.number_of_nodes()), rng=rng)
    if draw(st.booleans()):
        request = ShortcutRequest(graph, partition, provider="theorem31-centralized", rng=rng)
        return graph, partition, build_shortcut(request).shortcut
    subgraphs = []
    for part in partition:
        leaving = [(u, v) for u in sorted(part) for v in graph.neighbors(u) if v not in part]
        edges = rng.sample(leaving, rng.randint(0, len(leaving)))
        for _, v in list(edges):
            if rng.random() < 0.5:
                edges.append((v, rng.choice(sorted(graph.neighbors(v)))))
        rng.shuffle(edges)
        subgraphs.append(edges)
    return graph, partition, Shortcut(graph, partition, subgraphs)


def _networkx_augmented(shortcut, index):
    """``G[P_i] + H_i`` built edge by edge into an ``nx.Graph``."""
    part = shortcut.partition[index]
    augmented = nx.Graph()
    augmented.add_nodes_from(part)
    for u in part:
        for v in shortcut.graph.neighbors(u):
            if v in part:
                augmented.add_edge(u, v)
    for u, v in shortcut.subgraphs[index]:
        augmented.add_edge(u, v)
    return augmented


def _bfs_plan(communication, root):
    """Parent map and children lists of a FIFO BFS over ``neighbors``."""
    parent, children = {root: None}, {root: []}
    queue = deque([root])
    while queue:
        node = queue.popleft()
        for neighbor in communication.neighbors(node):
            if neighbor not in parent:
                parent[neighbor] = node
                children[neighbor] = []
                children[node].append(neighbor)
                queue.append(neighbor)
    return parent, children


class TestPlanningOrderContract:
    """Routing trees follow the neighbour order of ``augmented_subgraph``."""

    @given(_instances())
    @settings(max_examples=60, deadline=None)
    def test_plan_is_bfs_over_augmented_subgraph_property(self, instance):
        graph, partition, shortcut = instance
        expected = []
        for index in range(len(partition)):
            communication = shortcut.augmented_subgraph(index)
            reference = _networkx_augmented(shortcut, index)
            assert list(communication.nodes) == list(reference.nodes)
            for node in reference:
                assert list(communication.neighbors(node)) == list(reference.neighbors(node))
            parent, children = _bfs_plan(communication, partition.leader_of(index))
            expected.append((parent, children, len(parent) == len(communication)))
        if not all(connected for _, _, connected in expected):
            with pytest.raises(ShortcutError):
                plan_routing_trees(graph, partition, shortcut)
            return
        plans = plan_routing_trees(graph, partition, shortcut)
        assert len(plans) == len(partition)
        for plan, (parent, children, _) in zip(plans, expected):
            assert list(plan.parent.items()) == list(parent.items())
            assert list(plan.children.items()) == [(v, kids) for v, kids in children.items() if kids]
            depth = {plan.root: 0}
            for node, par in list(parent.items())[1:]:
                depth[node] = depth[par] + 1
            assert plan.depth == max(depth.values())


class TestLatencyRealisticAggregation:
    def _instance(self, small_grid):
        partition = voronoi_partition(small_grid, 4, rng=1)
        tree = bfs_tree(small_grid)
        shortcut = build_full_shortcut(small_grid, tree, partition, delta=3.0).shortcut
        values = {v: 1 for v in small_grid.nodes()}
        return partition, shortcut, values

    def test_latency_mode_preserves_aggregates_and_reports_virtual_time(
        self, small_grid
    ):
        partition, shortcut, values = self._instance(small_grid)
        lockstep = partwise_aggregate(
            small_grid, partition, shortcut, values, lambda a, b: a + b, rng=2,
        )
        latent = partwise_aggregate(
            small_grid, partition, shortcut, values, lambda a, b: a + b, rng=2,
            latency_model="seeded-jitter",
        )
        assert not latent.incomplete
        assert latent.values == lockstep.values
        assert lockstep.stats.virtual_time == 0
        # Jittered links (latency 1..8) can only stretch completion.
        assert latent.stats.virtual_time == latent.stats.rounds
        assert latent.stats.virtual_time >= lockstep.stats.rounds
        assert latent.stats.messages == lockstep.stats.messages

    def test_uniform_model_is_byte_identical_to_no_model(self, small_grid):
        # "uniform" is documented as lockstep-equivalent: it must not even
        # consume the latency run-seed draw, so results, stats, and the
        # downstream rng stream match latency_model=None exactly.
        partition, shortcut, values = self._instance(small_grid)
        import random

        outcomes = []
        for model in (None, "uniform"):
            rng = random.Random(6)
            result = partwise_aggregate(
                small_grid, partition, shortcut, values, min, rng=rng,
                latency_model=model,
            )
            outcomes.append((result.values, result.stats, rng.random()))
        assert outcomes[0] == outcomes[1]

    def test_latency_mode_replays_per_seed(self, small_grid):
        partition, shortcut, values = self._instance(small_grid)
        runs = [
            partwise_aggregate(
                small_grid, partition, shortcut, values, min, rng=9,
                latency_model="seeded-jitter",
            )
            for _ in range(2)
        ]
        assert runs[0].values == runs[1].values
        assert runs[0].stats == runs[1].stats
        assert runs[0].completion_rounds == runs[1].completion_rounds

    def test_unknown_latency_model_raises_shortcut_error(self, small_grid):
        partition, shortcut, values = self._instance(small_grid)
        with pytest.raises(ShortcutError) as info:
            partwise_aggregate(
                small_grid, partition, shortcut, values, min, rng=1,
                latency_model="bogus",
            )
        assert "registered latency models" in str(info.value)


class TestAggregationCorrectness:
    def test_sum_per_part(self, small_grid):
        partition = voronoi_partition(small_grid, 4, rng=1)
        tree = bfs_tree(small_grid)
        shortcut = build_full_shortcut(small_grid, tree, partition, delta=3.0).shortcut
        result = partwise_aggregate(
            small_grid, partition, shortcut,
            {v: 1 for v in small_grid.nodes()}, lambda a, b: a + b, rng=2,
        )
        assert not result.incomplete
        for index, part in enumerate(partition):
            assert result.values[index] == len(part)

    def test_min_per_part(self, small_grid):
        partition = voronoi_partition(small_grid, 3, rng=3)
        tree = bfs_tree(small_grid)
        shortcut = build_full_shortcut(small_grid, tree, partition, delta=3.0).shortcut
        result = partwise_aggregate(
            small_grid, partition, shortcut,
            {v: v for v in small_grid.nodes()}, min, rng=4,
        )
        for index, part in enumerate(partition):
            assert result.values[index] == min(part)

    def test_steiner_nodes_do_not_pollute_aggregate(self, small_grid):
        # A part routed through non-part nodes: those contribute None.
        partition = Partition(small_grid, [[0, 1]])
        tree = bfs_tree(small_grid)
        shortcut = build_full_shortcut(small_grid, tree, partition, delta=3.0).shortcut
        result = partwise_aggregate(
            small_grid, partition, shortcut, {0: 5, 1: 7}, lambda a, b: a + b, rng=1,
        )
        assert result.values[0] == 12

    def test_missing_values_are_skipped(self, small_grid):
        partition = Partition(small_grid, [[0, 1, 2]])
        shortcut = Shortcut(small_grid, partition, [[]])
        result = partwise_aggregate(
            small_grid, partition, shortcut, {1: 3}, lambda a, b: a + b, rng=1,
        )
        assert result.values[0] == 3

    def test_singleton_parts_complete_instantly(self, small_grid):
        partition = Partition(small_grid, [[0], [35]])
        shortcut = Shortcut(small_grid, partition, [[], []])
        result = partwise_aggregate(
            small_grid, partition, shortcut, {0: 1, 35: 2}, min, rng=1,
        )
        assert result.values == {0: 1, 1: 2}
        assert result.stats.rounds <= 1

    @given(graphs_with_partitions(min_nodes=3, max_nodes=25))
    @settings(max_examples=20, deadline=None)
    def test_aggregates_match_reference_property(self, graph_and_partition):
        graph, partition = graph_and_partition
        tree = bfs_tree(graph, root=0)
        from repro.core.full import build_full_shortcut

        shortcut = build_full_shortcut(
            graph, tree, partition, 1.0, escalate_on_stall=True
        ).shortcut
        values = {v: v * v for v in graph.nodes()}
        result = partwise_aggregate(
            graph, partition, shortcut, values, lambda a, b: a + b, rng=0,
        )
        assert not result.incomplete
        for index, part in enumerate(partition):
            assert result.values[index] == sum(values[v] for v in part)


class TestSchedulingBehaviour:
    def test_wheel_speedup(self):
        n = 81
        graph = wheel_graph(n)
        rim = list(range(1, n))
        partition = Partition(graph, [rim])
        no_shortcut = Shortcut(graph, partition, [[]])
        with_spokes = Shortcut(graph, partition, [[(0, v) for v in rim]])
        slow = partwise_aggregate(
            graph, partition, no_shortcut, {v: v for v in rim}, min, rng=1,
        )
        fast = partwise_aggregate(
            graph, partition, with_spokes, {v: v for v in rim}, min, rng=1,
        )
        assert slow.stats.rounds >= (n - 1) // 2
        assert fast.stats.rounds <= 8

    def test_rounds_within_lmr_bound(self):
        graph = grid_graph(12, 12)
        partition = grid_rows_partition(graph)
        tree = bfs_tree(graph)
        shortcut = build_full_shortcut(graph, tree, partition, delta=3.0).shortcut
        result = partwise_aggregate(
            graph, partition, shortcut, {v: 1 for v in graph.nodes()},
            lambda a, b: a + b, rng=5,
        )
        c = result.max_edge_load
        d = result.max_tree_depth
        n = graph.number_of_nodes()
        # O(c + d log n) with a generous constant.
        assert result.stats.rounds <= 8 * (c + (d + 1) * (2 + math.log2(n)))

    def test_delay_modes(self):
        graph = grid_graph(8, 8)
        partition = grid_rows_partition(graph)
        tree = bfs_tree(graph)
        shortcut = build_full_shortcut(graph, tree, partition, delta=3.0).shortcut
        values = {v: 1 for v in graph.nodes()}
        for mode in ("random", "zero", "sequential"):
            result = partwise_aggregate(
                graph, partition, shortcut, values, lambda a, b: a + b,
                rng=1, delay_mode=mode,
            )
            assert not result.incomplete
        with pytest.raises(ShortcutError):
            partwise_aggregate(
                graph, partition, shortcut, values, lambda a, b: a + b,
                rng=1, delay_mode="bogus",
            )

    def test_sequential_slower_than_random(self):
        graph = grid_graph(10, 10)
        partition = grid_rows_partition(graph)
        tree = bfs_tree(graph)
        shortcut = build_full_shortcut(graph, tree, partition, delta=3.0).shortcut
        values = {v: 1 for v in graph.nodes()}
        random_mode = partwise_aggregate(
            graph, partition, shortcut, values, lambda a, b: a + b,
            rng=1, delay_mode="random",
        )
        sequential = partwise_aggregate(
            graph, partition, shortcut, values, lambda a, b: a + b,
            rng=1, delay_mode="sequential",
        )
        assert random_mode.stats.rounds <= sequential.stats.rounds

    def test_max_rounds_cutoff_reports_incomplete(self):
        n = 81
        graph = wheel_graph(n)
        rim = list(range(1, n))
        partition = Partition(graph, [rim])
        no_shortcut = Shortcut(graph, partition, [[]])
        result = partwise_aggregate(
            graph, partition, no_shortcut, {v: v for v in rim}, min,
            rng=1, max_rounds=5,
        )
        assert result.incomplete == (0,)
        assert 0 not in result.values


class TestArgumentValidation:
    """Bad ``max_rounds`` and ``delay_mode`` fail before any work is done."""

    def _instance(self, small_grid):
        partition = grid_rows_partition(small_grid)
        shortcut = Shortcut(small_grid, partition, [[] for _ in partition])
        return partition, shortcut, {v: 1 for v in small_grid.nodes()}

    @pytest.mark.parametrize("max_rounds", [0, -5, 2.5, True, False, "3"])
    def test_bad_max_rounds_raises(self, small_grid, max_rounds):
        partition, shortcut, values = self._instance(small_grid)
        with pytest.raises(ShortcutError, match="max_rounds must be a positive int"):
            partwise_aggregate(
                small_grid, partition, shortcut, values, min, rng=1, max_rounds=max_rounds,
            )

    def test_max_rounds_one_is_accepted(self, small_grid):
        partition, shortcut, values = self._instance(small_grid)
        result = partwise_aggregate(
            small_grid, partition, shortcut, values, min, rng=1, max_rounds=1,
        )
        assert result.stats.rounds == 1
        assert result.incomplete == tuple(range(len(partition)))

    def test_unknown_delay_mode_raises_before_planning(self, small_grid):
        # The communication graph is disconnected, so planning would raise
        # its own error; the delay_mode check comes first and draws nothing.
        partition = Partition(small_grid, [[0, 1]])
        shortcut = Shortcut(small_grid, partition, [[(34, 35)]])
        rng = random.Random(4)
        state = rng.getstate()
        with pytest.raises(ShortcutError, match="unknown delay_mode 'bogus'"):
            partwise_aggregate(
                small_grid, partition, shortcut, {0: 1, 1: 2}, min, rng=rng,
                delay_mode="bogus",
            )
        assert rng.getstate() == state
