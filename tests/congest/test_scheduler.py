"""Tests for the scheduler backends (every registered one).

Two concerns:

* quiescence edge cases — keep-alive-only nodes, ``on_start``-only runs,
  mid-flight sampling with ``raise_on_timeout=False`` — behave identically
  to the lockstep semantics;
* equivalence — every scheduler backend produces byte-identical results,
  round counts, and message counts to the dense (seed) scheduler across
  the primitive suite — on fixed graphs and on generated members of the
  registered generator families — while the event backend does far fewer
  node activations on thin-frontier instances. Per-node ``ctx.rng``
  streams and the result order are pinned across backends too.
"""

import dataclasses
import random
import re

import networkx as nx
import pytest
from hypothesis import given, settings

from repro.apps.mst import assign_random_weights, distributed_mst
from repro.congest import NodeAlgorithm, SyncNetwork
from repro.congest.engine import available_schedulers
from repro.congest.jobs import Job, JobScheduler
from repro.congest.primitives.bfs import BfsNode, distributed_bfs
from repro.congest.primitives.broadcast import (
    pipelined_broadcast,
    tree_aggregate,
    tree_broadcast,
)
from repro.graphs.generators import grid_graph
from repro.graphs.trees import bfs_tree
from repro.util.bitsize import payload_bits

from tests.conftest import GENERATED_GRAPHS, SEEDS


class _KeepAliveTimer(NodeAlgorithm):
    """Silent node that latches keep-alive for ``ticks`` rounds, then stops."""

    def __init__(self, ticks):
        self.ticks = ticks
        self.wake_rounds = []

    def on_round(self, ctx, inbox):
        assert not inbox
        self.wake_rounds.append(ctx.round)
        if ctx.round < self.ticks:
            ctx.keep_alive()
        return {}

    def on_start(self, ctx):
        if self.ticks > 0:
            ctx.keep_alive()
        return {}


class _StartOnlyPinger(NodeAlgorithm):
    """Node 0 sends once from on_start; everyone is silent afterwards."""

    def __init__(self, node):
        self.node = node
        self.inboxes = []

    def on_start(self, ctx):
        if self.node == 0:
            return {neighbor: (3,) for neighbor in ctx.neighbors}
        return {}

    def on_round(self, ctx, inbox):
        # Record observations, not spurious wakes: the dense scheduler
        # wakes the silent sender every round with an empty inbox, and the
        # conformance contract (checked under REPRO_SANITIZE=1) requires
        # those activations to be no-ops.
        if inbox:
            self.inboxes.append(dict(inbox))
        return {}

    def result(self):
        return tuple(self.inboxes)


class _Chatter(NodeAlgorithm):
    def on_start(self, ctx):
        return {neighbor: (1,) for neighbor in ctx.neighbors}

    def on_round(self, ctx, inbox):
        return {neighbor: (1,) for neighbor in ctx.neighbors}


class _RngProbe(NodeAlgorithm):
    """Draws from ctx.rng on every observing activation; node 0 floods a wave."""

    def __init__(self, node):
        self.node = node
        self.draws = []

    def on_start(self, ctx):
        self.draws.append(ctx.rng.randrange(2**30))
        if self.node == 0:
            return {neighbor: (1,) for neighbor in ctx.neighbors}
        return {}

    def on_round(self, ctx, inbox):
        if inbox:
            self.draws.append(ctx.rng.randrange(2**30))
        return {}

    def result(self):
        return tuple(self.draws)


class _WakeOnly(NodeAlgorithm):
    """Event-native algorithm: overrides on_wake, never defines on_round."""

    def __init__(self, node):
        self.node = node
        self.wakes = 0

    def on_start(self, ctx):
        if self.node == 0:
            return {neighbor: (1,) for neighbor in ctx.neighbors}
        return {}

    def on_wake(self, ctx, inbox):
        self.wakes += 1
        assert inbox, "on_wake must only fire with something to observe"
        return {}

    def result(self):
        return self.wakes


class TestQuiescenceEdgeCases:
    def test_keep_alive_only_nodes_are_woken_every_round(self):
        graph = nx.path_graph(3)
        network = SyncNetwork(graph, scheduler="event")
        algorithms = {v: _KeepAliveTimer(4 if v == 1 else 0) for v in graph}
        _, stats = network.run(algorithms)
        assert stats.rounds == 4
        assert algorithms[1].wake_rounds == [1, 2, 3, 4]
        # Only the latched node is ever activated.
        assert algorithms[0].wake_rounds == []
        assert algorithms[2].wake_rounds == []
        assert stats.activations == 4
        assert stats.messages == 0

    def test_on_start_only_run_takes_one_round(self):
        graph = nx.star_graph(5)  # center 0, leaves 1..5
        for scheduler in ("event", "dense"):
            network = SyncNetwork(graph, scheduler=scheduler)
            algorithms = {v: _StartOnlyPinger(v) for v in graph}
            results, stats = network.run(algorithms)
            assert stats.rounds == 1
            assert stats.messages == 5
            for leaf in range(1, 6):
                assert results[leaf] == ({0: (3,)},)

    def test_round0_sends_are_attributed(self):
        graph = nx.star_graph(5)
        network = SyncNetwork(graph, scheduler="event")
        _, stats = network.run({v: _StartOnlyPinger(v) for v in graph})
        # Explicit round-0 entry for on_start emissions: the per-round
        # breakdown always sums to the message total.
        assert stats.messages_by_round == {0: 5}
        assert sum(stats.messages_by_round.values()) == stats.messages

    def test_mid_flight_sampling_without_raise(self):
        graph = nx.path_graph(4)
        for scheduler in ("event", "dense"):
            network = SyncNetwork(graph, scheduler=scheduler)
            _, stats = network.run(
                {v: _Chatter() for v in graph}, max_rounds=7, raise_on_timeout=False
            )
            assert stats.rounds == 7
            # One message per edge direction per round, plus the on_start wave.
            assert stats.messages == 6 * 8

    def test_silent_network_does_no_work(self):
        graph = nx.path_graph(3)
        network = SyncNetwork(graph, scheduler="event")

        class Silent(NodeAlgorithm):
            def on_round(self, ctx, inbox):
                return {}

        _, stats = network.run({v: Silent() for v in graph})
        assert stats.rounds == 0
        assert stats.activations == 0

    def test_unknown_scheduler_rejected(self):
        with pytest.raises(ValueError):
            SyncNetwork(nx.path_graph(2), scheduler="bogus")

    def test_removed_sharded_name_fails_uniformly_at_every_boundary(self):
        from repro.apps.mst import assign_random_weights, distributed_mst
        from repro.congest.engine import available_schedulers
        from repro.core.providers import ShortcutRequest, build_shortcut
        from repro.graphs.partition import grid_rows_partition
        from repro.util.errors import ShortcutError

        graph = grid_graph(3, 3)
        expected = re.escape(
            "unknown scheduler 'sharded'; registered schedulers: "
            + ", ".join(available_schedulers())
        )
        with pytest.raises(ValueError, match=expected):
            SyncNetwork(graph, scheduler="sharded")
        with pytest.raises(ShortcutError, match=expected):
            distributed_mst(
                graph, assign_random_weights(graph, rng=1), scheduler="sharded"
            )
        with pytest.raises(ShortcutError, match=expected):
            build_shortcut(ShortcutRequest(
                graph=graph, partition=grid_rows_partition(graph),
                provider="theorem31-simulated", scheduler="sharded",
            ))

    def test_on_wake_fast_path_only_fires_with_input(self):
        graph = nx.star_graph(4)
        network = SyncNetwork(graph, scheduler="event")
        algorithms = {v: _WakeOnly(v) for v in graph}
        results, stats = network.run(algorithms)
        assert results[0] == 0  # sender never hears back
        assert all(results[leaf] == 1 for leaf in range(1, 5))
        assert stats.activations == 4


def _equiv_stats(stats):
    """The cross-scheduler-comparable projection of RoundStats.

    Every backend's stats must also satisfy the counter identities their
    field declarations promise (``RoundStats.check``).
    """
    stats.check()
    return (stats.rounds, stats.messages, stats.message_bits)


def _parents(tree):
    return {v: tree.parent_of(v) for v in tree.nodes()}


# The equivalence matrix: arm -> run keywords. Every registered backend
# must match the dense reference byte for byte (available_schedulers()
# omits vectorized when numpy is missing; vectorized executes kernel-backed
# algorithms columnar and delegates the kernel-less ones to event, so it
# belongs in every case here), and so must ``event`` under the explicit
# ``uniform`` model — lockstep transit, the same run as no model at all.
BACKENDS = {name: {"scheduler": name} for name in available_schedulers()}
BACKENDS["event-uniform"] = {"scheduler": "event", "latency_model": "uniform"}
CHALLENGERS = [arm for arm in BACKENDS if arm != "dense"]


class TestSchedulerEquivalence:
    GRAPHS = {
        "path": nx.path_graph(17),
        "star": nx.star_graph(12),
        "cycle": nx.cycle_graph(11),
        "grid": nx.convert_node_labels_to_integers(nx.grid_2d_graph(5, 4)),
        "lollipop": nx.lollipop_graph(6, 9),
    }

    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_bfs_equivalent(self, name):
        graph = self.GRAPHS[name]
        dense_tree, dense_stats = distributed_bfs(graph, 0, rng=5, scheduler="dense")
        for arm in CHALLENGERS:
            tree, stats = distributed_bfs(graph, 0, rng=5, **BACKENDS[arm])
            assert _parents(dense_tree) == _parents(tree)
            assert _equiv_stats(dense_stats) == _equiv_stats(stats)
            assert dense_stats.edge_messages == stats.edge_messages
            assert stats.activations <= dense_stats.activations

    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_broadcast_and_aggregate_equivalent(self, name):
        graph = self.GRAPHS[name]
        tree = bfs_tree(graph, root=0)
        outcomes = {}
        for arm, run in BACKENDS.items():
            values, b_stats = tree_broadcast(graph, tree, 42, rng=1, **run)
            total, a_stats = tree_aggregate(
                graph, tree, {v: 1 for v in graph}, lambda a, b: a + b,
                rng=1, **run,
            )
            outcomes[arm] = (
                values, total, _equiv_stats(b_stats), _equiv_stats(a_stats)
            )
        reference = outcomes["dense"]
        for arm, outcome in outcomes.items():
            assert outcome == reference, arm

    @pytest.mark.parametrize("wave", [(42,), (7, 300), (7, 300, 5), (1, -2, 3, 2**20)])
    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_pipelined_broadcast_equivalent(self, name, wave):
        graph = self.GRAPHS[name]
        tree = bfs_tree(graph, root=0)
        outcomes = {}
        for arm, run in BACKENDS.items():
            received, stats = pipelined_broadcast(graph, tree, wave, rng=1, **run)
            outcomes[arm] = (received, _model_stats(stats))
        received, stats = outcomes["dense"]
        assert set(received.values()) == {wave}
        # A k-scalar wave: depth + k - 1 rounds, one scalar per message.
        edges = graph.number_of_nodes() - 1
        assert stats["rounds"] == tree.max_depth + len(wave) - 1
        assert stats["messages"] == len(wave) * edges
        assert stats["message_bits"] == edges * sum(map(payload_bits, wave))
        for arm, outcome in outcomes.items():
            assert outcome == outcomes["dense"], arm
        if len(wave) == 1:
            values, one_stats = tree_broadcast(graph, tree, wave[0], rng=1)
            assert values == {v: wave[0] for v in graph}
            assert _model_stats(one_stats) == stats

    def test_bellman_ford_equivalent(self):
        from repro.apps.sssp import bellman_ford_sssp
        from repro.graphs.adjacency import canonical_edge

        graph = nx.lollipop_graph(5, 8)
        weights = {
            canonical_edge(u, v): (u * 7 + v * 3) % 11 + 1 for u, v in graph.edges()
        }
        outcomes = [
            bellman_ford_sssp(graph, 0, weights, rng=4, **run)
            for run in BACKENDS.values()
        ]
        reference = outcomes[0]
        for distances, stats in outcomes[1:]:
            assert distances == reference[0]
            assert _equiv_stats(stats) == _equiv_stats(reference[1])

    def test_distributed_shortcut_pipeline_equivalent(self):
        from repro.core.distributed import distributed_partial_shortcut
        from repro.graphs.generators import grid_graph
        from repro.graphs.partition import grid_rows_partition

        graph = grid_graph(6, 6)
        partition = grid_rows_partition(graph)
        dense = distributed_partial_shortcut(
            graph, partition, delta=3.0, rng=7, scheduler="dense"
        )
        for arm in CHALLENGERS:
            result = distributed_partial_shortcut(
                graph, partition, delta=3.0, rng=7, **BACKENDS[arm],
            )
            assert dense.overcongested == result.overcongested
            assert dense.satisfied == result.satisfied
            assert dense.params == result.params
            assert _equiv_stats(dense.stats) == _equiv_stats(result.stats)

    def test_rng_streams_invariant_across_backends(self):
        # Regression for the shared-RNG ordering hazard: per-node streams
        # derive from (run_seed, node_index), so they cannot depend on
        # global iteration order or backend.
        graph = nx.star_graph(9)
        runs = [
            SyncNetwork(graph, rng=42, **run).run({v: _RngProbe(v) for v in graph})[0]
            for run in BACKENDS.values()
        ]
        for other in runs[1:]:
            assert other == runs[0]

    def test_result_iteration_order_matches_node_order(self):
        graph = nx.relabel_nodes(nx.path_graph(6), {0: 0, 1: 5, 2: 1, 3: 4, 4: 2, 5: 3})
        for arm, run in BACKENDS.items():
            network = SyncNetwork(graph, rng=0, **run)
            results, _ = network.run({v: _RngProbe(v) for v in graph})
            assert list(results) == list(graph.nodes()), arm

    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_uniform_model_is_byte_identical_to_no_model(self, name):
        graph = self.GRAPHS[name]
        tree, stats = distributed_bfs(graph, 0, rng=5)
        uniform_tree, uniform_stats = distributed_bfs(graph, 0, rng=5, latency_model="uniform")
        assert _parents(uniform_tree) == _parents(tree)
        # Full dataclass equality: activations, notes, virtual_time and
        # completion_times included.
        assert uniform_stats == stats
        assert stats.virtual_time == 0
        assert stats.completion_times == {}

    def test_thin_frontier_activation_win(self):
        # A broom: star whose center hangs off a long path.  The dense
        # scheduler pays n activations per round; the event scheduler pays
        # only for nodes that actually observe something.
        graph = nx.lollipop_graph(40, 200)
        dense_tree, dense_stats = distributed_bfs(graph, 0, rng=9, scheduler="dense")
        event_tree, event_stats = distributed_bfs(graph, 0, rng=9, scheduler="event")
        assert _parents(dense_tree) == _parents(event_tree)
        n = graph.number_of_nodes()
        assert dense_stats.activations == n * dense_stats.rounds
        assert event_stats.activations <= 2 * event_stats.messages
        assert event_stats.activations < dense_stats.activations / 10


def _model_stats(stats):
    """Every RoundStats field but the backend-specific ones, after ``check()``.

    ``notes`` records backend provenance (the vectorized fallback) and
    ``activations`` is the cost profile the backends may differ in.
    Everything else — the wall-model ``virtual_time`` and
    ``completion_times`` included, which every arm leaves empty under
    lockstep transit — is part of the execution and must match.
    """
    stats.check()
    return {
        f.name: getattr(stats, f.name)
        for f in dataclasses.fields(stats)
        if f.name not in ("notes", "activations")
    }


@settings(max_examples=40, deadline=None)
@given(GENERATED_GRAPHS, SEEDS)
def test_generated_graphs_equivalent_on_every_backend(graph, seed):
    root = min(graph.nodes())
    values = {v: (v * 7 + seed) % 101 for v in graph}
    # Scalars within the 8-bit budget of a two-node graph.
    wave = (seed % 251, graph.number_of_nodes(), seed % 7 + 1)
    outcomes = {}
    for arm, run in BACKENDS.items():
        tree, bfs_stats = distributed_bfs(graph, root, rng=seed, **run)
        total, aggregate_stats = tree_aggregate(
            graph, tree, values, lambda a, b: a + b, rng=seed, **run
        )
        received, wave_stats = pipelined_broadcast(graph, tree, wave, rng=seed, **run)
        outcomes[arm] = (
            _parents(tree), tree.root, total, received,
            _model_stats(bfs_stats), _model_stats(aggregate_stats),
            _model_stats(wave_stats),
        )
    reference = outcomes["dense"]
    assert reference[1] == root
    assert reference[2] == sum(values.values())
    assert set(reference[3].values()) == {wave}
    assert reference[6]["rounds"] == nx.eccentricity(graph, root) + len(wave) - 1
    for arm, outcome in outcomes.items():
        assert outcome == reference, arm


class TestMeasuredCongestion:
    def test_edge_counters_track_per_edge_traffic(self):
        graph = nx.path_graph(3)
        network = SyncNetwork(graph, scheduler="event")
        _, stats = network.run(
            {v: _Chatter() for v in graph}, max_rounds=5, raise_on_timeout=False
        )
        # One send per directed edge per round: the on_start wave (round 0)
        # plus one per executed round (the final round's sends are counted
        # at send time, like the seed scheduler).
        assert stats.edge_messages[(0, 1)] == 6
        assert stats.edge_messages[(1, 0)] == 6
        assert stats.max_congestion == 6
        assert sum(stats.edge_messages.values()) == stats.messages

    def test_partwise_engine_reports_measured_congestion(self):
        from repro.apps.partwise import solve_partwise_aggregation
        from repro.graphs.generators import grid_graph
        from repro.graphs.partition import grid_rows_partition

        graph = grid_graph(5, 5)
        partition = grid_rows_partition(graph)
        solution = solve_partwise_aggregation(
            graph, partition, {v: 1 for v in graph}, lambda a, b: a + b, rng=3
        )
        stats = solution.aggregation_stats
        assert stats.max_congestion >= 1
        assert sum(stats.edge_messages.values()) == stats.messages
        assert sum(stats.messages_by_round.values()) == stats.messages
        # Send-round convention: the initial convergecast wave (leaves firing
        # at delay 0) appears as the explicit round-0 entry.
        assert 0 in stats.messages_by_round


def _count_seedings(monkeypatch) -> list:
    """Record every Mersenne Twister seeding from here on.

    The sanitizer reads the stream state of every spuriously woken node,
    which seeds it, so the counted runs are unsanitized.
    """
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    calls = []
    seed = random.Random.seed

    def counting(self, *args, **kwargs):
        calls.append(self)
        return seed(self, *args, **kwargs)

    monkeypatch.setattr(random.Random, "seed", counting)
    return calls


class TestLazyNodeStreams:
    """Every context gets its stream, but only a draw seeds it."""

    @pytest.mark.parametrize("arm", BACKENDS)
    def test_library_runs_seed_nothing(self, arm, monkeypatch):
        graph = grid_graph(5, 5)
        weights = assign_random_weights(graph, rng=2)
        rngs = [random.Random(seed) for seed in (1, 2)]
        run = BACKENDS[arm]
        calls = _count_seedings(monkeypatch)
        distributed_bfs(graph, 0, rng=rngs[0], **run)
        distributed_mst(graph, weights, construction="simulated", rng=rngs[1], **run)
        assert calls == []

    def test_solo_job_seeds_nothing(self, monkeypatch):
        graph = grid_graph(5, 5)
        algorithms = {v: BfsNode(v, v == 0) for v in graph}
        rng = random.Random(11)
        calls = _count_seedings(monkeypatch)
        result = JobScheduler(graph).run([Job("solo", algorithms, rng=rng)])
        assert result.outcomes["solo"].status == "completed"
        assert calls == []

    @pytest.mark.parametrize("arm", BACKENDS)
    def test_each_drawing_node_seeds_once(self, arm, monkeypatch):
        graph = nx.star_graph(9)
        network = SyncNetwork(graph, rng=42, **BACKENDS[arm])
        calls = _count_seedings(monkeypatch)
        network.run({v: _RngProbe(v) for v in graph})
        assert len(calls) == graph.number_of_nodes()
        assert len({id(rng) for rng in calls}) == graph.number_of_nodes()
