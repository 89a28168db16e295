"""Tests for latency models on the ``event`` backend (:mod:`repro.congest.asynchronous`).

Three concerns:

* lockstep-equivalent mode (the ``uniform`` model, or a forced all-ones
  table) behaves exactly like ``event`` with no model on the quiescence
  edge cases (keep-alive timers, timeouts, mid-flight sampling) — the
  full primitive-suite equivalence lives in ``test_scheduler.py``, whose
  backend matrix includes an ``event`` + ``uniform`` arm;
* latency mode is deterministic per seed, reports the wall-model
  ``RoundStats`` dimension (``virtual_time``, ``completion_times``), and
  stretches completion beyond the round count when links are slow;
* the latency-model registry fails on unknown names with the same
  list-the-registry error convention as the scheduler and provider
  registries, and the backends without the capability flag reject
  latency models instead of silently ignoring them.
"""

import networkx as nx
import pytest

from repro.congest import NodeAlgorithm, SyncNetwork
from repro.congest.asynchronous import (
    DegreeProportionalLatency,
    SeededJitterLatency,
    UniformLatency,
    available_latency_models,
    resolve_latency_model,
)
from repro.congest.primitives.bfs import distributed_bfs
from repro.util.errors import CongestViolation, ShortcutError


class _KeepAliveTimer(NodeAlgorithm):
    def __init__(self, ticks):
        self.ticks = ticks
        self.wake_rounds = []

    def on_start(self, ctx):
        if self.ticks > 0:
            ctx.keep_alive()
        return {}

    def on_round(self, ctx, inbox):
        assert not inbox
        self.wake_rounds.append(ctx.round)
        if ctx.round < self.ticks:
            ctx.keep_alive()
        return {}


class _Chatter(NodeAlgorithm):
    def on_start(self, ctx):
        return {neighbor: (1,) for neighbor in ctx.neighbors}

    def on_round(self, ctx, inbox):
        return {neighbor: (1,) for neighbor in ctx.neighbors}


class _PingOnce(NodeAlgorithm):
    def __init__(self, node):
        self.node = node
        self.heard = []

    def on_start(self, ctx):
        if self.node == 0:
            return {neighbor: (7,) for neighbor in ctx.neighbors}
        return {}

    def on_round(self, ctx, inbox):
        self.heard.append((ctx.round, dict(inbox)))
        return {}

    def result(self):
        return tuple(self.heard)


class _InboxOrder(NodeAlgorithm):
    """Floods every neighbor for ``rounds`` ticks, recording inbox order."""

    def __init__(self, rounds):
        self.rounds = rounds
        self.orders = []

    def on_start(self, ctx):
        ctx.keep_alive()
        return {neighbor: (0,) for neighbor in ctx.neighbors}

    def on_round(self, ctx, inbox):
        if inbox:
            self.orders.append(tuple(inbox))
        if ctx.round < self.rounds:
            ctx.keep_alive()
            return {neighbor: (ctx.round,) for neighbor in ctx.neighbors}
        return {}

    def result(self):
        return self.orders


class TestLockstepEquivalentMode:
    def test_keep_alive_timer_matches_event(self):
        graph = nx.path_graph(3)
        # An all-ones table: lockstep timing through the latency-mode path.
        network = SyncNetwork(graph, latency_model=SeededJitterLatency(spread=1))
        algorithms = {v: _KeepAliveTimer(4 if v == 1 else 0) for v in graph}
        _, stats = network.run(algorithms)
        assert stats.rounds == 4
        assert algorithms[1].wake_rounds == [1, 2, 3, 4]
        assert algorithms[0].wake_rounds == []
        assert stats.activations == 4
        assert stats.messages == 0
        # Uniform latencies: the virtual clock is the round counter.
        assert stats.virtual_time == stats.rounds

    def test_mid_flight_sampling_without_raise(self):
        graph = nx.path_graph(4)
        for model in (None, "uniform"):
            network = SyncNetwork(graph, latency_model=model)
            _, stats = network.run(
                {v: _Chatter() for v in graph}, max_rounds=7, raise_on_timeout=False
            )
            assert stats.rounds == 7
            assert stats.messages == 6 * 8

    def test_timeout_raises_like_event(self):
        graph = nx.path_graph(4)
        with pytest.raises(CongestViolation):
            SyncNetwork(graph, latency_model="uniform").run(
                {v: _Chatter() for v in graph}, max_rounds=5
            )

    def test_silent_network_does_no_work(self):
        graph = nx.path_graph(3)

        class Silent(NodeAlgorithm):
            def on_round(self, ctx, inbox):
                return {}

        _, stats = SyncNetwork(graph, latency_model="uniform").run(
            {v: Silent() for v in graph}
        )
        assert stats.rounds == 0
        assert stats.activations == 0
        assert stats.virtual_time == 0

    def test_completion_times_cover_activated_nodes(self):
        graph = nx.star_graph(4)
        network = SyncNetwork(graph, latency_model=SeededJitterLatency(spread=1))
        _, stats = network.run({v: _PingOnce(v) for v in graph})
        # Only the leaves are ever activated (node 0 sends from on_start and
        # never hears back).
        assert set(stats.completion_times) == {1, 2, 3, 4}
        assert all(t == 1 for t in stats.completion_times.values())


class TestLatencyMode:
    def test_deterministic_replay_per_seed(self):
        graph = nx.lollipop_graph(6, 9)
        runs = []
        for _ in range(2):
            tree, stats = distributed_bfs(
                graph, 0, rng=7, latency_model="seeded-jitter"
            )
            runs.append(({v: tree.parent_of(v) for v in tree.nodes()}, stats))
        assert runs[0][0] == runs[1][0]
        assert runs[0][1] == runs[1][1]
        assert runs[0][1].virtual_time > 0

    def test_inboxes_keep_sender_index_order(self):
        # Under jitter, messages sent at different ticks land on the same
        # tick; every inbox must still list its senders in node order.
        graph = nx.complete_graph(6)
        results, _ = SyncNetwork(
            graph, rng=2, latency_model=SeededJitterLatency(spread=4)
        ).run({v: _InboxOrder(6) for v in graph})
        orders = [order for per_node in results.values() for order in per_node]
        assert any(len(order) > 2 for order in orders)
        assert all(list(order) == sorted(order) for order in orders)

    def test_jitter_stretches_virtual_time_beyond_lockstep(self):
        graph = nx.path_graph(20)
        _, lockstep = distributed_bfs(graph, 0, rng=5, latency_model="uniform")
        _, jittered = distributed_bfs(
            graph, 0, rng=5, latency_model=SeededJitterLatency(spread=8),
        )
        # Same message volume, but slow links stretch completion: virtual
        # time strictly exceeds the lockstep round count on a 19-hop path.
        assert jittered.messages == lockstep.messages
        assert jittered.virtual_time > lockstep.rounds

    def test_message_totals_invariant_under_latency(self):
        graph = nx.star_graph(6)
        for model in (None, "seeded-jitter", "degree-proportional"):
            results, stats = SyncNetwork(
                graph, rng=3, latency_model=model
            ).run({v: _PingOnce(v) for v in graph})
            assert stats.messages == 6
            assert sum(stats.messages_by_round.values()) == stats.messages
            assert sum(stats.edge_messages.values()) == stats.messages

    def test_degree_proportional_slows_hub_edges(self):
        graph = nx.star_graph(8)
        model = DegreeProportionalLatency(scale=4)
        table = model.build(graph, run_seed=1)
        # Every edge touches the degree-8 hub: latency 1 + (8 + 1) // 4.
        assert all(latency == 3 for latency in table.values())

    def test_jitter_is_symmetric_and_positive(self):
        graph = nx.cycle_graph(12)
        table = SeededJitterLatency(spread=5).build(graph, run_seed=9)
        for (u, v), latency in table.items():
            assert 1 <= latency <= 5
            assert table[(v, u)] == latency


class TestLatencyModelRegistry:
    def test_uniform_is_default_and_tableless(self):
        model = resolve_latency_model(None)
        assert isinstance(model, UniformLatency)
        assert model.build(nx.path_graph(3), run_seed=0) is None

    def test_unknown_model_lists_registry(self):
        with pytest.raises(ValueError) as info:
            resolve_latency_model("bogus")
        message = str(info.value)
        for name in available_latency_models():
            assert name in message

    def test_custom_error_type(self):
        with pytest.raises(ShortcutError):
            resolve_latency_model("bogus", ShortcutError)

    def test_unhashable_spec_raises_the_contracted_type(self):
        # A non-string spec (a list, a class, ...) must fail with the
        # caller's exception type, not leak a TypeError from the registry
        # lookup.
        with pytest.raises(ShortcutError):
            resolve_latency_model(["seeded-jitter"], ShortcutError)

    def test_instances_pass_through(self):
        model = SeededJitterLatency(spread=3)
        assert resolve_latency_model(model) is model

    def test_lockstep_schedulers_reject_latency_models(self):
        with pytest.raises(ValueError) as info:
            SyncNetwork(nx.path_graph(3), scheduler="dense", latency_model="seeded-jitter")
        assert "requires scheduler='event'" in str(info.value)

    def test_unknown_scheduler_message_lists_registry(self):
        from repro.congest.engine import available_schedulers

        with pytest.raises(ValueError) as info:
            SyncNetwork(nx.path_graph(2), scheduler="bogus")
        message = str(info.value)
        assert "registered schedulers" in message
        for name in available_schedulers():
            assert name in message
        assert "event" in message

    def test_removed_async_scheduler_is_an_unknown_name(self):
        with pytest.raises(ValueError, match="unknown scheduler 'async'") as info:
            SyncNetwork(nx.path_graph(2), scheduler="async")
        assert "dense, event" in str(info.value)


class TestDeliveryConventionReconciled:
    """Satellite (PR 5): one delivery convention everywhere — a message
    sent at tick ``t`` crosses edge ``e`` by ``t + latency(e)``, so a
    forced all-ones latency table is byte-identical to running with no
    model at all. ``SeededJitterLatency(spread=1)`` builds a real table of
    ones (``is_uniform`` is False), exercising the timed code path."""

    def test_event_backend_all_ones_table_equals_lockstep(self):
        graph = nx.lollipop_graph(6, 9)
        _, no_model = distributed_bfs(graph, 0, rng=5, latency_model="uniform")
        tree, ones = distributed_bfs(
            graph, 0, rng=5, latency_model=SeededJitterLatency(spread=1),
        )
        reference, event = distributed_bfs(graph, 0, rng=5, scheduler="event")
        assert {v: tree.parent_of(v) for v in tree.nodes()} == {
            v: reference.parent_of(v) for v in reference.nodes()
        }
        for stats in (no_model, ones):
            assert stats.rounds == event.rounds
            assert stats.messages == event.messages
            assert stats.message_bits == event.message_bits
            assert stats.messages_by_round == event.messages_by_round
            assert stats.edge_messages == event.edge_messages
        # The ones-table run is latency mode: it reports virtual time —
        # which, at unit latencies, *is* the round count.
        assert ones.virtual_time == event.rounds

    def test_packet_scheduler_all_ones_table_equals_lockstep(self):
        from repro.core.providers import ShortcutRequest, build_shortcut
        from repro.graphs.generators import grid_graph
        from repro.graphs.partition import grid_rows_partition
        from repro.sched.partwise import partwise_aggregate

        graph = grid_graph(6, 6)
        partition = grid_rows_partition(graph)
        shortcut = build_shortcut(
            ShortcutRequest(graph=graph, partition=partition, delta=3.0)
        ).shortcut
        runs = {}
        for label, model in (
            ("none", None), ("ones", SeededJitterLatency(spread=1)),
        ):
            # delay_mode="zero" keeps the rng stream out of the picture
            # (latency mode draws one extra seed before the delays).
            runs[label] = partwise_aggregate(
                graph, partition, shortcut,
                {v: 1 for v in graph.nodes()}, lambda a, b: a + b,
                rng=3, delay_mode="zero", latency_model=model,
            )
        none, ones = runs["none"], runs["ones"]
        assert ones.values == none.values
        assert ones.completion_rounds == none.completion_rounds
        assert ones.stats.rounds == none.stats.rounds
        assert ones.stats.messages == none.stats.messages
        assert ones.stats.messages_by_round == none.stats.messages_by_round
        assert ones.stats.edge_messages == none.stats.edge_messages
        # Latency mode reports the wall-model dimension; unit latencies
        # make it coincide with the round count.
        assert ones.stats.virtual_time == none.stats.rounds
        assert none.stats.virtual_time == 0
