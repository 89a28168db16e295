"""Tests for the CONGEST simulator core (network, stats, bandwidth)."""

import networkx as nx
import pytest

from repro.congest import NodeAlgorithm, RoundStats, SyncNetwork
from repro.congest.jobs import Job, JobScheduler
from repro.congest.network import bandwidth_budget
from repro.serve import JobServer
from repro.util.errors import CongestViolation, GraphStructureError


class _Silent(NodeAlgorithm):
    def on_round(self, ctx, inbox):
        return {}


class _PingOnce(NodeAlgorithm):
    """Node 0 pings node 1 once; 1 records receipt."""

    def __init__(self, node):
        self.node = node
        self.got = None

    def on_start(self, ctx):
        if self.node == 0:
            return {1: (7,)}
        return {}

    def on_round(self, ctx, inbox):
        for sender, payload in inbox.items():
            self.got = (sender, payload)
        return {}

    def result(self):
        return self.got


class _Chatter(NodeAlgorithm):
    """Sends to all neighbors every round forever (for timeout tests)."""

    def on_round(self, ctx, inbox):
        return {neighbor: (1,) for neighbor in ctx.neighbors}

    def on_start(self, ctx):
        return {neighbor: (1,) for neighbor in ctx.neighbors}


class _TooBig(NodeAlgorithm):
    def on_start(self, ctx):
        return {neighbor: tuple(range(500)) for neighbor in ctx.neighbors}

    def on_round(self, ctx, inbox):
        return {}


class _SendBits(NodeAlgorithm):
    """Node 0 sends node 1 one int of exactly ``bits`` bits."""

    def __init__(self, node, bits):
        self.node = node
        self.bits = bits

    def on_start(self, ctx):
        if self.node == 0:
            return {1: 1 << (self.bits - 1)}
        return {}

    def on_round(self, ctx, inbox):
        return {}


class _WrongTarget(NodeAlgorithm):
    def __init__(self, node):
        self.node = node

    def on_start(self, ctx):
        if self.node == 0:
            return {99: (1,)}
        return {}

    def on_round(self, ctx, inbox):
        return {}


class TestSyncNetwork:
    def test_empty_graph_rejected(self):
        with pytest.raises(GraphStructureError):
            SyncNetwork(nx.Graph())

    def test_silent_network_quiesces_immediately(self):
        graph = nx.path_graph(3)
        network = SyncNetwork(graph)
        _, stats = network.run({v: _Silent() for v in graph})
        assert stats.rounds == 0
        assert stats.messages == 0

    def test_single_ping_delivered(self):
        graph = nx.path_graph(2)
        network = SyncNetwork(graph)
        algorithms = {v: _PingOnce(v) for v in graph}
        results, stats = network.run(algorithms)
        assert results[1] == (0, (7,))
        assert stats.messages == 1
        assert stats.rounds == 1

    def test_coverage_mismatch_rejected(self):
        graph = nx.path_graph(3)
        network = SyncNetwork(graph)
        with pytest.raises(GraphStructureError):
            network.run({0: _Silent()})

    def test_timeout_raises(self):
        graph = nx.path_graph(2)
        network = SyncNetwork(graph)
        with pytest.raises(CongestViolation):
            network.run({v: _Chatter() for v in graph}, max_rounds=10)

    def test_timeout_tolerated_when_asked(self):
        graph = nx.path_graph(2)
        network = SyncNetwork(graph)
        _, stats = network.run(
            {v: _Chatter() for v in graph}, max_rounds=10, raise_on_timeout=False
        )
        assert stats.rounds == 10

    def test_bandwidth_enforced(self):
        graph = nx.path_graph(2)
        network = SyncNetwork(graph)
        with pytest.raises(CongestViolation):
            network.run({v: _TooBig() for v in graph})

    def test_non_neighbor_send_rejected(self):
        graph = nx.path_graph(3)
        network = SyncNetwork(graph)
        with pytest.raises(CongestViolation):
            network.run({v: _WrongTarget(v) for v in graph})

    def test_message_bits_counted(self):
        graph = nx.path_graph(2)
        network = SyncNetwork(graph)
        _, stats = network.run({v: _PingOnce(v) for v in graph})
        assert stats.message_bits > 0

    @pytest.mark.parametrize("bandwidth_bits", [0, -3, 2.5, True])
    def test_bandwidth_must_be_a_positive_int(self, bandwidth_bits):
        with pytest.raises(ValueError, match="bandwidth_bits") as err:
            SyncNetwork(nx.path_graph(2), bandwidth_bits=bandwidth_bits)
        assert repr(bandwidth_bits) in str(err.value)

    @pytest.mark.parametrize("max_rounds", [0, -1, 2.5, True])
    def test_max_rounds_must_be_a_positive_int(self, max_rounds):
        graph = nx.path_graph(2)
        network = SyncNetwork(graph)
        with pytest.raises(ValueError, match="max_rounds") as err:
            network.run({v: _PingOnce(v) for v in graph}, max_rounds=max_rounds)
        assert repr(max_rounds) in str(err.value)


class TestBandwidthBudget:
    """One budget rule, ``bandwidth_budget``, always enforced: there is no
    off-switch on the network, the job scheduler or the job server."""

    @pytest.mark.parametrize(
        "n,bits", [(1, 8), (2, 8), (3, 16), (4, 16), (5, 24), (64, 48), (65, 56)]
    )
    def test_budget_is_eight_bits_per_ceil_log2_n(self, n, bits):
        assert bandwidth_budget(n) == bits

    def test_network_default_is_the_budget(self):
        graph = nx.path_graph(65)
        assert SyncNetwork(graph).bandwidth_bits == bandwidth_budget(65)

    @pytest.mark.parametrize("scheduler", ["event", "dense"])
    def test_network_enforces_the_budget_exactly(self, scheduler):
        graph = nx.path_graph(2)
        network = SyncNetwork(graph, scheduler=scheduler)
        budget = bandwidth_budget(2)
        _, stats = network.run({v: _SendBits(v, budget) for v in graph})
        assert stats.message_bits == budget
        with pytest.raises(CongestViolation, match=f"budget is {budget} bits"):
            network.run({v: _SendBits(v, budget + 1) for v in graph})

    def test_scoped_job_gets_its_population_budget(self):
        # A 3-node job on a 64-node graph is held to the 3-node budget.
        graph = nx.path_graph(64)
        budget = bandwidth_budget(3)
        region = (0, 1, 2)
        result = JobScheduler(graph).run(
            [Job("fits", {v: _SendBits(v, budget) for v in region})]
        )
        assert result.outcomes["fits"].stats.message_bits == budget
        with pytest.raises(CongestViolation, match=f"budget is {budget} bits"):
            JobScheduler(graph).run(
                [Job("big", {v: _SendBits(v, budget + 1) for v in region})]
            )

    def test_job_server_enforces_the_budget(self):
        graph = nx.path_graph(2)
        server = JobServer(graph)
        server.submit(Job("big", {v: _TooBig() for v in graph}))
        with pytest.raises(CongestViolation):
            server.drain()


class TestRoundStats:
    def test_addition(self):
        a = RoundStats(rounds=3, messages=10, message_bits=100)
        b = RoundStats(rounds=2, messages=5, message_bits=50)
        total = a + b
        assert total.rounds == 5
        assert total.messages == 15
        assert total.message_bits == 150

    def test_add_phase_accumulates(self):
        total = RoundStats()
        total.add_phase("one", RoundStats(rounds=4, messages=2))
        total.add_phase("two", RoundStats(rounds=6, messages=3))
        assert total.rounds == 10
        assert total.messages == 5
        assert set(total.phases) == {"one", "two"}

    def test_duplicate_phase_rejected(self):
        total = RoundStats()
        total.add_phase("one", RoundStats(rounds=1))
        with pytest.raises(ValueError):
            total.add_phase("one", RoundStats(rounds=1))

    def test_summary_mentions_phases(self):
        total = RoundStats()
        total.add_phase("bfs", RoundStats(rounds=7))
        assert "bfs" in total.summary()
        assert "rounds=7" in total.summary()

    def test_addition_sums_duplicate_phases(self):
        # Regression: {**a.phases, **b.phases} silently dropped the left
        # operand's accounting for a re-used phase name.
        a = RoundStats()
        a.add_phase("sweep", RoundStats(rounds=3, messages=10))
        b = RoundStats()
        b.add_phase("sweep", RoundStats(rounds=2, messages=4))
        total = a + b
        assert total.rounds == 5
        assert total.messages == 14
        assert total.phases["sweep"].rounds == 5
        assert total.phases["sweep"].messages == 14

    def test_addition_keeps_distinct_phases(self):
        a = RoundStats()
        a.add_phase("bfs", RoundStats(rounds=1))
        b = RoundStats()
        b.add_phase("meta", RoundStats(rounds=2))
        total = a + b
        assert set(total.phases) == {"bfs", "meta"}

    def test_addition_merges_edge_and_round_counters(self):
        a = RoundStats(
            rounds=1, messages=3, messages_by_round={0: 1, 1: 2},
            edge_messages={(0, 1): 2, (1, 0): 1},
        )
        b = RoundStats(
            rounds=1, messages=2, messages_by_round={0: 2},
            edge_messages={(0, 1): 2},
        )
        total = a + b
        assert total.messages_by_round == {0: 3, 1: 2}
        assert total.edge_messages == {(0, 1): 4, (1, 0): 1}
        assert total.max_congestion == 4
        assert sum(total.messages_by_round.values()) == total.messages

    def test_add_phase_accumulates_activations_and_congestion(self):
        total = RoundStats()
        total.add_phase(
            "one", RoundStats(rounds=1, activations=5, edge_messages={(0, 1): 3})
        )
        total.add_phase(
            "two", RoundStats(rounds=1, activations=2, edge_messages={(0, 1): 1})
        )
        assert total.activations == 7
        assert total.edge_messages == {(0, 1): 4}

    def test_addition_composes_virtual_time_sequentially(self):
        # Sequential composition: virtual time adds (one phase after the
        # other); per-node completion times take the key-wise max.
        a = RoundStats(virtual_time=10, completion_times={0: 10, 1: 4})
        b = RoundStats(virtual_time=7, completion_times={1: 7, 2: 3})
        total = a + b
        assert total.virtual_time == 17
        assert total.completion_times == {0: 10, 1: 7, 2: 3}

    def test_merge_composes_virtual_time_in_parallel(self):
        # Parallel composition (the job layer's merge): virtual time
        # overlaps (max), like rounds; completion times are key-wise max
        # and stay associative/commutative.
        a = RoundStats(rounds=5, virtual_time=12, completion_times={0: 12})
        b = RoundStats(rounds=3, virtual_time=20, completion_times={0: 9, 1: 20})
        c = RoundStats(virtual_time=1, completion_times={2: 1})
        merged = a.merge(b)
        assert merged.virtual_time == 20
        assert merged.completion_times == {0: 12, 1: 20}
        assert a.merge(b).merge(c) == a.merge(b.merge(c))
        assert a.merge(b) == b.merge(a)

    def test_add_phase_accumulates_virtual_time(self):
        total = RoundStats()
        total.add_phase(
            "bfs", RoundStats(rounds=2, virtual_time=9, completion_times={0: 9})
        )
        total.add_phase(
            "sweep", RoundStats(rounds=3, virtual_time=15, completion_times={0: 15, 1: 2})
        )
        assert total.virtual_time == 24
        assert total.completion_times == {0: 15, 1: 2}

    def test_copy_isolates_virtual_time_counters(self):
        # A copy that shared the completion-times dict (or dropped the new
        # counters) would corrupt cached accounting — the regression the
        # provider cache's store/hit copies rely on.
        original = RoundStats(
            rounds=4, virtual_time=11, completion_times={0: 11, 1: 6},
            phases={"p": RoundStats(virtual_time=5, completion_times={1: 5})},
        )
        clone = original.copy()
        assert clone == original
        clone.virtual_time += 100
        clone.completion_times[0] = 999
        clone.phases["p"].completion_times[1] = 999
        assert original.virtual_time == 11
        assert original.completion_times == {0: 11, 1: 6}
        assert original.phases["p"].completion_times == {1: 5}


class TestWallModelAlgebra:
    """Satellite (PR 5): the wall-model dimension (``virtual_time``,
    per-node ``completion_times``) must compose exactly like ``rounds`` —
    sequential sums / key-wise max, parallel max — through arbitrarily
    nested ``add_phase`` -> ``merge`` -> ``copy`` chains, and cached
    copies must never alias the live run's dicts."""

    def _leaf(self, vt, completions, phase=None):
        stats = RoundStats(
            rounds=vt, virtual_time=vt, completion_times=dict(completions)
        )
        if phase:
            wrapped = RoundStats()
            wrapped.add_phase(phase, stats)
            return wrapped
        return stats

    def test_sequential_composition_sums_vt_and_maxes_completions(self):
        a = self._leaf(5, {0: 5, 1: 3})
        b = self._leaf(4, {1: 4, 2: 2})
        total = a + b
        assert total.virtual_time == 9
        assert total.completion_times == {0: 5, 1: 4, 2: 2}
        accumulated = RoundStats()
        accumulated.add_phase("first", a)
        accumulated.add_phase("second", b)
        assert accumulated.virtual_time == 9
        assert accumulated.completion_times == {0: 5, 1: 4, 2: 2}

    def test_parallel_composition_maxes_vt_and_completions(self):
        a = self._leaf(7, {0: 7, 1: 2})
        b = self._leaf(5, {1: 5, 2: 5})
        merged = a.merge(b)
        assert merged.virtual_time == 7
        assert merged.completion_times == {0: 7, 1: 5, 2: 5}

    def test_nested_phase_merge_copy_chain(self):
        # Two "shards", each with a phased breakdown, merged then copied:
        # every level of the tree must carry the wall-model dimension.
        shard_a = RoundStats()
        shard_a.add_phase("sweep", self._leaf(6, {0: 6}))
        shard_a.add_phase("verify", self._leaf(3, {0: 9}))
        shard_b = RoundStats()
        shard_b.add_phase("sweep", self._leaf(8, {1: 8}))
        shard_b.add_phase("verify", self._leaf(1, {1: 9}))
        merged = shard_a.merge(shard_b)
        assert merged.virtual_time == 9  # max(6+3, 8+1)
        assert merged.completion_times == {0: 9, 1: 9}
        assert merged.phases["sweep"].virtual_time == 8
        assert merged.phases["sweep"].completion_times == {0: 6, 1: 8}
        copied = merged.copy()
        assert copied == merged
        # Deep isolation: scribbling on the copy (any nesting level) must
        # not reach the original.
        copied.completion_times[0] = 10**6
        copied.phases["sweep"].completion_times[1] = 10**6
        copied.phases["sweep"].virtual_time = 10**6
        assert merged.completion_times[0] == 9
        assert merged.phases["sweep"].completion_times[1] == 8
        assert merged.phases["sweep"].virtual_time == 8

    def test_provider_cache_isolates_wall_model_dicts(self):
        # A cached outcome's stats must not alias the live run's
        # completion_times dict: a caller scribbling on its outcome (or a
        # later run extending its own dict) must never corrupt the cache.
        from repro.core import providers
        from repro.core.providers import (
            ShortcutRequest,
            ShortcutOutcome,
            ShortcutProvenance,
            ShortcutProvider,
            build_shortcut,
            clear_shortcut_cache,
            register_provider,
        )
        from repro.core.shortcut import Shortcut
        from repro.graphs.partition import Partition

        class WallModelProvider(ShortcutProvider):
            name = "test-wall-model"
            needs_delta = False
            needs_tree = False
            cacheable = True

            def build(self, request, delta, tree):
                stats = RoundStats(
                    rounds=4, virtual_time=4, completion_times={0: 4, 1: 2}
                )
                return ShortcutOutcome(
                    shortcut=Shortcut(
                        request.graph, request.partition,
                        [[] for _ in request.partition],
                    ),
                    tree=None,
                    stats=stats,
                    provenance=ShortcutProvenance(provider=self.name),
                )

        graph = nx.path_graph(4)
        partition = Partition(graph, [{0, 1}, {2, 3}])
        register_provider(WallModelProvider())
        try:
            clear_shortcut_cache()
            first = build_shortcut(ShortcutRequest(
                graph=graph, partition=partition, provider="test-wall-model"
            ))
            assert not first.provenance.cache_hit
            first.stats.completion_times[0] = 10**6
            first.stats.virtual_time = 10**6
            second = build_shortcut(ShortcutRequest(
                graph=graph, partition=partition, provider="test-wall-model"
            ))
            assert second.provenance.cache_hit
            assert second.stats.completion_times == {0: 4, 1: 2}
            assert second.stats.virtual_time == 4
            # And the hit's copy is isolated from the next hit too.
            second.stats.completion_times.clear()
            third = build_shortcut(ShortcutRequest(
                graph=graph, partition=partition, provider="test-wall-model"
            ))
            assert third.stats.completion_times == {0: 4, 1: 2}
        finally:
            providers._REGISTRY.pop("test-wall-model", None)
            clear_shortcut_cache()


class TestNotesAndTenancyAlgebra:
    """Satellite (PR 8): provenance ``notes``, the arbiter's
    ``arbitration_stalls`` counter, and the multi-tenant ``jobs``
    projection must all survive ``__add__`` / ``merge`` / ``copy`` /
    ``add_phase`` — notes as an order-preserving deduplicated union,
    stalls as plain sums, and the per-job projection key-wise."""

    def test_addition_unions_notes_without_duplicates(self):
        a = RoundStats(rounds=1, notes=("vectorized", "quantized"))
        b = RoundStats(rounds=1, notes=("quantized", "resharded"))
        total = a + b
        assert total.notes == ("vectorized", "quantized", "resharded")

    def test_merge_unions_notes_without_duplicates(self):
        a = RoundStats(notes=("alpha",))
        b = RoundStats(notes=("beta", "alpha"))
        assert a.merge(b).notes == ("alpha", "beta")
        # Union is idempotent: merging a stats object with itself must
        # not replicate its own annotations.
        assert a.merge(a).notes == ("alpha",)

    def test_add_phase_folds_notes_into_the_total_once(self):
        total = RoundStats()
        total.add_phase("one", RoundStats(rounds=1, notes=("approx",)))
        total.add_phase("two", RoundStats(rounds=1, notes=("approx", "late")))
        assert total.notes == ("approx", "late")
        # The phased breakdown keeps each phase's own notes untouched.
        assert total.phases["one"].notes == ("approx",)

    def test_copy_preserves_notes(self):
        original = RoundStats(notes=("vectorized",))
        assert original.copy().notes == ("vectorized",)

    def test_arbitration_stalls_sum_under_addition_and_merge(self):
        a = RoundStats(rounds=2, arbitration_stalls=5)
        b = RoundStats(rounds=3, arbitration_stalls=7)
        assert (a + b).arbitration_stalls == 12
        # Stalls are wasted work, not elapsed time: even the parallel
        # (max-like) merge accumulates them across shards.
        assert a.merge(b).arbitration_stalls == 12

    def test_add_phase_accumulates_arbitration_stalls(self):
        total = RoundStats()
        total.add_phase("one", RoundStats(rounds=1, arbitration_stalls=4))
        total.add_phase("two", RoundStats(rounds=1, arbitration_stalls=6))
        assert total.arbitration_stalls == 10

    def test_summary_mentions_stalls_only_when_present(self):
        quiet = RoundStats(rounds=1)
        assert "stalls" not in quiet.summary()
        noisy = RoundStats(rounds=1, arbitration_stalls=3)
        assert "stalls=3" in noisy.summary()

    def test_addition_composes_jobs_projection_keywise(self):
        a = RoundStats(
            rounds=4,
            jobs={
                "sssp": RoundStats(rounds=4, messages=10),
                "mst": RoundStats(rounds=2, messages=3),
            },
        )
        b = RoundStats(
            rounds=3,
            jobs={"sssp": RoundStats(rounds=3, messages=5)},
        )
        total = a + b
        assert set(total.jobs) == {"sssp", "mst"}
        assert total.jobs["sssp"].rounds == 7
        assert total.jobs["sssp"].messages == 15
        assert total.jobs["mst"].messages == 3

    def test_merge_composes_jobs_projection_with_merge_semantics(self):
        a = RoundStats(jobs={"sssp": RoundStats(rounds=5, virtual_time=5)})
        b = RoundStats(jobs={"sssp": RoundStats(rounds=3, virtual_time=9)})
        merged = a.merge(b)
        # Per-job entries compose with the same parallel semantics as the
        # top level: rounds/virtual_time overlap (max), not add.
        assert merged.jobs["sssp"].rounds == 5
        assert merged.jobs["sssp"].virtual_time == 9

    def test_copy_deep_copies_jobs_projection(self):
        original = RoundStats(
            jobs={"sssp": RoundStats(rounds=2, completion_times={0: 2})}
        )
        clone = original.copy()
        assert clone == original
        clone.jobs["sssp"].rounds = 999
        clone.jobs["sssp"].completion_times[0] = 999
        clone.jobs["extra"] = RoundStats()
        assert original.jobs["sssp"].rounds == 2
        assert original.jobs["sssp"].completion_times == {0: 2}
        assert set(original.jobs) == {"sssp"}

    def test_add_phase_accumulates_jobs_projection(self):
        total = RoundStats()
        total.add_phase(
            "wave-1", RoundStats(rounds=1, jobs={"a": RoundStats(messages=2)})
        )
        total.add_phase(
            "wave-2",
            RoundStats(
                rounds=1,
                jobs={"a": RoundStats(messages=1), "b": RoundStats(messages=4)},
            ),
        )
        assert total.jobs["a"].messages == 3
        assert total.jobs["b"].messages == 4

    def test_summary_mentions_jobs_only_when_present(self):
        solo = RoundStats(rounds=1)
        assert "jobs" not in solo.summary()
        tenanted = RoundStats(
            rounds=1, jobs={"a": RoundStats(), "b": RoundStats()}
        )
        assert "jobs=2" in tenanted.summary()
