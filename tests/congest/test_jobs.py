"""Tests for the multi-tenant job layer (:mod:`repro.congest.jobs`).

The two contracts that make multiplexing trustworthy:

* **solo identity** — one job under the JobScheduler is byte-identical
  (results *and* RoundStats) to a direct ``SyncNetwork`` run, with and
  without a latency model, full-population and scoped;
* **conservation + fairness** — per-job stats sum to the fabric
  aggregate, and round-robin arbitration grants every backlogged job the
  same share of each edge, up to the documented ±1 bound.
"""

import hashlib

import networkx as nx
import pytest

from repro.apps.sssp import _BellmanFordNode
from repro.congest.asynchronous import SeededJitterLatency
from repro.congest.jobs import Job, JobScheduler
from repro.congest.network import SyncNetwork
from repro.congest.node import NodeAlgorithm
from repro.congest.stats import RoundStats
from repro.graphs.adjacency import canonical_edge
from repro.serve import JobServer
from repro.util.errors import CongestViolation, GraphStructureError

# Solo-identity arms: the job layer's one mode, without a model and with
# the (lockstep) uniform model.
MODELS = [pytest.param(None, id="event"), pytest.param("uniform", id="event-uniform")]


def _mesh(seed=7):
    graph = nx.grid_2d_graph(5, 5)
    return nx.convert_node_labels_to_integers(graph, ordering="sorted")


def _bf_algorithms(graph, source, max_hops=None, nodes=None):
    weights = {canonical_edge(u, v): 1 for u, v in graph.edges()}
    population = graph.nodes() if nodes is None else nodes
    return {
        v: _BellmanFordNode(v, v == source, weights, max_hops) for v in population
    }


class _AlarmClock(NodeAlgorithm):
    """One scheduled wake ``delay`` rounds out, then a ping — exercises
    the timer wheel and the fast-forward path."""

    def __init__(self, node, delay):
        self.node = node
        self.delay = delay
        self.fired_round = None

    def on_start(self, ctx):
        if self.delay:
            ctx.schedule_wake(self.delay)
        return {}

    def on_round(self, ctx, inbox):
        if self.delay and self.fired_round is None and ctx.round >= self.delay:
            self.fired_round = ctx.round
            return {neighbor: 1 for neighbor in ctx.neighbors}
        return {}

    def result(self):
        return self.fired_round


class _PingPong(NodeAlgorithm):
    """The initiator and its peer echo until ``volleys`` receipts — a
    permanently backlogged edge, for arbitration tests."""

    def __init__(self, node, peer, volleys):
        self.node = node
        self.peer = peer
        self.volleys = volleys
        self.got = 0

    def on_start(self, ctx):
        if self.node < self.peer:
            return {self.peer: 1}
        return {}

    def on_round(self, ctx, inbox):
        if inbox:
            self.got += 1
            if self.got < self.volleys:
                return {self.peer: 1}
        return {}

    def result(self):
        return self.got


class _Immortal(NodeAlgorithm):
    """Latches keep-alive forever — never quiesces (timeout fixture)."""

    def on_start(self, ctx):
        ctx.keep_alive()
        return {}

    def on_round(self, ctx, inbox):
        ctx.keep_alive()
        return {}

    def result(self):
        return None


class TestSoloIdentity:
    @pytest.mark.parametrize("model", MODELS)
    def test_full_population_matches_direct_run(self, model):
        graph = _mesh()
        direct_results, direct_stats = SyncNetwork(
            graph, rng=11, latency_model=model
        ).run(_bf_algorithms(graph, 0))
        result = JobScheduler(graph, latency_model=model).run(
            [Job("solo", _bf_algorithms(graph, 0), rng=11)]
        )
        outcome = result.outcomes["solo"]
        assert outcome.results == direct_results
        assert outcome.stats == direct_stats  # full dataclass equality
        assert outcome.stats.arbitration_stalls == 0
        assert outcome.status == "completed"

    @pytest.mark.parametrize("model", MODELS)
    def test_timer_fast_forward_matches_direct_run(self, model):
        graph = nx.path_graph(4)
        delays = {0: 37, 1: 0, 2: 5, 3: 0}

        def algorithms():
            return {v: _AlarmClock(v, delays[v]) for v in graph.nodes()}

        direct_results, direct_stats = SyncNetwork(
            graph, rng=3, latency_model=model
        ).run(algorithms())
        result = JobScheduler(graph, latency_model=model).run(
            [Job("alarm", algorithms(), rng=3)]
        )
        assert result.outcomes["alarm"].results == direct_results
        assert result.outcomes["alarm"].stats == direct_stats

    def test_latency_model_matches_direct_run(self):
        graph = _mesh()
        direct_results, direct_stats = SyncNetwork(
            graph, rng=5, latency_model="seeded-jitter"
        ).run(_bf_algorithms(graph, 3))
        result = JobScheduler(
            graph, latency_model="seeded-jitter"
        ).run([Job("jit", _bf_algorithms(graph, 3), rng=5)])
        assert result.outcomes["jit"].results == direct_results
        assert result.outcomes["jit"].stats == direct_stats

    def test_latency_inbox_order_matches_direct_run(self):
        from tests.congest.test_async import _InboxOrder

        graph = nx.complete_graph(6)
        direct_results, direct_stats = SyncNetwork(
            graph, rng=2, latency_model="seeded-jitter"
        ).run({v: _InboxOrder(6) for v in graph})
        result = JobScheduler(
            graph, latency_model="seeded-jitter"
        ).run([Job("flood", {v: _InboxOrder(6) for v in graph}, rng=2)])
        assert result.outcomes["flood"].results == direct_results
        assert result.outcomes["flood"].stats == direct_stats

    def test_solo_aggregate_mirrors_the_job(self):
        graph = _mesh()
        result = JobScheduler(graph).run([Job("solo", _bf_algorithms(graph, 0), rng=1)])
        job_stats = result.outcomes["solo"].stats
        assert result.stats.rounds == job_stats.rounds
        assert result.stats.messages == job_stats.messages
        assert result.stats.jobs == {"solo": job_stats}
        result.stats.check()


class TestScopedJobs:
    def test_scoped_solo_matches_induced_subgraph_run(self):
        graph = _mesh()
        region = [6, 7, 8, 11, 12, 13]
        direct_results, direct_stats = SyncNetwork(
            graph.subgraph(region), rng=9
        ).run(_bf_algorithms(graph, 6, nodes=region))
        result = JobScheduler(graph).run(
            [Job("region", _bf_algorithms(graph, 6, nodes=region), rng=9)]
        )
        assert result.outcomes["region"].results == direct_results
        assert result.outcomes["region"].stats == direct_stats

    def test_unknown_population_node_is_rejected(self):
        graph = nx.path_graph(3)
        with pytest.raises(GraphStructureError, match="non-graph nodes"):
            JobScheduler(graph).run(
                [Job("bad", {99: _AlarmClock(99, 0)})]
            )

    def test_disjoint_regions_never_stall(self):
        graph = _mesh()
        regions = ([0, 1, 5], [3, 4, 8], [15, 20, 21], [18, 23, 24])
        jobs = [
            Job(f"r{i}", _bf_algorithms(graph, region[0], nodes=region), rng=i)
            for i, region in enumerate(regions)
        ]
        result = JobScheduler(graph).run(jobs)
        assert result.stats.arbitration_stalls == 0
        assert len(result.outcomes) == 4


class TestArbitrationFairness:
    def _pingpong_jobs(self, count, volleys=20):
        return [
            Job(
                f"j{k}",
                {0: _PingPong(0, 1, volleys), 1: _PingPong(1, 0, volleys)},
                rng=k,
                max_rounds=10_000,
            )
            for k in range(count)
        ]

    def test_round_robin_share_deviates_at_most_one(self):
        # The documented bound: on a symmetric always-backlogged edge,
        # per-job grant counts over the whole run differ by at most 1.
        for count in (2, 3, 4):
            result = JobScheduler(nx.path_graph(2)).run(self._pingpong_jobs(count))
            for edge in ((0, 1), (1, 0)):
                grants = [
                    result.outcomes[f"j{k}"].stats.edge_messages.get(edge, 0)
                    for k in range(count)
                ]
                assert max(grants) - min(grants) <= 1, (count, edge, grants)

    def test_contention_stalls_are_counted_and_conserved(self):
        result = JobScheduler(nx.path_graph(2)).run(self._pingpong_jobs(4))
        per_job = [o.stats.arbitration_stalls for o in result.outcomes.values()]
        assert result.stats.arbitration_stalls == sum(per_job) > 0
        result.stats.check()
        # Every job still completes exactly, just slower.
        for outcome in result.outcomes.values():
            assert outcome.results[1] == 20


class TestPerJobStats:
    def test_counters_sum_to_aggregate(self):
        graph = _mesh()
        jobs = [Job(f"s{k}", _bf_algorithms(graph, k), rng=k) for k in range(3)]
        result = JobScheduler(graph).run(jobs)
        per_job = [result.outcomes[f"s{k}"].stats for k in range(3)]
        assert result.stats.messages == sum(s.messages for s in per_job)
        assert result.stats.message_bits == sum(s.message_bits for s in per_job)
        assert result.stats.activations == sum(s.activations for s in per_job)
        assert sum(result.stats.messages_by_round.values()) == result.stats.messages
        for key, count in result.stats.edge_messages.items():
            assert count == sum(s.edge_messages.get(key, 0) for s in per_job)
        result.stats.check()

    def test_aggregate_is_the_merge_fold_of_the_jobs(self):
        graph = _mesh()
        jobs = [Job(f"s{k}", _bf_algorithms(graph, k), rng=k) for k in range(3)]
        jobs.append(Job("call", call=lambda: ({}, RoundStats(rounds=99, messages=0))))
        # An all-ones table: lockstep timing, but the wall model is recorded.
        result = JobScheduler(
            graph, latency_model=SeededJitterLatency(spread=1), max_inflight=2
        ).run(jobs)
        result.stats.check()
        merged = RoundStats()
        for outcome in result.outcomes.values():
            merged = merged.merge(outcome.stats)
        assert result.stats.messages_by_round == merged.messages_by_round
        assert result.stats.activations == merged.activations
        # The fields the aggregate defines differently: the makespan, not
        # the longest job, and no per-node completion times.
        assert result.stats.rounds == result.stats.virtual_time == max(
            outcome.completed_tick for outcome in result.outcomes.values()
        )
        assert result.stats.completion_times == {}
        assert all(o.stats.completion_times for k, o in result.outcomes.items() if k != "call")

    def test_check_catches_a_tampered_aggregate(self):
        graph = _mesh()
        result = JobScheduler(graph).run(
            [Job(f"s{k}", _bf_algorithms(graph, k), rng=k) for k in range(2)]
        )
        result.stats.jobs["s0"].activations += 1
        with pytest.raises(ValueError, match="activations over jobs"):
            result.stats.check()

    def test_jobs_projection_copies_match_outcomes(self):
        graph = _mesh()
        result = JobScheduler(graph).run(
            [Job(f"s{k}", _bf_algorithms(graph, k), rng=k) for k in range(2)]
        )
        for job_id, outcome in result.outcomes.items():
            assert result.stats.jobs[job_id] == outcome.stats
        # The projection holds copies: scribbling on it cannot corrupt
        # the outcome's stats.
        result.stats.jobs["s0"].messages = -1
        assert result.outcomes["s0"].stats.messages != -1

    def test_deterministic_across_runs(self):
        graph = _mesh()

        def run_once():
            jobs = [Job(f"s{k}", _bf_algorithms(graph, k), rng=k) for k in range(3)]
            return JobScheduler(graph).run(jobs)

        first, second = run_once(), run_once()
        assert first.stats == second.stats
        for job_id in first.outcomes:
            assert first.outcomes[job_id].results == second.outcomes[job_id].results
            assert first.outcomes[job_id].stats == second.outcomes[job_id].stats


class TestAdmissionControl:
    def test_max_inflight_staggers_admission(self):
        graph = _mesh()
        jobs = [Job(f"s{k}", _bf_algorithms(graph, k), rng=k) for k in range(4)]
        result = JobScheduler(graph, max_inflight=2).run(jobs)
        offsets = [result.outcomes[f"s{k}"].admitted_tick for k in range(4)]
        assert offsets[0] == offsets[1] == 0
        assert offsets[2] > 0 and offsets[3] > 0
        # A later admission starts the tick after a slot frees.
        first_done = min(
            result.outcomes[f"s{k}"].completed_tick for k in range(2)
        )
        assert offsets[2] == first_done + 1

    def test_completion_callbacks_fire_in_completion_order(self):
        graph = _mesh()
        seen = []
        jobs = [
            Job(
                f"s{k}", _bf_algorithms(graph, k), rng=k,
                on_complete=lambda o: seen.append(o.job_id),
            )
            for k in range(3)
        ]
        result = JobScheduler(graph, max_inflight=1).run(jobs)
        assert seen == ["s0", "s1", "s2"]
        assert list(result.outcomes) == seen

    def test_call_jobs_run_atomically_at_admission(self):
        from repro.congest.stats import RoundStats

        graph = nx.path_graph(3)
        result = JobScheduler(graph, max_inflight=1).run([
            Job("pop", _bf_algorithms(graph, 0), rng=0),
            Job("call", call=lambda: ({"x": 1}, RoundStats(rounds=4, messages=2))),
        ])
        call_outcome = result.outcomes["call"]
        assert call_outcome.results == {"x": 1}
        assert call_outcome.stats.rounds == 4
        assert call_outcome.admitted_tick == call_outcome.completed_tick
        assert result.stats.jobs["call"].messages == 2

    def test_call_job_must_return_round_stats(self):
        with pytest.raises(CongestViolation, match="RoundStats"):
            JobScheduler(nx.path_graph(2)).run(
                [Job("bad", call=lambda: (1, "not stats"))]
            )

    def test_duplicate_job_ids_rejected(self):
        graph = nx.path_graph(2)
        with pytest.raises(CongestViolation, match="duplicate"):
            JobScheduler(graph).run([
                Job("same", _bf_algorithms(graph, 0)),
                Job("same", _bf_algorithms(graph, 1)),
            ])

    def test_job_must_be_population_or_call(self):
        with pytest.raises(CongestViolation, match="exactly one"):
            Job("neither")
        with pytest.raises(CongestViolation, match="exactly one"):
            Job("both", {0: _AlarmClock(0, 0)}, call=lambda: None)

    def test_timeout_completes_with_status_and_frees_the_slot(self):
        graph = nx.path_graph(2)
        result = JobScheduler(graph, max_inflight=1).run([
            Job(
                "stuck", {v: _Immortal() for v in graph.nodes()},
                max_rounds=10, raise_on_timeout=False,
            ),
            Job("after", _bf_algorithms(graph, 0), rng=2),
        ])
        assert result.outcomes["stuck"].status == "timeout"
        assert result.outcomes["stuck"].stats.rounds == 10
        assert result.outcomes["after"].status == "completed"
        assert result.outcomes["after"].admitted_tick > 10

    def test_timeout_raises_by_default(self):
        graph = nx.path_graph(2)
        with pytest.raises(CongestViolation, match="did not quiesce"):
            JobScheduler(graph).run([
                Job("stuck", {v: _Immortal() for v in graph.nodes()}, max_rounds=5)
            ])


class TestValidation:
    def test_unknown_mode_rejected(self):
        for scheduler in ("dense", "async"):
            with pytest.raises(ValueError, match="virtual-clock backend: event$"):
                JobScheduler(nx.path_graph(2), scheduler=scheduler)

    def test_empty_graph_rejected(self):
        with pytest.raises(GraphStructureError, match="empty"):
            JobScheduler(nx.Graph())

    def test_max_inflight_must_be_positive(self):
        for max_inflight in (0, 2.5, True):
            for make in (JobScheduler, JobServer):
                with pytest.raises(ValueError, match="max_inflight"):
                    make(nx.path_graph(2), max_inflight=max_inflight)

    def test_empty_job_list_is_a_noop(self):
        result = JobScheduler(nx.path_graph(2)).run([])
        assert result.outcomes == {}
        assert result.stats.rounds == 0


class TestContendedSchedulePin:
    """Exact multi-tenant schedules under contention, captured as golden.

    The fairness tests above bound shares and assert ``stalls > 0``; this
    pins the schedule itself: five Bellman-Ford tenants, three ping-pong
    jobs on edges the floods cross, and one flood that times out with
    sends still queued (``raise_on_timeout=False``), on a 6x6 mesh. Per
    job it pins the admitted and completed ticks, status, rounds,
    ``arbitration_stalls``, virtual time, sorted ``edge_messages`` and
    results, so a change to the edge resolution order, the round-robin
    pointer, stall accounting, or the shared link schedule's grant order
    moves it. Each value is ``(total stalls, makespan, digest)``. The keys'
    third field is the edge capacity, fixed at 1 message per tick since
    the job layer grants exactly that; it stays in the keys so the
    parametrized test ids stay stable.
    """

    PINS = {
        ('event', None, 1, None): (202, 27, '2190fb7040e8fe1f'),
        ('event', None, 1, 3): (31, 52, '9c63e0f7c3d93e8c'),
        ('event', 'seeded-jitter', 1, None): (37, 116, '833d0220bc1909f1'),
        ('event', 'seeded-jitter', 1, 3): (8, 158, '46bb1e24f9c7a921'),
        ('event', 'contention:1.0', 1, None): (146, 35, '62815742219de008'),
        ('event', 'contention:1.0', 1, 3): (32, 55, '2962ba5bbb4e9f77'),
    }

    @staticmethod
    def _jobs(graph):
        jobs = [
            Job("late", _bf_algorithms(graph, 21), rng=7, max_rounds=5,
                raise_on_timeout=False)
        ]
        for k, source in enumerate((0, 35, 14, 5, 30)):
            jobs.append(Job(f"bf{source}", _bf_algorithms(graph, source), rng=k))
            if k < 3:
                u, v = ((14, 15), (20, 21), (0, 1))[k]
                jobs.append(Job(
                    f"pp{u}", {u: _PingPong(u, v, 12), v: _PingPong(v, u, 12)},
                    rng=10 + k,
                ))
        return jobs

    @pytest.mark.parametrize("mode, model, capacity, max_inflight", list(PINS))
    def test_schedule_matches_pin(self, mode, model, capacity, max_inflight):
        graph = nx.convert_node_labels_to_integers(
            nx.grid_2d_graph(6, 6), ordering="sorted"
        )
        result = JobScheduler(
            graph, scheduler=mode, latency_model=model, max_inflight=max_inflight,
        ).run(self._jobs(graph))
        per_job = [
            (o.job_id, o.admitted_tick, o.completed_tick, o.status, o.stats.rounds,
             o.stats.arbitration_stalls, o.stats.virtual_time,
             sorted(o.stats.edge_messages.items()), sorted(o.results.items()))
            for o in result.outcomes.values()
        ]
        digest = hashlib.sha256(repr(per_job).encode()).hexdigest()[:16]
        assert (result.stats.arbitration_stalls, result.stats.rounds, digest) == (
            self.PINS[(mode, model, capacity, max_inflight)]
        )
        result.stats.check()
