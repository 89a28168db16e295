"""The load-dependent latency models: contracts, physics, error paths.

The static models' registry behavior lives in
``tests/congest/test_async.py``; this module covers what PR 9 added —
the capability split (``is_dynamic``), the ``LinkSchedule`` in-flight
accounting, and the ``contention`` / ``heavy-tailed`` parameter
validation, each raising the uniform registry-style message through
whichever API boundary it crosses.
"""

import math

import pytest

from repro.congest.asynchronous import (
    ContentionLatency,
    HeavyTailedLatency,
    LinkSchedule,
    resolve_latency_model,
)
from repro.congest.network import SyncNetwork
from repro.congest.primitives.bfs import distributed_bfs
from repro.graphs.generators import cycle_graph, fat_tree, grid_graph
from repro.util.errors import CongestViolation


class TestCapabilitySplit:
    def test_static_models_refuse_schedule(self):
        with pytest.raises(CongestViolation, match="static"):
            HeavyTailedLatency().schedule(grid_graph(2, 2))

    def test_dynamic_models_refuse_build(self):
        with pytest.raises(CongestViolation, match="no static per-edge table"):
            ContentionLatency().build(grid_graph(2, 2), run_seed=1)

    def test_heavy_tailed_is_static_and_seeded(self):
        graph = grid_graph(3, 3)
        model = HeavyTailedLatency()
        assert model.is_dynamic is False
        table = model.build(graph, run_seed=5)
        assert table == model.build(graph, run_seed=5)
        assert all(1 <= lat <= model.cap for lat in table.values())
        # Symmetric per edge, and a different seed moves at least one.
        assert all(table[(u, v)] == table[(v, u)] for (u, v) in table)
        assert table != model.build(graph, run_seed=6)


class TestParameterValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"alpha": 0}, {"scale": 0}, {"cap": 0}, {"alpha": -1.5},
            {"alpha": math.nan}, {"alpha": math.inf},
        ],
    )
    def test_heavy_tailed_rejects_bad_parameters(self, kwargs):
        with pytest.raises(CongestViolation, match="heavy-tailed"):
            HeavyTailedLatency(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [{"base": 0}, {"weight": -0.5}, {"weight": math.nan}, {"weight": math.inf}],
    )
    def test_contention_rejects_bad_parameters(self, kwargs):
        with pytest.raises(CongestViolation, match="contention"):
            ContentionLatency(**kwargs)

    @pytest.mark.parametrize("weight", ["nan", "inf", "-inf"])
    def test_non_finite_spec_fails_at_the_network_boundary(self, weight):
        # Before the run, as one ValueError line — not a float-to-int
        # conversion error on the first send.
        with pytest.raises(ValueError, match="finite") as info:
            SyncNetwork(grid_graph(2, 2), latency_model=f"contention:{weight}")
        assert info.type is ValueError
        assert "\n" not in str(info.value)

    def test_contention_spec_parses_weight(self):
        model = resolve_latency_model("contention:2.5")
        assert model.weight == 2.5

    def test_contention_spec_rejects_non_number(self):
        with pytest.raises(ValueError, match="not a number"):
            resolve_latency_model("contention:fast")

    def test_spec_errors_use_the_boundary_exception(self):
        # The caller's boundary type, not a bare CongestViolation.
        with pytest.raises(KeyError, match="not a number"):
            resolve_latency_model("contention:fast", exc=KeyError)


class TestLinkSchedule:
    def test_inflight_counts_are_per_undirected_link(self):
        schedule = LinkSchedule(ContentionLatency(weight=1.0))
        # First message on the idle 0-1 link: transit 1 (inflight 0).
        assert schedule.transit(0, 1, 0) == 1
        # Opposite direction, same tick: the link now carries one message.
        assert schedule.transit(1, 0, 0) == 2
        # A different link is unaffected.
        assert schedule.transit(2, 3, 0) == 1

    def test_releases_drain_as_time_advances(self):
        schedule = LinkSchedule(ContentionLatency(weight=1.0))
        schedule.transit(0, 1, 0)          # occupies 0-1 until tick 1
        assert schedule.load(0, 1, 0) == 1
        assert schedule.load(0, 1, 1) == 0
        assert schedule.transit(0, 1, 5) == 1

    def test_transit_below_one_is_rejected(self):
        class Broken(ContentionLatency):
            def transit_time(self, u, v, tick, inflight):
                return 0

        with pytest.raises(CongestViolation, match="transit"):
            LinkSchedule(Broken()).transit(0, 1, 0)

    def test_worst_transit_bounds(self):
        model = ContentionLatency(base=2, weight=0.5)
        assert model.worst_transit(0) == 2
        assert model.worst_transit(4) == 6
        assert model.transit_time(0, 1, 0, 4) <= model.worst_transit(4)


class TestContentionPhysics:
    def test_zero_weight_is_lockstep(self):
        graph = fat_tree(4)
        lockstep, lockstep_stats = distributed_bfs(graph, 0, rng=2)
        loaded, loaded_stats = distributed_bfs(
            graph, 0, rng=2, latency_model="contention:0.0"
        )
        assert lockstep_stats.rounds == loaded_stats.rounds
        assert all(
            lockstep.parent_of(v) == loaded.parent_of(v) for v in graph
        )

    def test_load_costs_time_and_replays_identically(self):
        # An odd cycle forces a same-tick bidirectional exchange on the
        # antipodal link — the smallest workload where in-flight load is
        # nonzero — so contention must stretch virtual time.
        graph = cycle_graph(5)
        idle = distributed_bfs(
            graph, 0, rng=2, latency_model="contention:0.0"
        )[1]
        runs = [
            distributed_bfs(
                graph, 0, rng=2, latency_model="contention:2.0"
            )[1]
            for _ in range(2)
        ]
        assert runs[0] == runs[1]
        assert runs[0].virtual_time > idle.virtual_time

