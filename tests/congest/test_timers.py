"""Tests for the ``ctx.schedule_wake`` engine hook.

The contract (see :meth:`repro.congest.engine.NodeContext.schedule_wake`):

* the timer-native backend (``event``, with or without a latency model)
  activates a scheduled
  node exactly at its wake round — fast-forwarding the clock over empty
  rounds when only timers remain — while the degrade backend (``dense``)
  keeps the node schedulable every round until the wake fires;
* results, round counts, and message counts are byte-identical across the
  backends for conforming algorithms (early wakes are no-ops); only
  activations differ — the event backend pays one activation per fire
  where the degrade backend pays one per round;
* timers persist across message wakes, re-arming takes the earliest wake,
  a fired timer is cleared, and quiescence accounts for pending timers.
"""

import networkx as nx
import pytest

from repro.congest import NodeAlgorithm, SyncNetwork
from repro.congest.engine import available_schedulers
from repro.util.errors import CongestViolation

# Arm -> SyncNetwork keywords: every registered backend, plus ``event``
# under the explicit (lockstep) ``uniform`` model.
BACKENDS = {name: {"scheduler": name} for name in available_schedulers()}
BACKENDS["event-uniform"] = {"scheduler": "event", "latency_model": "uniform"}


class _AlarmClock(NodeAlgorithm):
    """Schedules one wake ``delay`` rounds out, then sends a ping."""

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
            return {neighbor: (1,) for neighbor in ctx.neighbors}
        return {}

    def result(self):
        return self.fired_round


class _Metronome(NodeAlgorithm):
    """Re-schedules itself ``beats`` times at a fixed ``period``."""

    def __init__(self, node, period, beats):
        self.node = node
        self.period = period
        self.beats = beats
        self.ticks = []

    def on_start(self, ctx):
        if self.beats:
            ctx.schedule_wake(self.period)
        return {}

    def on_round(self, ctx, inbox):
        if len(self.ticks) < self.beats and ctx.round >= (
            (len(self.ticks) + 1) * self.period
        ):
            self.ticks.append(ctx.round)
            if len(self.ticks) < self.beats:
                ctx.schedule_wake(self.period)
        return {}

    def result(self):
        return tuple(self.ticks)


class _StreamSender(NodeAlgorithm):
    """Node 0 streams ``count`` items to node 1, one per round, paced by
    ``schedule_wake(1)`` — the ack-driven algorithms' only timer use."""

    def __init__(self, node, count):
        self.node = node
        self.remaining = count
        self.received = []

    def _emit(self, ctx):
        if self.node != 0 or not self.remaining:
            return {}
        self.remaining -= 1
        if self.remaining:
            ctx.schedule_wake(1)
        return {1: (self.remaining,)}

    def on_start(self, ctx):
        return self._emit(ctx)

    def on_round(self, ctx, inbox):
        for payload in inbox.values():
            self.received.append((ctx.round, payload[0]))
        return self._emit(ctx)

    def result(self):
        return tuple(self.received)


class TestTimerSemantics:
    @pytest.mark.parametrize("arm", BACKENDS)
    def test_single_wake_fires_at_exact_round(self, arm):
        graph = nx.path_graph(3)
        network = SyncNetwork(graph, **BACKENDS[arm])
        algorithms = {v: _AlarmClock(v, 5 if v == 1 else 0) for v in graph}
        results, stats = network.run(algorithms)
        assert results[1] == 5
        # The ping sent at round 5 is delivered in round 6.
        assert stats.rounds == 6
        assert stats.messages == 2

    def test_event_backend_fast_forwards_over_idle_rounds(self):
        graph = nx.path_graph(2)
        network = SyncNetwork(graph, scheduler="event")
        algorithms = {v: _AlarmClock(v, 40 if v == 0 else 0) for v in graph}
        _, stats = network.run(algorithms)
        assert stats.rounds == 41
        # One activation for the fire, one for the delivery: no polling.
        assert stats.activations == 2

    def test_degrade_backends_poll_but_agree_on_everything_else(self):
        graph = nx.path_graph(2)
        outcomes = {}
        for arm, run in BACKENDS.items():
            network = SyncNetwork(graph, **run)
            algorithms = {v: _AlarmClock(v, 7 if v == 0 else 0) for v in graph}
            results, stats = network.run(algorithms)
            outcomes[arm] = (
                dict(results), stats.rounds, stats.messages, stats.message_bits,
            )
        reference = outcomes["event"]
        for arm, outcome in outcomes.items():
            assert outcome == reference, arm

    @pytest.mark.parametrize("arm", BACKENDS)
    def test_rearmed_timer_fires_repeatedly(self, arm):
        graph = nx.path_graph(2)
        network = SyncNetwork(graph, **BACKENDS[arm])
        algorithms = {v: _Metronome(v, 3, 4 if v == 0 else 0) for v in graph}
        results, stats = network.run(algorithms)
        assert results[0] == (3, 6, 9, 12)
        assert stats.rounds == 12

    @pytest.mark.parametrize("arm", BACKENDS)
    def test_stream_pacing_delivers_one_item_per_round(self, arm):
        graph = nx.path_graph(2)
        network = SyncNetwork(graph, **BACKENDS[arm])
        algorithms = {v: _StreamSender(v, 4) for v in graph}
        results, stats = network.run(algorithms)
        # Items sent in rounds 0..3 arrive in rounds 1..4, in order.
        assert results[1] == ((1, 3), (2, 2), (3, 1), (4, 0))
        assert stats.rounds == 4
        assert stats.messages == 4

    def test_earlier_reschedule_wins_and_later_entry_goes_stale(self):
        class Reschedule(NodeAlgorithm):
            def __init__(self):
                self.fired = []

            def on_start(self, ctx):
                ctx.schedule_wake(9)
                ctx.schedule_wake(3)  # min wins
                return {}

            def on_round(self, ctx, inbox):
                self.fired.append(ctx.round)
                return {}

        graph = nx.path_graph(2)
        for model in (None, "uniform"):
            network = SyncNetwork(graph, latency_model=model)
            algorithms = {v: Reschedule() for v in graph}
            _, stats = network.run(algorithms)
            assert algorithms[0].fired == [3]
            # The stale round-9 bucket must not count as a round.
            assert stats.rounds == 3

    def test_timer_persists_across_message_wakes(self):
        class Pinged(NodeAlgorithm):
            def __init__(self, node):
                self.node = node
                self.wakes = []

            def on_start(self, ctx):
                if self.node == 0:
                    ctx.schedule_wake(6)
                    return {1: (1,)}
                return {}

            def on_round(self, ctx, inbox):
                self.wakes.append((ctx.round, bool(inbox)))
                if self.node == 1 and inbox:
                    return {0: (2,)}  # wakes node 0 at round 2, mid-timer
                return {}

        graph = nx.path_graph(2)
        network = SyncNetwork(graph, scheduler="event")
        algorithms = {v: Pinged(v) for v in graph}
        _, stats = network.run(algorithms)
        # Node 0: message wake at 2, then the persistent timer fires at 6.
        assert algorithms[0].wakes == [(2, True), (6, False)]
        assert stats.rounds == 6

    @pytest.mark.parametrize("arm", BACKENDS)
    def test_pending_timer_past_bound_times_out(self, arm):
        class FarFuture(NodeAlgorithm):
            def on_start(self, ctx):
                ctx.schedule_wake(100)
                return {}

            def on_round(self, ctx, inbox):
                return {}

        graph = nx.path_graph(2)
        network = SyncNetwork(graph, **BACKENDS[arm])
        with pytest.raises(CongestViolation):
            network.run({v: FarFuture() for v in graph}, max_rounds=10)
        network = SyncNetwork(graph, **BACKENDS[arm])
        _, stats = network.run(
            {v: FarFuture() for v in graph}, max_rounds=10, raise_on_timeout=False
        )
        # All backends report the clock bound, like the lockstep loop that
        # executes every empty round up to it.
        assert stats.rounds == 10

    def test_nonpositive_delay_rejected(self):
        class Bad(NodeAlgorithm):
            def on_start(self, ctx):
                ctx.schedule_wake(0)
                return {}

            def on_round(self, ctx, inbox):
                return {}

        graph = nx.path_graph(2)
        network = SyncNetwork(graph, scheduler="event")
        with pytest.raises(CongestViolation):
            network.run({v: Bad() for v in graph})

    def test_wake_under_latency_model_uses_virtual_ticks(self):
        class Alarm(NodeAlgorithm):
            def __init__(self):
                self.fired = None

            def on_start(self, ctx):
                ctx.schedule_wake(4)
                return {}

            def on_round(self, ctx, inbox):
                if self.fired is None:
                    self.fired = ctx.round
                return {}

        graph = nx.path_graph(2)
        network = SyncNetwork(graph, rng=3, latency_model="seeded-jitter")
        algorithms = {v: Alarm() for v in graph}
        _, stats = network.run(algorithms)
        assert algorithms[0].fired == 4
        assert stats.virtual_time == 4
