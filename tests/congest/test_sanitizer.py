"""Runtime conformance sanitizer: the dynamic twin of ``repro lint``.

``SyncNetwork(..., sanitize=True)`` (or ``REPRO_SANITIZE=1``) makes the
degrade backend (``dense``) check the spurious-wake contract
of ``ctx.schedule_wake`` at every activation the timer-native backends
would never run: woken with an empty inbox before its readiness condition,
a node must not send, draw from ``ctx.rng``, change its state, or latch a
wake-up. Covered here:

* each violation clause raises :class:`CongestViolation` on ``dense``,
  naming the node and the clause;
* the timer-native backends are no-ops under the flag, by construction;
* every conforming primitive passes sanitized, byte-identical to the
  unsanitized run — the backend equivalence suite with the sanitizer
  enabled (the CI job re-runs the full suite under ``REPRO_SANITIZE=1``).
"""

import networkx as nx
import pytest

from repro.congest import NodeAlgorithm, SyncNetwork
from repro.util.errors import CongestViolation

class _FarTimer(NodeAlgorithm):
    """Conforming driver: schedules one wake far out, then stays silent.

    On the degrade backend this keeps the run alive for ``delay`` rounds,
    during which every other silent node is woken spuriously — the exact
    window the sanitizer patrols.
    """

    def __init__(self, delay=5):
        self.delay = delay

    def on_start(self, ctx):
        ctx.schedule_wake(self.delay)
        return {}

    def on_round(self, ctx, inbox):
        return {}


class _SpuriousSender(NodeAlgorithm):
    def on_round(self, ctx, inbox):
        if not inbox:
            return {neighbor: (1,) for neighbor in ctx.neighbors}
        return {}


class _SpuriousMutator(NodeAlgorithm):
    def __init__(self):
        self.wakes = []

    def on_round(self, ctx, inbox):
        if not inbox:
            self.wakes.append(len(self.wakes))
        return {}


class _SpuriousRngDraw(NodeAlgorithm):
    def on_round(self, ctx, inbox):
        if not inbox:
            ctx.rng.random()
        return {}


class _SpuriousLatcher(NodeAlgorithm):
    def on_round(self, ctx, inbox):
        if not inbox:
            ctx.keep_alive()
        return {}


class _SpuriousRearm(NodeAlgorithm):
    def on_round(self, ctx, inbox):
        if not inbox:
            ctx.schedule_wake(3)
        return {}


def _run_pair(violator, scheduler="dense", sanitize=True, latency_model=None, **run_kwargs):
    graph = nx.path_graph(2)
    network = SyncNetwork(
        graph, scheduler=scheduler, rng=1, sanitize=sanitize, latency_model=latency_model
    )
    return network.run({0: _FarTimer(5), 1: violator}, **run_kwargs)


class TestDenseViolations:
    @pytest.mark.parametrize("violator, clause", [
        (_SpuriousSender(), "sent 1 message"),
        (_SpuriousMutator(), "changed its state"),
        (_SpuriousRngDraw(), "drew from ctx.rng"),
        (_SpuriousLatcher(), "latched keep_alive"),
        (_SpuriousRearm(), "armed a new wake-up timer"),
    ])
    def test_each_clause_raises_named(self, violator, clause):
        with pytest.raises(CongestViolation) as excinfo:
            _run_pair(violator)
        message = str(excinfo.value)
        assert "spurious-wake contract violation at node 1" in message
        assert clause in message

    def test_sanitizer_is_opt_in(self):
        # The same non-conforming node runs unchecked without the flag —
        # the divergence it causes is exactly what the opt-in mode exists
        # to localize.
        results, stats = _run_pair(_SpuriousMutator(), sanitize=False)
        assert stats.rounds == 5

    def test_conforming_nodes_pass(self):
        results, stats = _run_pair(_FarTimer(3))
        assert stats.rounds == 5


class TestTimerNativeBackendsAreNoOps:
    @pytest.mark.parametrize(
        "model", [pytest.param(None, id="event"), pytest.param("uniform", id="event-uniform")]
    )
    def test_no_spurious_wakes_by_construction(self, model):
        # Even a non-conforming node cannot trip the sanitizer here: the
        # event backend only ever wakes a node with something to observe.
        results, stats = _run_pair(_SpuriousMutator(), scheduler="event", latency_model=model)
        assert stats.rounds == 5


class TestEnvDefault:
    def test_env_enables(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert SyncNetwork(nx.path_graph(2)).sanitize is True

    @pytest.mark.parametrize("value", ["", "0"])
    def test_env_off_values(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_SANITIZE", value)
        assert SyncNetwork(nx.path_graph(2)).sanitize is False

    def test_unset_defaults_off(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        assert SyncNetwork(nx.path_graph(2)).sanitize is False

    def test_explicit_flag_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert SyncNetwork(nx.path_graph(2), sanitize=False).sanitize is False


class TestSanitizedEquivalence:
    """The backend byte-equivalence contract holds with the sanitizer
    on: every shipped primitive is conforming, so sanitized runs are
    byte-identical to unsanitized ones on every backend."""

    BACKENDS = {
        "dense": {"scheduler": "dense"},
        "event": {"scheduler": "event"},
        "event-uniform": {"scheduler": "event", "latency_model": "uniform"},
    }

    def _projection(self, stats):
        return (stats.rounds, stats.messages, stats.message_bits)

    def test_distributed_shortcut_pipeline_sanitized(self, monkeypatch):
        from repro.core.distributed import distributed_partial_shortcut
        from repro.graphs.generators import grid_graph
        from repro.graphs.partition import grid_rows_partition

        graph = grid_graph(6, 6)
        partition = grid_rows_partition(graph)
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        plain = distributed_partial_shortcut(
            graph, partition, delta=3.0, rng=7, scheduler="dense"
        )
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        for arm, run in self.BACKENDS.items():
            sanitized = distributed_partial_shortcut(
                graph, partition, delta=3.0, rng=7, **run,
            )
            assert sanitized.overcongested == plain.overcongested, arm
            assert sanitized.satisfied == plain.satisfied, arm
            assert self._projection(sanitized.stats) == self._projection(
                plain.stats
            ), arm

    def test_primitives_sanitized_on_degrade_backends(self, monkeypatch):
        from repro.congest.primitives.bfs import distributed_bfs

        graph = nx.lollipop_graph(6, 9)
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        plain_tree, plain_bfs = distributed_bfs(graph, 0, rng=5, scheduler="dense")
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        got_tree, got_bfs = distributed_bfs(graph, 0, rng=5, scheduler="dense")
        assert {v: got_tree.parent_of(v) for v in got_tree.nodes()} == {
            v: plain_tree.parent_of(v) for v in plain_tree.nodes()
        }
        assert self._projection(got_bfs) == self._projection(plain_bfs)
