"""Tests for the vectorized columnar scheduler backend.

The backend byte-equivalence matrix lives in ``test_scheduler.py``;
this file covers the backend's own surface: the event-backend fallback
with its provenance note, RoundStats algebra over vectorized stats,
``sanitize=`` as a documented no-op, the unavailable-backend
registry path, the columnar bit accounting, CSR caching, and the
violation paths (non-neighbor, bandwidth).
"""

import dataclasses

import networkx as nx
import pytest

np = pytest.importorskip("numpy")

from repro.congest.engine import get_backend, register_unavailable_backend
from repro.congest.engine import _UNAVAILABLE
from repro.congest.network import SyncNetwork
from repro.congest.node import NodeAlgorithm
from repro.congest.primitives.bfs import BfsNode, distributed_bfs
from repro.congest.stats import RoundStats
from repro.congest.vectorized import NUMPY_HINT, VectorFabric, VectorInbox
from repro.core.distributed import SweepNode
from repro.graphs.adjacency import graph_csr
from repro.graphs.trees import RootedTree
from repro.util.bitsize import bits_for_int, payload_bits
from repro.util.errors import CongestViolation


class _Chatter(NodeAlgorithm):
    """Kernel-less: one ping along each edge, then silence."""

    def on_start(self, ctx):
        return {v: (1,) for v in ctx.neighbors}

    def on_wake(self, ctx, inbox):
        return {}


def _grid(w, h):
    return nx.convert_node_labels_to_integers(nx.grid_2d_graph(w, h))


def _proj(stats):
    return (
        stats.rounds, stats.messages, stats.message_bits, stats.activations,
        dict(stats.messages_by_round), dict(stats.edge_messages),
    )


class _BfsTwin(BfsNode):
    """A second kernel-backed class: inherits ``BfsNode.vector_kernel``."""


def _assert_delegates_like_event(graph, make, reason):
    """Both backends on fresh populations from ``make``: same results,
    same RoundStats but for the vectorized run's delegation note."""
    event = SyncNetwork(graph, rng=4, scheduler="event").run(make())
    vect = SyncNetwork(graph, rng=4, scheduler="vectorized").run(make())
    assert vect[0] == event[0]
    assert dataclasses.replace(vect[1], notes=()) == event[1]
    assert event[1].notes == ()
    assert vect[1].notes == (
        f"scheduler='vectorized' delegated to the event backend: {reason}",
    )


class TestFallback:
    def test_kernel_less_run_delegates_with_note(self):
        graph = nx.path_graph(5)
        event = SyncNetwork(graph, rng=0, scheduler="event").run(
            {v: _Chatter() for v in graph}
        )
        vect = SyncNetwork(graph, rng=0, scheduler="vectorized").run(
            {v: _Chatter() for v in graph}
        )
        assert event[0] == vect[0]
        assert _proj(event[1]) == _proj(vect[1])
        assert event[1].notes == ()
        assert vect[1].notes == (
            "scheduler='vectorized' delegated to the event backend: "
            "_Chatter declares no VectorKernel",
        )

    def test_kernel_refusal_delegates(self):
        # String node labels: BfsVectorKernel.accepts needs int ids.
        graph = nx.relabel_nodes(nx.path_graph(4), lambda v: f"n{v}")
        _, stats = distributed_bfs(graph, "n0", rng=1, scheduler="vectorized")
        assert any("BfsVectorKernel refused" in note for note in stats.notes)

    def test_native_run_has_no_notes(self):
        _, stats = distributed_bfs(_grid(4, 4), 0, rng=1, scheduler="vectorized")
        assert stats.notes == ()

    def test_sweep_population_delegates(self):
        # The sweep's nodes stream ids on timers, which no kernel expresses.
        graph = _grid(5, 4)
        tree = RootedTree(0, dict(nx.bfs_predecessors(graph, 0)) | {0: None})
        _assert_delegates_like_event(graph, lambda: {
            v: SweepNode(v, v % 3, tree.parent_of(v), tree.children_of(v),
                         tau=2, probability=1.0, seed=5)
            for v in graph
        }, "SweepNode declares no VectorKernel")

    def test_mixed_kernel_classes_delegate(self):
        # Both classes have a kernel, but one run executes one kernel.
        graph = _grid(4, 4)
        _assert_delegates_like_event(graph, lambda: {
            v: (BfsNode if v % 2 else _BfsTwin)(v, v == 0) for v in graph
        }, "the population mixes algorithm classes (BfsNode, _BfsTwin)")


class TestRoundStatsAlgebra:
    def _stats_pair(self):
        graph = nx.path_graph(6)
        _, fallback = SyncNetwork(graph, rng=0, scheduler="vectorized").run(
            {v: _Chatter() for v in graph}
        )
        _, native = distributed_bfs(_grid(3, 3), 0, rng=2, scheduler="vectorized")
        return fallback, native

    def test_add_sums_counters_and_unions_notes(self):
        fallback, native = self._stats_pair()
        combined = fallback + native
        assert combined.messages == fallback.messages + native.messages
        assert combined.message_bits == fallback.message_bits + native.message_bits
        assert combined.notes == fallback.notes  # native contributes none

    def test_merge_keeps_max_rounds(self):
        fallback, native = self._stats_pair()
        merged = fallback.merge(native)
        assert merged.rounds == max(fallback.rounds, native.rounds)
        assert merged.notes == fallback.notes

    def test_copy_isolates_counters_and_preserves_notes(self):
        fallback, _ = self._stats_pair()
        dup = fallback.copy()
        assert _proj(dup) == _proj(fallback) and dup.notes == fallback.notes
        dup.messages_by_round[999] = 1
        dup.edge_messages[("x", "y")] = 1
        assert 999 not in fallback.messages_by_round
        assert ("x", "y") not in fallback.edge_messages

    def test_add_phase_folds_notes(self):
        fallback, native = self._stats_pair()
        total = RoundStats()
        total.add_phase("a", native)
        total.add_phase("b", fallback)
        total.add_phase("c", fallback)  # duplicate note folds to one
        assert total.notes == fallback.notes


class TestNoOpKnobs:
    def test_sanitize_does_not_change_execution(self):
        graph = _grid(4, 3)
        baseline = distributed_bfs(graph, 0, rng=3, scheduler="vectorized")
        net = SyncNetwork(graph, rng=3, scheduler="vectorized", sanitize=True)
        results, stats = net.run({v: BfsNode(v, v == 0) for v in graph})
        assert _proj(stats) == _proj(baseline[1])
        assert {v: r["parent"] for v, r in results.items()} == {
            v: baseline[0].parent_of(v) for v in graph
        }


class TestRegistry:
    def test_unknown_scheduler_lists_vectorized(self):
        with pytest.raises(ValueError, match="vectorized"):
            get_backend("nope")

    def test_unavailable_backend_carries_install_hint(self):
        register_unavailable_backend("vectorized-stub", NUMPY_HINT)
        try:
            with pytest.raises(ValueError, match="pip install 'repro"):
                get_backend("vectorized-stub")
        finally:
            _UNAVAILABLE.pop("vectorized-stub", None)

    def test_latency_model_rejected_by_capability_flag(self):
        # Driven by supports_latency_models, not a name list: the message
        # names every capable backend (currently only event).
        with pytest.raises(ValueError, match="requires scheduler='event'"):
            SyncNetwork(_grid(2, 2), scheduler="vectorized",
                        latency_model="uniform")


class TestColumnarAccounting:
    def _fabric(self, graph):
        csr = graph_csr(graph)
        return csr, VectorFabric(
            csr, RoundStats(), run_seed=0, bandwidth_bits=32,
            enforce_bandwidth=True,
        )

    def test_int_bits_matches_bits_for_int(self):
        _, ops = self._fabric(nx.path_graph(3))
        values = [0, 1, -1, 2, -5, 31, 32, 1023, -(2**40), 2**52]
        got = ops.int_bits(np.array(values, dtype=np.int64))
        assert got.tolist() == [bits_for_int(v) for v in values]

    def test_tuple_bits_matches_payload_bits(self):
        _, ops = self._fabric(nx.path_graph(3))
        pairs = [(0, 0), (1, 7), (3, -200), (2, 1023)]
        tags = np.array([p[0] for p in pairs], dtype=np.int64)
        vals = np.array([p[1] for p in pairs], dtype=np.int64)
        got = ops.tuple_bits(tags, vals)
        assert got.tolist() == [payload_bits(p) for p in pairs]

    def test_emit_charges_stats_at_send_round(self):
        _, ops = self._fabric(nx.path_graph(3))
        ops.round = 4
        ops.emit(np.array([0]), np.array([1]), bits=7)
        assert ops.stats.messages == 1
        assert ops.stats.message_bits == 7
        assert ops.stats.messages_by_round == {4: 1}

    def test_non_neighbor_emission_raises(self):
        _, ops = self._fabric(nx.path_graph(4))
        with pytest.raises(CongestViolation, match="non-neighbor"):
            ops.emit(np.array([0]), np.array([3]), bits=1)

    def test_bandwidth_violation_scalar_and_array_bits(self):
        _, ops = self._fabric(nx.path_graph(3))
        with pytest.raises(CongestViolation, match="budget is 32 bits"):
            ops.emit(np.array([0]), np.array([1]), bits=33)
        with pytest.raises(CongestViolation, match="budget is 32 bits"):
            ops.emit(np.array([0, 1]), np.array([1, 2]),
                     bits=np.array([8, 40]))

    def test_inbox_orders_by_receiver_then_sender(self):
        src = np.array([3, 1, 2, 0], dtype=np.int64)
        dst = np.array([1, 1, 0, 1], dtype=np.int64)
        tag = np.zeros(4, dtype=np.int64)
        val = np.arange(4, dtype=np.int64)
        inbox = VectorInbox(src, dst, tag, val, None)
        assert inbox.dst.tolist() == [0, 1, 1, 1]
        assert inbox.src.tolist() == [2, 0, 1, 3]
        assert inbox.receivers.tolist() == [0, 1]
        assert inbox.starts.tolist() == [0, 1]
        assert inbox.counts.tolist() == [1, 3]


class TestCsrCache:
    def test_cache_hit_is_identity(self):
        graph = _grid(3, 3)
        assert graph_csr(graph) is graph_csr(graph)

    def test_mutation_invalidates(self):
        graph = _grid(3, 3)
        before = graph_csr(graph)
        graph.add_edge(0, 8)
        after = graph_csr(graph)
        assert after is not before
        assert after.indices.size == before.indices.size + 2

    def test_rewired_edge_with_same_counts_invalidates(self):
        # Same node and edge counts after the rewiring: only the edge set
        # tells the old CSR from the new one.
        graph = nx.path_graph(4)
        distributed_bfs(graph, 0, rng=1, scheduler="vectorized")
        graph.remove_edge(2, 3)
        graph.add_edge(0, 3)
        vect, _ = distributed_bfs(graph, 0, rng=1, scheduler="vectorized")
        event, _ = distributed_bfs(graph, 0, rng=1, scheduler="event")
        assert vect.parent_of(3) == event.parent_of(3) == 0

    def test_view_follows_its_graph(self):
        # A view's own networkx cache is not cleared when the graph under
        # it mutates, so a view's CSR must not be cached there.
        graph = nx.path_graph(5)
        view = graph.subgraph(range(4))
        distributed_bfs(view, 0, rng=1, scheduler="vectorized")
        graph.remove_edge(2, 3)
        graph.add_edge(0, 3)
        vect, _ = distributed_bfs(view, 0, rng=1, scheduler="vectorized")
        event, _ = distributed_bfs(view, 0, rng=1, scheduler="event")
        assert vect.parent_of(3) == event.parent_of(3) == 0

    def test_rows_sorted_and_flat_keys_strictly_increasing(self):
        csr = graph_csr(nx.lollipop_graph(5, 4))
        for i in range(csr.n):
            row = csr.indices[csr.indptr[i]:csr.indptr[i + 1]]
            assert row.tolist() == sorted(row.tolist())
        diffs = np.diff(csr.flat_keys)
        assert (diffs > 0).all()
