"""Provider-registry equivalence suite.

The ShortcutProvider redesign must be a pure refactor of the construction
dispatch: for every app and every provider arm, the outputs — down to the
measured round/message accounting — must be byte-identical to the
pre-redesign code paths. The expected values in
``tests/data/golden_pre_redesign.json`` were captured by running the
original ``apps/mst.py:_build_shortcut`` / ``apps/partwise.py:
_construct_shortcut`` / ``apps/connectivity.py:_phase_shortcut``
dispatchers on the seeded instances below, immediately before they were
deleted. The golden keys keep the ``<method>-<construction>`` spelling of
that time; ``PROVIDER`` maps each to the provider that runs it now.

One amendment: when the sweep became ack-driven (PR 5), the
``theorem31-simulated`` arms' *measured stats* were re-pinned to the new
pipeline — its functional outputs (MST edges/weight, partwise values,
connectivity labels) were verified byte-identical to the pre-redesign
goldens at re-pin time (the ack protocol computes the same marking, it
just stops counting rounds to know when it is done), so those fields still
carry the original captured values.

A second amendment: the min-cut evaluation pass charges one message per
tree edge of each packed tree (``n - 1``; it charged ``n`` before, with no
edge or round attributed), so ``mincut/default``'s ``messages`` dropped by
one per packed tree. Its cut, side and rounds are unchanged.

A third amendment: a simulated query now measures one BFS tree and learns
its depth once (the Borůvka loop passes the tree of its first shortcut
phase to every later phase, and a construction on a given tree skips the
depth convergecast), and each Observation 2.7 iteration sends
``(seed, c, τ)`` as one pipelined broadcast instead of three. The
``theorem31-simulated`` arms' *measured stats* were re-pinned to the new
model: MST ``rounds`` 74 → 56, ``messages`` 2594 → 1945, ``message_bits``
15674 → 11962 and ``phase_rounds``; partwise ``construction_rounds``
97 → 67 and ``total_rounds`` 125 → 95; connectivity ``rounds`` 96 → 70.
Their functional outputs (MST edges/weight/phases, partwise values,
connectivity labels) were verified byte-identical to the pre-redesign
goldens at re-pin time and still carry the original captured values.

A fourth amendment: a Borůvka phase whose parts are all single nodes
(phase 0) charges only its exchange round; it builds no shortcut and runs
no aggregation, so it draws nothing from the rng and every later phase's
delays shift. Re-pinned: MST ``rounds`` 14 → 13 (centralized), 56 → 35
(simulated) and 28 → 24 (baseline), with ``phase_rounds``; the simulated
MST's ``messages`` 1945 → 1741 and ``message_bits`` 11962 → 10457 (phase
0's construction is gone); connectivity ``rounds`` 70 → 1 (simulated) and
16 → 1 (baseline), and the simulated ``messages`` 706 → 152 (its only
phase is the singleton one); min cut ``rounds`` 255 → 253. Every
functional output and phase count, and every other counter, is
unchanged.

The suite also pins the cache contract: a second identical request returns
the memoized shortcut object with the memoized (not accumulated) stats,
and MST runs sharing fragment collections (the min-cut tree packing)
reuse shortcuts instead of rebuilding them.
"""

import json
import pathlib

import pytest

from repro.apps.connectivity import subgraph_components
from repro.apps.mincut import distributed_mincut
from repro.apps.mst import assign_random_weights, distributed_mst
from repro.apps.partwise import solve_partwise_aggregation
from repro.core.providers import (
    ShortcutRequest,
    build_shortcut,
    clear_shortcut_cache,
    shortcut_cache_info,
)
from repro.graphs.adjacency import canonical_edge
from repro.graphs.generators import grid_graph, k_tree
from repro.graphs.partition import voronoi_partition

GOLDEN = json.loads(
    (pathlib.Path(__file__).parent.parent / "data" / "golden_pre_redesign.json").read_text()
)

PROVIDER = {
    "theorem31-centralized": "theorem31-centralized",
    "theorem31-simulated": "theorem31-simulated",
    "baseline-centralized": "baseline",
    "none-centralized": "none",
}
MST_ARMS = ["theorem31-centralized", "theorem31-simulated", "baseline-centralized"]


class TestByteIdentity:
    """New registry == old private dispatchers, bit for bit."""

    @pytest.mark.parametrize("arm", MST_ARMS)
    def test_mst_matches_pre_redesign(self, arm):
        graph = k_tree(48, 3, rng=11)
        weights = assign_random_weights(graph, rng=12)
        result = distributed_mst(graph, weights, provider=PROVIDER[arm], rng=13)
        expected = GOLDEN[f"mst/{arm}"]
        assert sorted(map(list, result.edges)) == expected["edges"]
        assert result.weight == expected["weight"]
        assert result.phases == expected["phases"]
        assert result.stats.rounds == expected["rounds"]
        assert result.stats.messages == expected["messages"]
        assert result.stats.message_bits == expected["message_bits"]
        assert result.phase_rounds == expected["phase_rounds"]

    @pytest.mark.parametrize("arm", [*MST_ARMS, "none-centralized"])
    def test_partwise_matches_pre_redesign(self, arm):
        graph = grid_graph(9, 9)
        partition = voronoi_partition(graph, 7, rng=21)
        solution = solve_partwise_aggregation(
            graph, partition, {v: v for v in graph.nodes()}, min,
            provider=PROVIDER[arm], rng=22,
        )
        expected = GOLDEN[f"partwise/{arm}"]
        assert {str(k): v for k, v in solution.values.items()} == expected["values"]
        assert solution.construction_stats.rounds == expected["construction_rounds"]
        assert solution.aggregation_stats.rounds == expected["aggregation_rounds"]
        assert solution.aggregation_stats.messages == expected["aggregation_messages"]
        assert solution.total_rounds == expected["total_rounds"]

    @pytest.mark.parametrize("arm", MST_ARMS)
    def test_connectivity_matches_pre_redesign(self, arm):
        graph = grid_graph(8, 8)
        sub = {canonical_edge(u, v) for u, v in graph.edges() if (u + v) % 3 != 0}
        result = subgraph_components(graph, sub, provider=PROVIDER[arm], rng=31)
        expected = GOLDEN[f"connectivity/{arm}"]
        assert {str(k): v for k, v in result.labels.items()} == expected["labels"]
        assert result.num_components == expected["num_components"]
        assert result.phases == expected["phases"]
        assert result.stats.rounds == expected["rounds"]
        assert result.stats.messages == expected["messages"]

    def test_mincut_matches_pre_redesign(self):
        # Exercises the repeated-MST path of the tree packing — totals
        # must still match the rebuild-every-time original.
        graph = grid_graph(5, 5)
        result = distributed_mincut(graph, delta=3.0, rng=41)
        expected = GOLDEN["mincut/default"]
        assert result.value == expected["value"]
        assert sorted(result.side) == expected["side"]
        assert result.trees_packed == expected["trees_packed"]
        assert result.stats.rounds == expected["rounds"]
        assert result.stats.messages == expected["messages"]

    @pytest.mark.parametrize("construction", ["centralized", "simulated"])
    def test_construction_shorthand_equals_provider_spelling(self, construction):
        graph = k_tree(48, 3, rng=11)
        weights = assign_random_weights(graph, rng=12)
        via_construction = distributed_mst(
            graph, weights, construction=construction, rng=13
        )
        via_provider = distributed_mst(
            graph, weights, provider=f"theorem31-{construction}", rng=13
        )
        expected = GOLDEN[f"mst/theorem31-{construction}"]
        for result in (via_construction, via_provider):
            assert sorted(map(list, result.edges)) == expected["edges"]
            assert result.stats.rounds == expected["rounds"]
            assert result.stats.messages == expected["messages"]
            assert result.phase_rounds == expected["phase_rounds"]


class TestCacheReuse:
    def test_second_request_returns_memoized_shortcut(self):
        clear_shortcut_cache()
        graph = grid_graph(7, 7)
        partition = voronoi_partition(graph, 5, rng=2)
        request = ShortcutRequest(graph=graph, partition=partition, delta=3.0)
        first = build_shortcut(request)
        second = build_shortcut(
            ShortcutRequest(graph=graph, partition=partition, delta=3.0)
        )
        assert not first.provenance.cache_hit
        assert second.provenance.cache_hit
        assert second.shortcut is first.shortcut
        assert second.tree is first.tree
        # Stats are the memoized charge, not an accumulation of both calls.
        assert second.stats.rounds == first.stats.rounds
        assert second.stats.messages == first.stats.messages

    def test_quality_measured_once_across_hits(self):
        clear_shortcut_cache()
        graph = grid_graph(6, 6)
        partition = voronoi_partition(graph, 4, rng=3)
        first = build_shortcut(ShortcutRequest(graph=graph, partition=partition, delta=3.0))
        quality = first.quality()
        second = build_shortcut(ShortcutRequest(graph=graph, partition=partition, delta=3.0))
        assert second.quality() is quality

    def test_mst_phases_reuse_shortcuts_across_runs(self):
        # The min-cut tree packing re-runs Boruvka on the same graph; every
        # phase whose fragment collection recurs must come from the cache,
        # not a rebuild. The all-singleton phase 0 builds no shortcut, so
        # it looks nothing up.
        clear_shortcut_cache()
        graph = grid_graph(6, 6)
        weights = assign_random_weights(graph, rng=4)
        first = distributed_mst(graph, weights, rng=5)
        after_first = shortcut_cache_info()
        assert after_first["hits"] == 0
        assert after_first["misses"] == first.phases - 1
        second = distributed_mst(graph, weights, rng=5)
        after_second = shortcut_cache_info()
        assert after_second["hits"] == first.phases - 1
        assert after_second["misses"] == after_first["misses"]
        assert second.edges == first.edges
        assert second.stats.rounds == first.stats.rounds

    def test_rng_consuming_provider_is_never_cached(self):
        clear_shortcut_cache()
        graph = grid_graph(5, 5)
        partition = voronoi_partition(graph, 4, rng=6)
        for _ in range(2):
            outcome = build_shortcut(
                ShortcutRequest(
                    graph=graph, partition=partition,
                    provider="theorem31-simulated", delta=3.0, rng=7,
                )
            )
            assert not outcome.provenance.cache_hit
        assert shortcut_cache_info()["hits"] == 0

    def test_lru_eviction_releases_graphs(self, monkeypatch):
        # The outcome cache holds strong graph references (the entries
        # *are* shortcuts over those graphs), so eviction — not weakness —
        # is what bounds memory: once an entry falls out of the LRU and the
        # caller drops the graph, the graph must be collectable.
        import gc
        import weakref

        from repro.core import providers

        clear_shortcut_cache()
        monkeypatch.setattr(providers, "_CACHE_MAX_ENTRIES", 2)
        refs = []
        for seed in range(4):
            graph = grid_graph(4, 4)
            partition = voronoi_partition(graph, 3, rng=seed)
            build_shortcut(
                ShortcutRequest(graph=graph, partition=partition, provider="baseline")
            )
            refs.append(weakref.ref(graph))
            del graph, partition
        assert shortcut_cache_info()["entries"] == 2
        gc.collect()
        dead = sum(1 for ref in refs if ref() is None)
        assert dead >= 2, "evicted graphs were not released"

    def test_cached_stats_are_isolated_from_caller_mutation(self):
        clear_shortcut_cache()
        graph = grid_graph(6, 6)
        partition = voronoi_partition(graph, 4, rng=8)
        request = ShortcutRequest(graph=graph, partition=partition, provider="baseline")
        first = build_shortcut(request)
        first.stats.rounds += 1000  # caller scribbles on its copy
        second = build_shortcut(
            ShortcutRequest(graph=graph, partition=partition, provider="baseline")
        )
        assert second.stats.rounds == first.stats.rounds - 1000

    def test_cached_virtual_time_counters_are_isolated(self):
        # Mirrors test_cached_stats_are_isolated_from_caller_mutation for
        # the wall-model counters (latency-model runs): scribbling
        # on a returned outcome's virtual_time/completion_times must never
        # reach the cache entry.
        clear_shortcut_cache()
        graph = grid_graph(6, 6)
        partition = voronoi_partition(graph, 4, rng=8)
        first = build_shortcut(
            ShortcutRequest(graph=graph, partition=partition, provider="baseline")
        )
        first.stats.virtual_time += 500
        first.stats.completion_times[0] = 123
        second = build_shortcut(
            ShortcutRequest(graph=graph, partition=partition, provider="baseline")
        )
        assert second.provenance.cache_hit
        assert second.stats.virtual_time == first.stats.virtual_time - 500
        assert 0 not in second.stats.completion_times

    def test_cached_provenance_is_isolated_from_caller_mutation(self):
        clear_shortcut_cache()
        graph = grid_graph(6, 6)
        partition = voronoi_partition(graph, 4, rng=8)
        first = build_shortcut(
            ShortcutRequest(graph=graph, partition=partition, delta=3.0)
        )
        first.provenance.details["full_result"] = None  # caller scribbles
        first.provenance.iterations = 99
        second = build_shortcut(
            ShortcutRequest(graph=graph, partition=partition, delta=3.0)
        )
        assert second.provenance.details["full_result"] is not None
        assert second.provenance.iterations == 1

    def test_graph_mutation_invalidates_cache(self):
        # The cache is keyed by a per-graph token that networkx drops on
        # every structural mutation: a topology edit must miss instead of
        # serving a shortcut for the old graph.
        clear_shortcut_cache()
        graph = grid_graph(6, 6)
        partition = voronoi_partition(graph, 4, rng=2)
        first = build_shortcut(
            ShortcutRequest(graph=graph, partition=partition, provider="baseline")
        )
        edge = next(
            (u, v) for u, v in graph.edges()
            if (first.tree.parent_of(u) != v and first.tree.parent_of(v) != u)
        )
        graph.remove_edge(*edge)
        second = build_shortcut(
            ShortcutRequest(graph=graph, partition=partition, provider="baseline")
        )
        assert not second.provenance.cache_hit
        assert second.tree is not first.tree  # resolve_tree also re-resolved
