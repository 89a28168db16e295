"""Tests for the ShortcutProvider registry (the unified construction API)."""

import math
import re

import networkx as nx
import pytest

from repro.apps.connectivity import subgraph_components
from repro.apps.mincut import distributed_mincut
from repro.apps.mst import distributed_mst
from repro.apps.partwise import solve_partwise_aggregation, solve_partwise_multicast
from repro.core import providers
from repro.core.providers import (
    ShortcutOutcome,
    ShortcutProvenance,
    ShortcutProvider,
    ShortcutRequest,
    available_providers,
    build_shortcut,
    clear_shortcut_cache,
    get_provider,
    register_provider,
    resolve_delta,
    resolve_provider,
    resolve_tree,
    shortcut_cache_info,
)
from repro.graphs.adjacency import canonical_edge
from repro.graphs.generators import grid_graph, k_tree
from repro.graphs.partition import Partition, voronoi_partition
from repro.graphs.trees import bfs_tree
from repro.util.errors import ShortcutError

EXPECTED_PROVIDERS = (
    "baseline",
    "certifying",
    "greedy",
    "none",
    "theorem31-centralized",
    "theorem31-simulated",
)


class TestRegistry:
    def test_all_default_providers_registered(self):
        assert available_providers() == EXPECTED_PROVIDERS

    def test_get_provider_unknown_lists_registry(self):
        with pytest.raises(ShortcutError) as exc:
            get_provider("psychic")
        for name in EXPECTED_PROVIDERS:
            assert name in str(exc.value)

    def test_duplicate_registration_rejected(self):
        class Dup(ShortcutProvider):
            name = "baseline"

        with pytest.raises(ShortcutError):
            register_provider(Dup())

    def test_replace_existing_allows_override(self):
        original = get_provider("baseline")

        class Override(ShortcutProvider):
            name = "baseline"

        try:
            register_provider(Override(), replace_existing=True)
            assert isinstance(get_provider("baseline"), Override)
        finally:
            register_provider(original, replace_existing=True)

    @pytest.mark.parametrize(
        "provider,construction,expected",
        [
            (None, None, "theorem31-centralized"),
            (None, "centralized", "theorem31-centralized"),
            (None, "simulated", "theorem31-simulated"),
            ("baseline", None, "baseline"),
            ("none", None, "none"),
            ("theorem31-simulated", None, "theorem31-simulated"),
        ],
    )
    def test_resolve_provider_mapping(self, provider, construction, expected):
        assert resolve_provider(provider, construction) == expected

    def test_resolve_provider_unknown_construction(self):
        with pytest.raises(ShortcutError, match="choose from: centralized, simulated"):
            resolve_provider(construction="telepathy")

    def test_resolve_provider_unknown_provider_lists_registry(self):
        with pytest.raises(ShortcutError) as exc:
            resolve_provider("psychic")
        for name in EXPECTED_PROVIDERS:
            assert name in str(exc.value)


class TestUniformValidationAcrossApps:
    """Satellite bugfix: every app rejects unknown providers identically,
    with a ShortcutError naming the registered providers — and does so
    up front (min cut used to only forward, failing deep inside the first
    MST run)."""

    @staticmethod
    def _entry_points(graph):
        partition = voronoi_partition(graph, 3, rng=1)
        sub = {canonical_edge(u, v) for u, v in graph.edges()}
        return [
            lambda: distributed_mst(graph, provider="psychic"),
            lambda: distributed_mincut(graph, provider="psychic"),
            lambda: subgraph_components(graph, sub, provider="psychic"),
            lambda: solve_partwise_aggregation(
                graph, partition, {}, min, provider="psychic"
            ),
            lambda: solve_partwise_multicast(
                graph, partition, {0: 1, 1: 1, 2: 1}, provider="psychic"
            ),
        ]

    def test_unknown_provider_uniform_error(self):
        graph = grid_graph(4, 4)
        for entry in self._entry_points(graph):
            with pytest.raises(ShortcutError) as exc:
                entry()
            message = str(exc.value)
            for name in EXPECTED_PROVIDERS:
                assert name in message, message

    def test_unknown_construction_uniform_error(self):
        with pytest.raises(
            ShortcutError,
            match="unknown construction 'telepathy'; choose from: centralized, simulated",
        ):
            distributed_mst(grid_graph(4, 4), construction="telepathy")

    def test_provider_and_construction_together_rejected(self):
        # construction= is only shorthand for provider="theorem31-<...>",
        # so a call giving both names two constructions.
        with pytest.raises(ShortcutError, match="not both"):
            distributed_mst(grid_graph(4, 4), provider="baseline", construction="simulated")


class TestSharedDeltaResolution:
    """Satellite regression: the triplicated analytic-or-degeneracy fallback
    is gone; every app resolves the same default delta for the same graph
    through providers.resolve_delta."""

    def test_all_apps_resolve_identical_default_delta(self, monkeypatch):
        graph = k_tree(24, 2, rng=3)
        partition = voronoi_partition(graph, 4, rng=4)
        sub = {canonical_edge(u, v) for u, v in graph.edges()}
        seen = []
        original = providers.resolve_delta

        def spy(g, delta=None):
            value = original(g, delta)
            if delta is None and g is graph:
                seen.append(value)
            return value

        monkeypatch.setattr(providers, "resolve_delta", spy)
        distributed_mst(graph, rng=1)
        solve_partwise_aggregation(graph, partition, {v: 1 for v in graph}, min, rng=1)
        subgraph_components(graph, sub, rng=1)
        distributed_mincut(graph, rng=1)
        assert seen, "no app routed through the shared delta resolution"
        assert len(set(seen)) == 1
        assert seen[0] == original(graph)

    def test_resolve_delta_explicit_wins(self):
        graph = grid_graph(3, 3)
        assert resolve_delta(graph, 7.5) == 7.5

    def test_resolve_delta_memoized_per_graph(self):
        clear_shortcut_cache()
        graph = grid_graph(3, 3)
        assert resolve_delta(graph) == resolve_delta(graph)


class TestProviderOutcomes:
    @pytest.mark.parametrize("name", EXPECTED_PROVIDERS)
    def test_every_provider_covers_every_part(self, name):
        graph = grid_graph(6, 6)
        partition = voronoi_partition(graph, 4, rng=5)
        outcome = build_shortcut(
            ShortcutRequest(
                graph=graph, partition=partition, provider=name, delta=3.0, rng=6
            )
        )
        assert isinstance(outcome, ShortcutOutcome)
        assert isinstance(outcome.provenance, ShortcutProvenance)
        assert outcome.provenance.provider == name
        assert len(outcome.shortcut.subgraphs) == len(partition)
        quality = outcome.quality()
        assert quality.dilation < float("inf")

    def test_simulated_provider_charges_rounds(self):
        graph = grid_graph(5, 5)
        partition = voronoi_partition(graph, 4, rng=7)
        outcome = build_shortcut(
            ShortcutRequest(
                graph=graph, partition=partition, provider="theorem31-simulated",
                delta=3.0, rng=8,
            )
        )
        assert outcome.stats.rounds > 0
        assert set(outcome.stats.phases) >= {"bfs", "meta", "sweep"}
        assert outcome.provenance.delta_used is not None

    def test_simulated_provider_builds_on_the_request_tree(self):
        graph = grid_graph(6, 6)
        tree = bfs_tree(graph)
        outcome = build_shortcut(
            ShortcutRequest(
                graph=graph, partition=voronoi_partition(graph, 6, rng=7),
                provider="theorem31-simulated", tree=tree, delta=3.0, rng=8,
            )
        )
        assert outcome.tree is tree
        assert outcome.shortcut.tree is tree
        # No BFS and no depth convergecast: each iteration pays only the
        # pipelined (seed, c, tau) wave, depth + 2 rounds.
        assert set(outcome.stats.phases) == {"meta", "sweep"}
        meta = outcome.stats.phases["meta"]
        assert meta.rounds == outcome.provenance.iterations * (tree.max_depth + 2)
        assert meta.messages == outcome.provenance.iterations * 3 * (len(graph) - 1)

    def test_certifying_provider_reports_attempt_ledger(self):
        graph = grid_graph(5, 5)
        partition = voronoi_partition(graph, 4, rng=9)
        outcome = build_shortcut(
            ShortcutRequest(
                graph=graph, partition=partition, provider="certifying",
                rng=10, options={"initial_delta": 3.0},
            )
        )
        attempts = outcome.provenance.details["attempts"]
        assert attempts[-1][1] is True
        assert outcome.provenance.delta_used == attempts[-1][0]

    def test_certifying_provider_reuses_successful_attempt(self, monkeypatch):
        # The Observation 2.7 completion must be seeded with the case-I
        # partial the certifying run just produced, not recompute it: when
        # that attempt satisfies every part, the completion loop makes zero
        # build_partial_shortcut calls of its own.
        import repro.core.full as full_module

        calls = []
        original = full_module.build_partial_shortcut

        def spy(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(full_module, "build_partial_shortcut", spy)
        graph = grid_graph(5, 5)
        partition = voronoi_partition(graph, 4, rng=9)
        outcome = build_shortcut(
            ShortcutRequest(
                graph=graph, partition=partition, provider="certifying",
                rng=10, options={"initial_delta": 3.0},
            )
        )
        assert len(outcome.shortcut.subgraphs) == len(partition)
        full_result = outcome.provenance.details["full_result"]
        assert full_result.per_iteration, "seed iteration missing from history"
        assert not calls, "completion rebuilt the attempt certify already ran"

    def test_greedy_random_order_not_cached(self):
        clear_shortcut_cache()
        graph = grid_graph(5, 5)
        partition = voronoi_partition(graph, 4, rng=11)
        for _ in range(2):
            outcome = build_shortcut(
                ShortcutRequest(
                    graph=graph, partition=partition, provider="greedy",
                    delta=3.0, rng=12, options={"order": "random"},
                )
            )
            assert not outcome.provenance.cache_hit

    def test_bad_scheduler_rejected(self):
        graph = grid_graph(4, 4)
        partition = voronoi_partition(graph, 3, rng=13)
        with pytest.raises(ShortcutError):
            build_shortcut(
                ShortcutRequest(graph=graph, partition=partition, scheduler="bogus")
            )


class TestOptionKeys:
    """Each provider declares the ``options`` keys it reads; build_shortcut
    rejects any other key, and unhashable values, before the cache lookup
    (undeclared keys used to be ignored and still split the cache)."""

    DECLARED = {
        "baseline": (),
        "certifying": ("initial_delta",),
        "greedy": ("order", "congestion_cap"),
        "none": (),
        "theorem31-centralized": (),
        "theorem31-simulated": ("sweep",),
    }

    @staticmethod
    def _request(provider, options):
        graph = grid_graph(8, 8)
        return ShortcutRequest(
            graph=graph, partition=voronoi_partition(graph, 4, rng=1),
            provider=provider, options=options,
        )

    def test_declared_keys(self):
        declared = {name: get_provider(name).option_keys for name in EXPECTED_PROVIDERS}
        assert declared == self.DECLARED

    @pytest.mark.parametrize(
        "provider,options,reads",
        [
            ("baseline", {"sweep": "ack"}, "no options"),
            ("theorem31-centralized", {"ordr": "random"}, "no options"),
            ("greedy", {"sweep": "ack"}, "order, congestion_cap"),
        ],
    )
    def test_undeclared_key_rejected(self, provider, options, reads):
        with pytest.raises(ShortcutError) as exc:
            build_shortcut(self._request(provider, options))
        message = str(exc.value)
        assert repr(provider) in message
        assert repr(next(iter(options))) in message
        assert message.endswith(f"it reads: {reads}")

    def test_undeclared_key_does_not_split_the_cache(self):
        clear_shortcut_cache()
        graph = grid_graph(8, 8)
        partition = voronoi_partition(graph, 4, rng=1)

        def request(**options):
            return ShortcutRequest(
                graph=graph, partition=partition, provider="baseline", options=options
            )

        first = build_shortcut(request())
        for sweep in ("ack", "keep-alive"):
            with pytest.raises(ShortcutError):
                build_shortcut(request(sweep=sweep))
        again = build_shortcut(request())
        assert again.provenance.cache_hit
        assert again.shortcut is first.shortcut
        counts = shortcut_cache_info()["providers"]["baseline"]
        assert (counts["hits"], counts["misses"]) == (1, 1)

    @pytest.mark.parametrize(
        "provider,options",
        [("greedy", {"congestion_cap": [4]}), ("baseline", {"x": [1]})],
    )
    def test_unhashable_value_is_a_shortcut_error(self, provider, options):
        with pytest.raises(ShortcutError, match=repr(provider)):
            build_shortcut(self._request(provider, options))


class TestCacheEvictionAndCounters:
    """Satellite (PR 8): the outcome cache's LRU discipline, the 256-entry
    bound, eviction attribution, and hit/miss accounting under concurrent
    jobs sharing the service tier."""

    @pytest.fixture()
    def stub(self):
        from repro.core.shortcut import Shortcut

        class StubProvider(ShortcutProvider):
            name = "test-evict-stub"
            needs_delta = False
            needs_tree = False
            option_keys = ("i",)
            cacheable = True

            def build(self, request, delta, tree):
                return ShortcutOutcome(
                    shortcut=Shortcut(
                        request.graph, request.partition,
                        [[] for _ in request.partition],
                    ),
                    tree=None,
                    stats=providers.RoundStats(rounds=1),
                    provenance=ShortcutProvenance(provider=self.name),
                )

        register_provider(StubProvider())
        clear_shortcut_cache()
        yield StubProvider.name
        providers._REGISTRY.pop(StubProvider.name, None)
        clear_shortcut_cache()

    @staticmethod
    def _request(graph, partition, name, index):
        # Distinct ``options`` → distinct cache keys on one graph.
        return ShortcutRequest(
            graph=graph, partition=partition, provider=name,
            options={"i": index},
        )

    @pytest.fixture()
    def scene(self):
        graph = grid_graph(4, 4)
        partition = voronoi_partition(graph, 2, rng=0)
        return graph, partition

    def test_entry_bound_is_256_and_enforced(self, stub, scene):
        graph, partition = scene
        assert providers._CACHE_MAX_ENTRIES == 256
        overflow = 5
        for i in range(providers._CACHE_MAX_ENTRIES + overflow):
            build_shortcut(self._request(graph, partition, stub, i))
            assert len(providers._OUTCOME_CACHE) <= providers._CACHE_MAX_ENTRIES
        info = providers.shortcut_cache_info()
        assert info["entries"] == providers._CACHE_MAX_ENTRIES
        assert info["evictions"] == overflow
        assert info["providers"][stub]["evictions"] == overflow

    def test_eviction_order_is_lru_not_fifo(self, stub, scene):
        graph, partition = scene
        for i in range(providers._CACHE_MAX_ENTRIES):
            build_shortcut(self._request(graph, partition, stub, i))
        # Touch the oldest entry: a hit must refresh its recency...
        build_shortcut(self._request(graph, partition, stub, 0))
        # ...so the next insertion evicts entry 1, not entry 0.
        build_shortcut(self._request(graph, partition, stub, 10**6))
        assert build_shortcut(
            self._request(graph, partition, stub, 0)
        ).provenance.cache_hit
        refetched = build_shortcut(self._request(graph, partition, stub, 1))
        assert not refetched.provenance.cache_hit

    def test_eviction_attributed_to_owning_provider(self, scene):
        from repro.core.shortcut import Shortcut

        graph, partition = scene

        class OtherProvider(ShortcutProvider):
            name = "test-evict-other"
            needs_delta = False
            needs_tree = False
            option_keys = ("i",)
            cacheable = True

            def build(self, request, delta, tree):
                return ShortcutOutcome(
                    shortcut=Shortcut(
                        request.graph, request.partition,
                        [[] for _ in request.partition],
                    ),
                    tree=None,
                    stats=providers.RoundStats(rounds=1),
                    provenance=ShortcutProvenance(provider=self.name),
                )

        class VictimProvider(OtherProvider):
            name = "test-evict-victim"

        register_provider(OtherProvider())
        register_provider(VictimProvider())
        try:
            clear_shortcut_cache()
            # The victim's single entry is the oldest; the other provider
            # floods the cache, so every eviction past the bound lands on
            # victim first and then on the flooder's own early entries.
            build_shortcut(self._request(graph, partition, "test-evict-victim", 0))
            for i in range(providers._CACHE_MAX_ENTRIES + 2):
                build_shortcut(
                    self._request(graph, partition, "test-evict-other", i)
                )
            info = providers.shortcut_cache_info()
            assert info["providers"]["test-evict-victim"]["evictions"] == 1
            assert info["providers"]["test-evict-other"]["evictions"] == 2
        finally:
            providers._REGISTRY.pop("test-evict-other", None)
            providers._REGISTRY.pop("test-evict-victim", None)
            clear_shortcut_cache()

    def test_concurrent_jobs_never_double_count_a_hit(self, stub, scene):
        from repro.serve import JobServer

        graph, partition = scene
        server = JobServer(graph)
        request = self._request(graph, partition, stub, 42)
        for _ in range(3):
            server.submit_shortcut(request)
        server.drain()
        info = providers.shortcut_cache_info()
        counts = info["providers"][stub]
        # One construction, two hits — a hit must never also bump misses,
        # and the aggregate mirror matches the per-provider breakdown.
        assert counts["misses"] == 1
        assert counts["hits"] == 2
        assert info["misses"] == 1
        assert info["hits"] == 2

    def test_iteration_tier_survives_outcome_eviction(self):
        # The shared per-iteration tier is keyed independently of the
        # outcome cache: losing the memoized outcome (eviction, here
        # simulated by popping the entry) must not force the next build to
        # redo iterations whose (parts, delta) tail is unchanged.
        clear_shortcut_cache()
        graph = grid_graph(5, 5)
        partition = voronoi_partition(graph, 3, rng=1)
        request = ShortcutRequest(
            graph=graph, partition=partition, provider="theorem31-centralized"
        )
        build_shortcut(request)
        counts = providers.shortcut_cache_info()["providers"][
            "theorem31-centralized"
        ]
        first_misses = counts["iteration_misses"]
        assert first_misses > 0
        assert counts["iteration_hits"] == 0
        providers._OUTCOME_CACHE.clear()
        build_shortcut(request)
        counts = providers.shortcut_cache_info()["providers"][
            "theorem31-centralized"
        ]
        assert counts["iteration_hits"] == first_misses
        assert counts["iteration_misses"] == first_misses
        clear_shortcut_cache()


def _swap_edge(graph, removed, added):
    """Replace one edge by a non-edge: the node and edge counts stay put."""
    assert graph.has_edge(*removed) and not graph.has_edge(*added)
    graph.remove_edge(*removed)
    graph.add_edge(*added)


class TestMemosFollowMutation:
    """Trees, the default δ and both shortcut tiers are memos on the graph,
    so an edge swap that keeps ``n`` and ``m`` still invalidates them."""

    @staticmethod
    def _columns(graph, width=6):
        # Grid columns stay connected under the (0, 1) -> (0, 7) swap.
        return Partition(graph, [range(c, width * width, width) for c in range(width)])

    def test_resolve_tree_is_valid_after_an_edge_swap(self):
        graph = grid_graph(6, 6)
        before = resolve_tree(graph)
        assert resolve_tree(graph) is before
        _swap_edge(graph, (0, 1), (0, 7))
        resolve_tree(graph).validate_on(graph)

    def test_centralized_build_misses_after_an_edge_swap(self):
        clear_shortcut_cache()
        graph = grid_graph(6, 6)
        request = ShortcutRequest(
            graph=graph, partition=self._columns(graph),
            provider="theorem31-centralized",
        )
        build_shortcut(request)
        assert build_shortcut(request).provenance.cache_hit
        _swap_edge(graph, (0, 1), (0, 7))
        outcome = build_shortcut(request)
        assert not outcome.provenance.cache_hit
        for subgraph in outcome.shortcut.subgraphs:
            for u, v in subgraph:
                assert graph.has_edge(u, v)
        clear_shortcut_cache()

    def test_iteration_tier_misses_after_an_edge_swap(self):
        clear_shortcut_cache()
        graph = grid_graph(6, 6)
        request = ShortcutRequest(
            graph=graph, partition=self._columns(graph),
            provider="theorem31-centralized",
        )
        build_shortcut(request)
        _swap_edge(graph, (0, 1), (0, 7))
        providers._OUTCOME_CACHE.clear()
        build_shortcut(request)
        counts = providers.shortcut_cache_info()["providers"]["theorem31-centralized"]
        assert counts["iteration_hits"] == 0
        clear_shortcut_cache()

    def test_default_delta_follows_an_edge_swap(self):
        graph = nx.path_graph(5)
        assert resolve_delta(graph) == 1.0
        # Closing the triangle 0-1-2 raises the degeneracy to 2.
        _swap_edge(graph, (3, 4), (0, 2))
        assert resolve_delta(graph) == 2.0

    @pytest.mark.parametrize("provider", ["theorem31-centralized", "baseline"])
    def test_requests_on_a_view_are_never_stored(self, provider):
        clear_shortcut_cache()
        graph = grid_graph(5, 5)
        view = graph.subgraph(graph.nodes())
        request = ShortcutRequest(
            graph=view, partition=voronoi_partition(graph, 3, rng=1),
            provider=provider,
        )
        for _ in range(2):
            assert not build_shortcut(request).provenance.cache_hit
        info = providers.shortcut_cache_info()
        assert info["entries"] == info["iteration_entries"] == 0
        assert info["hits"] == info["misses"] == 0


class TestRequestValidation:
    @pytest.mark.parametrize(
        "provider", ["theorem31-centralized", "theorem31-simulated", "greedy"]
    )
    @pytest.mark.parametrize("delta", [math.nan, math.inf, "3", True])
    def test_rejects_bad_delta(self, provider, delta):
        self._assert_rejected(provider, delta)

    @pytest.mark.parametrize("delta", [0, -1.5, -math.inf])
    def test_greedy_rejects_non_positive_delta(self, delta):
        self._assert_rejected("greedy", delta)

    @staticmethod
    def _assert_rejected(provider, delta):
        graph = grid_graph(4, 4)
        request = ShortcutRequest(
            graph=graph, partition=voronoi_partition(graph, 3, rng=1),
            provider=provider, delta=delta, rng=1,
        )
        with pytest.raises(ShortcutError, match=f"delta must be .*{re.escape(repr(delta))}"):
            build_shortcut(request)

    @pytest.mark.parametrize("initial_delta", [math.nan, math.inf, "3", False, 0])
    def test_certifying_rejects_bad_initial_delta(self, initial_delta):
        graph = grid_graph(4, 4)
        request = ShortcutRequest(
            graph=graph, partition=voronoi_partition(graph, 3, rng=1),
            provider="certifying", rng=1,
            options={"initial_delta": initial_delta},
        )
        with pytest.raises(ShortcutError, match="initial_delta"):
            build_shortcut(request)

    @pytest.mark.parametrize("provider", ["theorem31-centralized", "baseline"])
    def test_rejects_a_tree_of_another_graph(self, provider):
        graph = grid_graph(5, 5)
        request = ShortcutRequest(
            graph=graph, partition=voronoi_partition(graph, 3, rng=1),
            tree=bfs_tree(grid_graph(4, 4)), provider=provider,
        )
        with pytest.raises(ShortcutError, match="does not span"):
            build_shortcut(request)

    def test_rejects_a_tree_using_a_non_edge(self):
        graph = grid_graph(4, 4)
        tree = bfs_tree(graph)
        _swap_edge(graph, (0, 1), (0, 5))
        request = ShortcutRequest(
            graph=graph, partition=voronoi_partition(graph, 3, rng=1),
            tree=tree, provider="baseline",
        )
        with pytest.raises(ShortcutError, match=r"\(0, 1\)"):
            build_shortcut(request)
