"""The unified ShortcutProvider subsystem: one construction registry behind every app.

Haeupler–Li–Zuzic frame low-congestion shortcuts as a reusable black box
that any CONGEST optimization algorithm plugs into; this module is that
black box. Every application (MST, min cut, connectivity, part-wise
aggregation/multicast) and the CLI obtain shortcuts exclusively through

    outcome = build_shortcut(ShortcutRequest(graph, partition, ...))

instead of hand-rolled ``(method, construction)`` dispatchers. The moving
parts, mirroring the ``SchedulerBackend`` registry of :mod:`repro.congest`:

* :class:`ShortcutRequest` — everything a construction needs: the instance,
  an optional pre-built tree, the provider selection (either an explicit
  ``provider`` name or the legacy ``method``/``construction`` pair), an
  optional ``delta`` (auto-resolved analytically or via degeneracy when
  omitted), and the rng/scheduler/latency-model plumbing for measured pipelines.
* :class:`ShortcutOutcome` — the uniform product: the shortcut, the tree it
  restricts to (if any), the construction's measured :class:`RoundStats`,
  lazily measured :class:`ShortcutQuality`, and a
  :class:`ShortcutProvenance` recording which provider ran, how many
  iterations/escalations it needed, and whether the result came from cache.
* :class:`ShortcutProvider` subclasses — the registered constructions:
  ``baseline`` (folklore D+√n), ``theorem31-centralized`` (Theorem 3.1 via
  Observation 2.7), ``theorem31-simulated`` (the measured Theorem 1.5
  CONGEST pipeline iterated per Observation 2.7), ``greedy`` (the E14
  ablation arm), ``certifying`` (shortcut plus dense-minor witness), and
  ``none`` (bare parts — the slow control arm).
* a **process-level memoizing cache** keyed on ``(graph identity,
  partition signature, provider, …)`` so repeated requests — MST phases
  inside the min-cut tree packing, repeated part-wise solves — reuse trees
  and shortcuts instead of rebuilding. Only providers whose construction
  is deterministic and consumes no randomness are cached (caching a
  rng-consuming pipeline would silently change downstream random streams
  and break the backend byte-identity contract). The cache is a bounded
  LRU (cached outcomes necessarily keep their graph alive, so a weak map
  could never evict); the oldest entries fall out past
  ``_CACHE_MAX_ENTRIES`` and :func:`clear_shortcut_cache` drops
  everything. Keys carry the graph's ``(n, m)`` signature, so topology
  mutations that change either count invalidate stale entries; mutations
  preserving both counts (an edge swap) are the caveat — call
  :func:`clear_shortcut_cache` after such edits.
"""

from __future__ import annotations

import random
import weakref
from collections import OrderedDict
from dataclasses import dataclass, field, replace

import networkx as nx

from repro.congest.network import validate_scheduler
from repro.congest.stats import RoundStats
from repro.core.baseline import bfs_tree_shortcut
from repro.core.certifying import certify_or_shortcut
from repro.core.full import build_full_shortcut
from repro.core.greedy import greedy_shortcut
from repro.core.shortcut import Shortcut, ShortcutQuality
from repro.graphs.partition import Partition
from repro.graphs.trees import RootedTree, bfs_tree
from repro.util.errors import ShortcutError
from repro.util.rng import ensure_rng

__all__ = [
    "ShortcutRequest",
    "ShortcutOutcome",
    "ShortcutProvenance",
    "ShortcutProvider",
    "build_shortcut",
    "register_provider",
    "get_provider",
    "available_providers",
    "provider_name",
    "resolve_delta",
    "resolve_tree",
    "shortcut_cache_info",
    "clear_shortcut_cache",
]

_CONSTRUCTIONS = ("centralized", "simulated")

_REGISTRY: dict[str, "ShortcutProvider"] = {}


# ----------------------------------------------------------------------
# Request / outcome
# ----------------------------------------------------------------------


@dataclass
class ShortcutRequest:
    """A request for a shortcut, consumed by :func:`build_shortcut`.

    Attributes:
        graph: the host graph ``G``.
        partition: the parts ``P_1 .. P_k``.
        tree: optional pre-built rooted tree; auto-resolved (and memoized
            per graph) when the provider needs one and none is given.
        method: legacy method selector (``"theorem31"``, ``"baseline"``,
            ``"none"``, ``"greedy"``, ``"certifying"``) — kept so existing
            call sites keep working; combined with ``construction`` it maps
            onto a registered provider name.
        construction: ``"centralized"`` (planning is free) or
            ``"simulated"`` (the measured Theorem 1.5 pipeline).
        provider: explicit registered provider name; overrides
            ``method``/``construction`` when given.
        delta: minor-density parameter; ``None`` auto-resolves to the
            generator's analytic bound or, failing that, the graph's
            degeneracy (memoized per graph — every app sees the same
            default for the same graph).
        rng: seed or generator for randomized pipelines.
        scheduler: simulator scheduler backend for measured constructions.
        latency_model: per-edge latency model for the event scheduler
            (name or :class:`~repro.congest.asynchronous.LatencyModel`
            instance; ``None`` = uniform/lockstep-equivalent).
        options: provider-specific extras (e.g. ``order`` for ``greedy``,
            ``initial_delta`` for ``certifying``).
    """

    graph: nx.Graph
    partition: Partition
    tree: RootedTree | None = None
    method: str = "theorem31"
    construction: str = "centralized"
    provider: str | None = None
    delta: float | None = None
    rng: int | random.Random | None = None
    scheduler: str = "event"
    latency_model: object = None
    options: dict = field(default_factory=dict)

    def provider_name(self) -> str:
        """The registered provider this request resolves to."""
        return provider_name(self.method, self.construction, self.provider)


@dataclass
class ShortcutProvenance:
    """How a :class:`ShortcutOutcome` came to be.

    Attributes:
        provider: registered name of the provider that ran.
        delta_requested: the caller's ``delta`` (``None`` = auto).
        delta_used: the δ the construction actually succeeded at (``None``
            for delta-free providers such as ``baseline``/``none``).
        iterations: partial-shortcut iterations (Observation 2.7 count).
        escalations: δ doublings forced by case-II stalls.
        cache_hit: True when the outcome was served from the memo cache.
        details: provider-specific extras (attempt ledgers, witnesses,
            the underlying construction result objects, ...).
    """

    provider: str
    delta_requested: float | None = None
    delta_used: float | None = None
    iterations: int = 1
    escalations: int = 0
    cache_hit: bool = False
    details: dict = field(default_factory=dict)


@dataclass
class ShortcutOutcome:
    """The uniform product of every provider.

    Attributes:
        shortcut: the constructed shortcut.
        tree: the rooted tree the shortcut restricts to (``None`` for
            non-tree-restricted providers such as ``none``).
        stats: the construction's measured rounds/messages (zero for
            centralized planning, the full pipeline cost for simulated).
        provenance: which provider ran and what it took.
    """

    shortcut: Shortcut
    tree: RootedTree | None
    stats: RoundStats
    provenance: ShortcutProvenance
    _quality_cache: dict = field(default_factory=dict, repr=False)

    def quality(self, exact: bool = True) -> ShortcutQuality:
        """Measured quality, computed lazily and memoized (shared across
        cache hits, so repeated requests never re-measure).

        ``exact`` defaults to True, matching :meth:`Shortcut.quality`, so
        migrating ``result.shortcut.quality()`` call sites to
        ``outcome.quality()`` never silently downgrades the dilation
        measurement; pass ``exact=False`` for the BFS-sampled estimate.
        """
        if exact not in self._quality_cache:
            self._quality_cache[exact] = self.shortcut.quality(exact=exact)
        return self._quality_cache[exact]


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------


def _unknown_provider(name: str) -> ShortcutError:
    return ShortcutError(
        f"unknown shortcut provider {name!r}; registered providers: "
        f"{', '.join(available_providers())}"
    )


def register_provider(provider: "ShortcutProvider", replace_existing: bool = False) -> None:
    """Register a provider under ``provider.name``.

    Raises:
        ShortcutError: when the name is taken and ``replace_existing`` is
            False.
    """
    if provider.name in _REGISTRY and not replace_existing:
        raise ShortcutError(f"provider {provider.name!r} is already registered")
    _REGISTRY[provider.name] = provider


def get_provider(name: str) -> "ShortcutProvider":
    """Look up a registered provider by name.

    Raises:
        ShortcutError: unknown name (the message lists the registry).
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        raise _unknown_provider(name) from None


def available_providers() -> tuple[str, ...]:
    """Sorted names of all registered providers."""
    return tuple(sorted(_REGISTRY))


def provider_name(
    method: str = "theorem31",
    construction: str = "centralized",
    provider: str | None = None,
) -> str:
    """Resolve the legacy ``(method, construction)`` pair — or an explicit
    ``provider`` name — to a registered provider name.

    Every app funnels its selector arguments through here, so unknown
    names fail identically everywhere: a :class:`ShortcutError` listing the
    registered providers.
    """
    if provider is not None:
        if provider in _REGISTRY:
            return provider
        raise _unknown_provider(provider)
    if construction not in _CONSTRUCTIONS:
        raise ShortcutError(
            f"unknown construction {construction!r}; choose from: "
            f"{', '.join(_CONSTRUCTIONS)}"
        )
    if method == "theorem31":
        name = f"theorem31-{construction}"
        if name in _REGISTRY:
            return name
        raise _unknown_provider(name)
    if method in _REGISTRY:
        return method
    raise _unknown_provider(method)


# ----------------------------------------------------------------------
# Per-graph memoization: delta, trees, shortcuts
# ----------------------------------------------------------------------

# Delta and tree maps are weakly keyed on the graph object (their values
# hold no reference back to the graph, so entries really do vanish with
# it); object identity keeps distinct graphs apart even when isomorphic.
_DELTA_CACHE: "weakref.WeakKeyDictionary[nx.Graph, tuple]" = weakref.WeakKeyDictionary()
_TREE_CACHE: "weakref.WeakKeyDictionary[nx.Graph, tuple]" = weakref.WeakKeyDictionary()
# Outcomes DO reference their graph (``Shortcut.graph``), so a weak map
# could never evict them; instead this is a bounded LRU keyed by
# ``(id(graph), provider key)``. The strong reference each entry holds to
# its graph is what keeps the ``id`` stable for the entry's lifetime.
_OUTCOME_CACHE: "OrderedDict[tuple, ShortcutOutcome]" = OrderedDict()
_CACHE_MAX_ENTRIES = 256
_CACHE_COUNTS = {"hits": 0, "misses": 0, "evictions": 0}

# Per-provider breakdown of the same events, plus the iteration tier's.
# Keyed by registered provider name; counters appear on first touch so
# providers that never went through the cache stay absent.
_PROVIDER_COUNTS: dict[str, dict[str, int]] = {}

# The shared service tier for *per-iteration* partial results: concurrent
# jobs whose full-shortcut requests differ (different deltas, different
# option sets — distinct outcome-cache keys) still overlap iteration by
# iteration whenever their partitions agree on the still-unsatisfied
# tail. Entries store ``(graph, tree, result)`` so the ids in the key stay
# stable for the entry's lifetime, mirroring the outcome cache's strong
# references.
_ITERATION_CACHE: "OrderedDict[tuple, tuple]" = OrderedDict()
_ITERATION_CACHE_MAX_ENTRIES = 1024


def _provider_counts(name: str) -> dict[str, int]:
    counts = _PROVIDER_COUNTS.get(name)
    if counts is None:
        counts = _PROVIDER_COUNTS[name] = {
            "hits": 0, "misses": 0, "evictions": 0,
            "iteration_hits": 0, "iteration_misses": 0,
            "iteration_evictions": 0,
        }
    return counts


class _IterationCacheView:
    """The ``iteration_cache`` mapping a provider hands to
    :func:`~repro.core.full.build_full_shortcut`.

    Scopes the per-iteration keys ``(parts, delta)`` to one
    ``(graph, tree)`` pair (by identity, with the ``(n, m)`` signature
    guarding the same mutation caveat as the outcome cache), charges
    hit/miss/eviction events to the owning provider's counters, and
    enforces the shared LRU bound.
    """

    __slots__ = ("graph", "tree", "provider")

    def __init__(self, graph: nx.Graph, tree: RootedTree, provider: str):
        self.graph = graph
        self.tree = tree
        self.provider = provider

    def _full_key(self, key: tuple) -> tuple:
        return (
            id(self.graph),
            self.graph.number_of_nodes(),
            self.graph.number_of_edges(),
            id(self.tree),
            *key,
        )

    def get(self, key: tuple):
        entry = _ITERATION_CACHE.get(self._full_key(key))
        counts = _provider_counts(self.provider)
        if entry is None:
            counts["iteration_misses"] += 1
            return None
        _ITERATION_CACHE.move_to_end(self._full_key(key))
        counts["iteration_hits"] += 1
        return entry[2]

    def __setitem__(self, key: tuple, result) -> None:
        _ITERATION_CACHE[self._full_key(key)] = (self.graph, self.tree, result)
        while len(_ITERATION_CACHE) > _ITERATION_CACHE_MAX_ENTRIES:
            _ITERATION_CACHE.popitem(last=False)
            _provider_counts(self.provider)["iteration_evictions"] += 1


def resolve_delta(graph: nx.Graph, delta: float | None = None) -> float:
    """The single delta-defaulting rule every app shares.

    An explicit ``delta`` wins; otherwise the generator's analytic bound
    (:func:`repro.graphs.minors.analytic_delta_upper`), and failing that the
    graph's degeneracy (always an upper bound on minor density). The
    fallback is memoized per graph.
    """
    if delta is not None:
        return delta
    signature = (graph.number_of_nodes(), graph.number_of_edges())
    cached = _DELTA_CACHE.get(graph)
    if cached is not None and cached[0] == signature:
        return cached[1]
    from repro.graphs.minors import analytic_delta_upper
    from repro.graphs.properties import degeneracy

    resolved = analytic_delta_upper(graph)
    if resolved is None:
        resolved = max(1.0, float(degeneracy(graph)))
    _DELTA_CACHE[graph] = (signature, resolved)
    return resolved


def resolve_tree(graph: nx.Graph, tree: RootedTree | None = None) -> RootedTree:
    """A BFS tree for ``graph``, memoized so repeated requests (MST phases,
    repeated part-wise solves) reuse one tree instead of rebuilding it."""
    if tree is not None:
        return tree
    signature = (graph.number_of_nodes(), graph.number_of_edges())
    cached = _TREE_CACHE.get(graph)
    if cached is not None and cached[0] == signature:
        return cached[1]
    built = bfs_tree(graph)
    _TREE_CACHE[graph] = (signature, built)
    return built


def shortcut_cache_info() -> dict:
    """Cache statistics — a superset of the historical keys.

    Returns ``{"hits", "misses", "evictions", "entries"}`` for the
    outcome cache, ``"iteration_entries"`` for the shared per-iteration
    tier, and ``"providers"``: a per-provider breakdown (``hits``/
    ``misses``/``evictions`` plus the ``iteration_*`` triple), present
    only for providers that touched a cache since the last clear.
    """
    return {
        **_CACHE_COUNTS,
        "entries": len(_OUTCOME_CACHE),
        "iteration_entries": len(_ITERATION_CACHE),
        "providers": {
            name: dict(counts) for name, counts in sorted(_PROVIDER_COUNTS.items())
        },
    }


def clear_shortcut_cache() -> None:
    """Drop all memoized shortcuts, trees, deltas, iterations, counters."""
    _OUTCOME_CACHE.clear()
    _ITERATION_CACHE.clear()
    _TREE_CACHE.clear()
    _DELTA_CACHE.clear()
    _PROVIDER_COUNTS.clear()
    _CACHE_COUNTS["hits"] = 0
    _CACHE_COUNTS["misses"] = 0
    _CACHE_COUNTS["evictions"] = 0


# ----------------------------------------------------------------------
# The provider base class and the dispatcher
# ----------------------------------------------------------------------


class ShortcutProvider:
    """One registered shortcut construction.

    Subclasses set the class attributes and implement :meth:`build`:

    * ``name`` — the registry key;
    * ``needs_delta`` — whether the dispatcher should auto-resolve a
      missing ``delta`` before calling :meth:`build`;
    * ``needs_tree`` — whether the dispatcher should resolve a (memoized)
      BFS tree when the request carries none;
    * ``cacheable`` — whether outcomes may be memoized. Only constructions
      that are deterministic functions of the cache key and consume **no**
      randomness may set this (a cached rng-consuming pipeline would skip
      rng draws on hits and silently change downstream streams).
    """

    name: str = "abstract"
    needs_delta: bool = False
    needs_tree: bool = True
    cacheable: bool = False

    def cache_key(
        self, request: ShortcutRequest, delta: float | None, tree: RootedTree | None
    ) -> tuple | None:
        """Memoization key, or ``None`` to bypass the cache.

        The tree is keyed by identity: cached outcomes hold a reference to
        it, so the id cannot be recycled while the entry lives.
        """
        if not self.cacheable:
            return None
        return (
            self.name,
            request.partition.parts,
            delta if self.needs_delta else None,
            id(tree) if tree is not None else None,
            tuple(sorted(request.options.items())),
        )

    def build(
        self, request: ShortcutRequest, delta: float | None, tree: RootedTree | None
    ) -> ShortcutOutcome:
        raise NotImplementedError


def build_shortcut(request: ShortcutRequest) -> ShortcutOutcome:
    """The single entry point for obtaining shortcuts.

    Every application funnels through here — there is no other supported
    way to run a construction. Resolves the provider from the registry,
    auto-resolves ``delta`` (analytic-or-degeneracy) and the BFS ``tree``
    where the provider needs them (both memoized per graph), serves
    memoized :class:`ShortcutOutcome` objects for cacheable providers,
    and otherwise delegates to the provider's construction.

    Example::

        from repro.core.providers import ShortcutRequest, build_shortcut

        outcome = build_shortcut(ShortcutRequest(
            graph, partition, provider="theorem31-centralized",
            scheduler="event", latency_model="contention:1.0",
        ))
        outcome.shortcut          # the constructed Shortcut
        outcome.stats             # measured RoundStats (virtual_time under
                                  # a latency model)
        outcome.quality()         # lazy, memoized ShortcutQuality
        outcome.provenance        # iterations / escalations / cache hits

    ``scheduler`` / ``latency_model`` on the request select
    how measured constructions execute, with the same validation as
    :class:`~repro.congest.network.SyncNetwork` (a latency model on a
    backend that does not support one is rejected here, uniformly).

    Raises:
        ShortcutError: unknown provider/method/construction, bad
            scheduler/latency-model, or any provider-specific
            failure.
    """
    provider = get_provider(request.provider_name())
    validate_scheduler(
        request.scheduler, ShortcutError,
        latency_model=request.latency_model,
    )
    delta = resolve_delta(request.graph, request.delta) if provider.needs_delta else request.delta
    tree = request.tree
    if tree is None and provider.needs_tree:
        tree = resolve_tree(request.graph)

    key = provider.cache_key(request, delta, tree)
    full_key: tuple | None = None
    if key is not None:
        # The (n, m) signature invalidates entries when the caller mutates
        # the graph between requests (mutations preserving both counts are
        # the documented caveat); id stability is guaranteed by the strong
        # graph reference each cached outcome holds.
        full_key = (
            id(request.graph),
            request.graph.number_of_nodes(),
            request.graph.number_of_edges(),
            *key,
        )
        cached = _OUTCOME_CACHE.get(full_key)
        if cached is not None:
            _OUTCOME_CACHE.move_to_end(full_key)
            _CACHE_COUNTS["hits"] += 1
            _provider_counts(provider.name)["hits"] += 1
            return ShortcutOutcome(
                shortcut=cached.shortcut,
                tree=cached.tree,
                stats=cached.stats.copy(),
                provenance=replace(
                    cached.provenance,
                    cache_hit=True,
                    details=dict(cached.provenance.details),
                ),
                _quality_cache=cached._quality_cache,
            )
        _CACHE_COUNTS["misses"] += 1
        _provider_counts(provider.name)["misses"] += 1

    outcome = provider.build(request, delta, tree)
    if full_key is not None:
        # Stats and provenance are copied on both store and hit so callers
        # scribbling on their outcome can never corrupt the cache (the
        # shortcut/tree/details *values* are shared by design — they are
        # read-only products).
        _OUTCOME_CACHE[full_key] = ShortcutOutcome(
            shortcut=outcome.shortcut,
            tree=outcome.tree,
            stats=outcome.stats.copy(),
            provenance=replace(
                outcome.provenance, details=dict(outcome.provenance.details)
            ),
            _quality_cache=outcome._quality_cache,
        )
        while len(_OUTCOME_CACHE) > _CACHE_MAX_ENTRIES:
            evicted_key, _ = _OUTCOME_CACHE.popitem(last=False)
            _CACHE_COUNTS["evictions"] += 1
            # full_key layout: (id(graph), n, m, provider_name, ...).
            _provider_counts(evicted_key[3])["evictions"] += 1
    return outcome


# ----------------------------------------------------------------------
# The registered providers
# ----------------------------------------------------------------------


class NoneProvider(ShortcutProvider):
    """Bare parts: ``H_i = ∅`` — the slow control arm of E15."""

    name = "none"
    needs_delta = False
    needs_tree = False
    cacheable = True

    def build(self, request, delta, tree):
        shortcut = Shortcut(
            request.graph, request.partition, [[] for _ in request.partition]
        )
        return ShortcutOutcome(
            shortcut=shortcut,
            tree=None,
            stats=RoundStats(),
            provenance=ShortcutProvenance(
                provider=self.name, delta_requested=request.delta
            ),
        )


class BaselineProvider(ShortcutProvider):
    """The folklore ``D + √n`` BFS-tree shortcut (Section 1.3).

    Needs no per-partition construction: the BFS tree is reused and
    announcing each part's "big" bit costs one ``O(D)`` pass, charged as
    ``depth + 1`` rounds.
    """

    name = "baseline"
    needs_delta = False
    needs_tree = True
    cacheable = True

    def build(self, request, delta, tree):
        shortcut = bfs_tree_shortcut(request.graph, request.partition, tree=tree)
        return ShortcutOutcome(
            shortcut=shortcut,
            tree=tree,
            stats=RoundStats(rounds=tree.max_depth + 1),
            provenance=ShortcutProvenance(
                provider=self.name, delta_requested=request.delta
            ),
        )


class Theorem31CentralizedProvider(ShortcutProvider):
    """Theorem 3.1 iterated per Observation 2.7, planned centrally for free."""

    name = "theorem31-centralized"
    needs_delta = True
    needs_tree = True
    cacheable = True

    def build(self, request, delta, tree):
        result = build_full_shortcut(
            request.graph, tree, request.partition, delta,
            escalate_on_stall=True,
            iteration_cache=_IterationCacheView(request.graph, tree, self.name),
        )
        return ShortcutOutcome(
            shortcut=result.shortcut,
            tree=tree,
            stats=result.stats,
            provenance=ShortcutProvenance(
                provider=self.name,
                delta_requested=request.delta,
                delta_used=result.delta_used,
                iterations=result.iterations,
                escalations=result.escalations,
                details={"full_result": result},
            ),
        )


class Theorem31SimulatedProvider(ShortcutProvider):
    """The measured Theorem 1.5 CONGEST pipeline, iterated per Observation 2.7.

    Defaults to the ack-driven sweep, so the construction — and therefore
    every app routed through this provider — is latency-adaptive: the
    Theorem 3.1 marking stays exact under any registered latency model.
    Pass ``options={"sweep": "keep-alive"}`` for the retired
    level-synchronized variant (benchmark E19's measurement arm).

    Not cacheable: the pipeline consumes the request's rng stream, so a
    cache hit would skip draws and change every downstream random choice.
    Needs no pre-built tree either — the first iteration constructs a
    *measured* BFS tree inside the simulator and every later iteration
    reuses it, so resolving a centralized one up front would be a wasted
    full-graph pass.
    """

    name = "theorem31-simulated"
    needs_delta = True
    needs_tree = False
    cacheable = False

    def build(self, request, delta, tree):
        from repro.core import distributed

        sweep = request.options.get("sweep", "ack")
        rng = ensure_rng(request.rng)

        def iteration(graph, tree, partition, delta):
            # Through the module attribute, so a rebound function is honoured.
            return distributed.distributed_partial_shortcut(
                graph, partition, delta, tree=tree, rng=rng,
                run_verification=False, scheduler=request.scheduler,
                latency_model=request.latency_model, sweep=sweep,
            )

        result = build_full_shortcut(
            request.graph, None, request.partition, delta,
            escalate_on_stall=True, partial=iteration,
        )
        return ShortcutOutcome(
            shortcut=result.shortcut,
            tree=result.shortcut.tree,
            stats=result.stats,
            provenance=ShortcutProvenance(
                provider=self.name,
                delta_requested=request.delta,
                delta_used=result.delta_used,
                iterations=result.iterations,
                escalations=result.escalations,
                details={"sweep": sweep},
            ),
        )


class GreedyProvider(ShortcutProvider):
    """First-come-first-served assignment (the E14 ablation arm).

    Options: ``order`` (``"index"``/``"random"``/``"large_first"``),
    ``congestion_cap`` (defaults to the paper's ``8δD``).
    """

    name = "greedy"
    needs_delta = True
    needs_tree = True
    cacheable = True

    def cache_key(self, request, delta, tree):
        if request.options.get("order", "index") == "random":
            return None  # consumes the rng stream
        return super().cache_key(request, delta, tree)

    def build(self, request, delta, tree):
        result = greedy_shortcut(
            request.graph,
            tree,
            request.partition,
            delta,
            congestion_cap=request.options.get("congestion_cap"),
            order=request.options.get("order", "index"),
            rng=request.rng,
        )
        return ShortcutOutcome(
            shortcut=result.shortcut,
            tree=tree,
            stats=RoundStats(),
            provenance=ShortcutProvenance(
                provider=self.name,
                delta_requested=request.delta,
                delta_used=delta,
                details={
                    "congestion_cap": result.congestion_cap,
                    "saturated_edges": result.saturated_edges,
                },
            ),
        )


class CertifyingProvider(ShortcutProvider):
    """Shortcut *plus* certificate: doubling δ with case-II witnesses.

    Runs :func:`repro.core.certifying.certify_or_shortcut` to find the
    smallest working δ (collecting dense-minor witnesses along the way),
    then completes the partial shortcut into a full one at that δ. The
    attempt ledger and the densest witness land in
    ``provenance.details["attempts"]`` / ``["witness"]``.

    Options: ``initial_delta`` (default: the request's ``delta``, else 1.0).
    """

    name = "certifying"
    needs_delta = False
    needs_tree = True
    cacheable = False  # witness sampling consumes the rng stream on stalls

    def build(self, request, delta, tree):
        initial_delta = request.options.get(
            "initial_delta", request.delta if request.delta is not None else 1.0
        )
        certified = certify_or_shortcut(
            request.graph,
            tree,
            request.partition,
            initial_delta=initial_delta,
            rng=ensure_rng(request.rng),
        )
        final_delta = certified.attempts[-1][0]
        # certified.result IS the successful case-I iteration at
        # final_delta — seed the Observation 2.7 completion with it instead
        # of rebuilding it from scratch.
        full = build_full_shortcut(
            request.graph, tree, request.partition, final_delta,
            escalate_on_stall=True, seed_result=certified.result,
        )
        return ShortcutOutcome(
            shortcut=full.shortcut,
            tree=tree,
            stats=RoundStats(),
            provenance=ShortcutProvenance(
                provider=self.name,
                delta_requested=request.delta,
                delta_used=full.delta_used,
                iterations=full.iterations,
                escalations=len(certified.attempts) - 1,
                details={
                    "attempts": list(certified.attempts),
                    "witness": certified.witness,
                    "full_result": full,
                },
            ),
        )


for _provider in (
    NoneProvider(),
    BaselineProvider(),
    Theorem31CentralizedProvider(),
    Theorem31SimulatedProvider(),
    GreedyProvider(),
    CertifyingProvider(),
):
    register_provider(_provider)
del _provider
