"""The unified ShortcutProvider subsystem: one construction registry behind every app.

Haeupler–Li–Zuzic frame low-congestion shortcuts as a reusable black box
that any CONGEST optimization algorithm plugs into; this module is that
black box. Every application (MST, min cut, connectivity, part-wise
aggregation/multicast) and the CLI obtain shortcuts exclusively through

    outcome = build_shortcut(ShortcutRequest(graph, partition, ...))

with ``provider`` the one field that picks the construction. The moving
parts, mirroring the ``SchedulerBackend`` registry of :mod:`repro.congest`:

* :class:`ShortcutRequest` — everything a construction needs: the instance,
  an optional pre-built tree, the registered ``provider`` name, an
  optional ``delta`` (auto-resolved analytically or via degeneracy when
  omitted), the provider's declared ``options``, and the
  rng/scheduler/latency-model plumbing for measured pipelines.
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
* **reuse** across repeated requests (MST phases, min-cut tree packing,
  tenants). The BFS tree, the degeneracy δ and a per-graph token are
  :func:`~repro.graphs.adjacency.graph_memo` memos, dropped on any
  structural mutation. Two bounded LRU tiers (outcomes, Observation 2.7
  iterations) key on the token, so a mutated graph never finds its old
  shortcuts; frozen graphs are never stored. Only deterministic providers
  that consume no randomness are cached (a cached rng-consuming pipeline
  would silently change downstream random streams).
"""

from __future__ import annotations

import random
from collections import OrderedDict
from dataclasses import dataclass, field, replace

import networkx as nx

from repro.congest.network import validate_scheduler
from repro.congest.stats import RoundStats
from repro.core.baseline import bfs_tree_shortcut
from repro.core.bounds import check_positive, check_tree
from repro.core.certifying import certify_or_shortcut
from repro.core.full import build_full_shortcut
from repro.core.greedy import greedy_shortcut
from repro.core.shortcut import Shortcut, ShortcutQuality
from repro.graphs.adjacency import graph_memo
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
    "resolve_provider",
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
        tree: optional pre-built rooted tree, which must span ``graph``;
            auto-resolved (and memoized per graph) when the provider needs
            one and none is given.
        provider: the registered provider name (see
            :func:`available_providers`).
        delta: minor-density parameter, a finite real > 0; ``None``
            auto-resolves to the generator's analytic bound or, failing
            that, the graph's degeneracy (memoized per graph — every app
            sees the same default for the same graph).
        rng: seed or generator for randomized pipelines.
        scheduler: simulator scheduler backend for measured constructions.
        latency_model: per-edge latency model for the event scheduler
            (name or :class:`~repro.congest.asynchronous.LatencyModel`
            instance; ``None`` = uniform/lockstep-equivalent).
        options: provider-specific extras, hashable values under the keys
            the provider declares in ``option_keys`` (e.g. ``order`` for
            ``greedy``, ``initial_delta`` for ``certifying``).
    """

    graph: nx.Graph
    partition: Partition
    tree: RootedTree | None = None
    provider: str = "theorem31-centralized"
    delta: float | None = None
    rng: int | random.Random | None = None
    scheduler: str = "event"
    latency_model: object = None
    options: dict = field(default_factory=dict)


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


def resolve_provider(provider: str | None = None, construction: str | None = None) -> str:
    """The registered provider an app runs, resolved once at its entry.

    ``provider`` names it; ``construction`` (``"centralized"`` or
    ``"simulated"``) is shorthand for ``provider="theorem31-<construction>"``;
    neither means ``"theorem31-centralized"``. Every app funnels its
    selector arguments through here, so bad ones fail identically
    everywhere.

    Raises:
        ShortcutError: both arguments given, an unknown construction, or
            an unknown provider (the message lists the registry).
    """
    if construction is not None:
        if provider is not None:
            raise ShortcutError(
                f"give provider= or construction=, not both (got provider="
                f"{provider!r}, construction={construction!r})"
            )
        if construction not in _CONSTRUCTIONS:
            raise ShortcutError(
                f"unknown construction {construction!r}; choose from: "
                f"{', '.join(_CONSTRUCTIONS)}"
            )
        provider = f"theorem31-{construction}"
    elif provider is None:
        provider = "theorem31-centralized"
    return get_provider(provider).name


# ----------------------------------------------------------------------
# Per-graph memoization: delta, trees, shortcuts
# ----------------------------------------------------------------------

# Outcomes reference their graph (``Shortcut.graph``), so shortcuts sit in
# bounded LRUs rather than on the graph. Both tiers key on the graph's
# token (:func:`_graph_token`), which a structural mutation replaces.
_OUTCOME_CACHE: "OrderedDict[tuple, ShortcutOutcome]" = OrderedDict()
_CACHE_MAX_ENTRIES = 256

# Hit/miss/eviction counts of both tiers per registered provider name;
# counters appear on first touch so providers that never went through the
# cache stay absent.
_PROVIDER_COUNTS: dict[str, dict[str, int]] = {}
_COUNTED_EVENTS = (
    "hits", "misses", "evictions",
    "iteration_hits", "iteration_misses", "iteration_evictions",
)

# The shared service tier for *per-iteration* partial results: concurrent
# jobs whose full-shortcut requests differ (different deltas, different
# option sets — distinct outcome-cache keys) still overlap iteration by
# iteration whenever their partitions agree on the still-unsatisfied
# tail. Keys are ``(token, tree, parts, delta)``.
_ITERATION_CACHE: "OrderedDict[tuple, object]" = OrderedDict()
_ITERATION_CACHE_MAX_ENTRIES = 1024


def _provider_counts(name: str) -> dict[str, int]:
    return _PROVIDER_COUNTS.setdefault(name, dict.fromkeys(_COUNTED_EVENTS, 0))


def _graph_token(graph: nx.Graph) -> object | None:
    """``graph``'s key in both shortcut tiers, replaced by any mutation;
    ``None`` for a frozen graph, whose requests are never stored."""
    if nx.is_frozen(graph):
        return None
    return graph_memo(graph, "repro.shortcut_token", object)


class _IterationCacheView:
    """The ``iteration_cache`` mapping a provider hands to
    :func:`~repro.core.full.build_full_shortcut`.

    Scopes the per-iteration keys ``(parts, delta)`` to one graph token and
    tree, charges hit/miss/eviction events to the owning provider's
    counters, and enforces the shared LRU bound.
    """

    __slots__ = ("scope", "provider")

    def __init__(self, token: object, tree: RootedTree, provider: str):
        self.scope = (token, tree)
        self.provider = provider

    def get(self, key: tuple):
        full_key = (*self.scope, *key)
        result = _ITERATION_CACHE.get(full_key)
        counts = _provider_counts(self.provider)
        if result is None:
            counts["iteration_misses"] += 1
            return None
        _ITERATION_CACHE.move_to_end(full_key)
        counts["iteration_hits"] += 1
        return result

    def __setitem__(self, key: tuple, result) -> None:
        _ITERATION_CACHE[(*self.scope, *key)] = result
        while len(_ITERATION_CACHE) > _ITERATION_CACHE_MAX_ENTRIES:
            _ITERATION_CACHE.popitem(last=False)
            _provider_counts(self.provider)["iteration_evictions"] += 1


def resolve_delta(graph: nx.Graph, delta: float | None = None) -> float:
    """The single delta-defaulting rule every app shares.

    An explicit ``delta`` wins; otherwise the generator's analytic bound
    (:func:`repro.graphs.minors.analytic_delta_upper`, read on each call),
    and failing that the graph's degeneracy (always an upper bound on minor
    density), memoized on the graph by :func:`graph_memo`.
    """
    if delta is not None:
        return delta
    from repro.graphs.minors import analytic_delta_upper
    from repro.graphs.properties import degeneracy

    resolved = analytic_delta_upper(graph)
    if resolved is not None:
        return resolved
    return graph_memo(
        graph, "repro.degeneracy_delta", lambda: max(1.0, float(degeneracy(graph)))
    )


def resolve_tree(graph: nx.Graph, tree: RootedTree | None = None) -> RootedTree:
    """A BFS tree for ``graph``, memoized on the graph by :func:`graph_memo`
    so repeated requests (MST phases, repeated part-wise solves) reuse one
    tree instead of rebuilding it."""
    if tree is not None:
        return tree
    return graph_memo(graph, "repro.bfs_tree", lambda: bfs_tree(graph))


def shortcut_cache_info() -> dict:
    """Cache statistics — a superset of the historical keys.

    Returns ``{"hits", "misses", "evictions", "entries"}`` for the
    outcome cache (the counts summed over providers),
    ``"iteration_entries"`` for the shared per-iteration tier, and
    ``"providers"``: a per-provider breakdown (``hits``/``misses``/
    ``evictions`` plus the ``iteration_*`` triple), present only for
    providers that touched a cache since the last clear.
    """
    return {
        **{
            event: sum(counts[event] for counts in _PROVIDER_COUNTS.values())
            for event in ("hits", "misses", "evictions")
        },
        "entries": len(_OUTCOME_CACHE),
        "iteration_entries": len(_ITERATION_CACHE),
        "providers": {
            name: dict(counts) for name, counts in sorted(_PROVIDER_COUNTS.items())
        },
    }


def clear_shortcut_cache() -> None:
    """Drop both shortcut tiers (outcomes and iterations) and their counters.

    BFS trees and degeneracy δ are structure memos on each graph, like its
    CSR: they stay until the graph mutates or is freed.
    """
    _OUTCOME_CACHE.clear()
    _ITERATION_CACHE.clear()
    _PROVIDER_COUNTS.clear()


def _copy_outcome(outcome: ShortcutOutcome, cache_hit: bool = False) -> ShortcutOutcome:
    """Copy stats and provenance (on store and on hit), so a caller editing
    its outcome never reaches the cache; the read-only products are shared."""
    return ShortcutOutcome(
        shortcut=outcome.shortcut,
        tree=outcome.tree,
        stats=outcome.stats.copy(),
        provenance=replace(
            outcome.provenance,
            cache_hit=cache_hit,
            details=dict(outcome.provenance.details),
        ),
        _quality_cache=outcome._quality_cache,
    )


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
    * ``option_keys`` — the ``request.options`` keys :meth:`build` reads;
      the dispatcher rejects any other key;
    * ``cacheable`` — whether outcomes may be memoized. Only constructions
      that are deterministic functions of the cache key and consume **no**
      randomness may set this (a cached rng-consuming pipeline would skip
      rng draws on hits and silently change downstream streams).
    """

    name: str = "abstract"
    needs_delta: bool = False
    needs_tree: bool = True
    option_keys: tuple[str, ...] = ()
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


def _check_options(provider: ShortcutProvider, options: dict) -> None:
    """Reject option keys ``provider`` does not read, and unhashable
    values (options are part of the outcome-cache key)."""
    unknown = sorted(map(repr, set(options) - set(provider.option_keys)))
    if unknown:
        reads = ", ".join(provider.option_keys) or "no options"
        raise ShortcutError(
            f"provider {provider.name!r} does not read option(s) "
            f"{', '.join(unknown)}; it reads: {reads}"
        )
    for key, value in options.items():
        try:
            hash(value)
        except TypeError:
            raise ShortcutError(
                f"option {key!r} of provider {provider.name!r} must be "
                f"hashable, got {value!r}"
            ) from None


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
        ShortcutError: unknown provider, an option key the provider does
            not declare or an unhashable option value, bad
            scheduler/latency-model, a ``delta`` that is not a finite
            real > 0, a ``tree`` that does not span the graph, or any
            provider-specific failure.
    """
    provider = get_provider(request.provider)
    _check_options(provider, request.options)
    validate_scheduler(
        request.scheduler, ShortcutError,
        latency_model=request.latency_model,
    )
    if request.delta is not None:
        check_positive(request.delta, "delta")
    tree = request.tree
    if tree is not None:
        check_tree(tree, request.graph)
    elif provider.needs_tree:
        tree = resolve_tree(request.graph)
    delta = resolve_delta(request.graph, request.delta) if provider.needs_delta else request.delta

    key = provider.cache_key(request, delta, tree)
    token = None if key is None else _graph_token(request.graph)
    if token is not None:
        full_key = (token, *key)
        counts = _provider_counts(provider.name)
        cached = _OUTCOME_CACHE.get(full_key)
        if cached is not None:
            _OUTCOME_CACHE.move_to_end(full_key)
            counts["hits"] += 1
            return _copy_outcome(cached, cache_hit=True)
        counts["misses"] += 1

    outcome = provider.build(request, delta, tree)
    if token is not None:
        _OUTCOME_CACHE[full_key] = _copy_outcome(outcome)
        while len(_OUTCOME_CACHE) > _CACHE_MAX_ENTRIES:
            evicted_key, _ = _OUTCOME_CACHE.popitem(last=False)
            # full_key layout: (token, provider name, ...).
            _provider_counts(evicted_key[1])["evictions"] += 1
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
        token = _graph_token(request.graph)
        result = build_full_shortcut(
            request.graph, tree, request.partition, delta,
            escalate_on_stall=True,
            iteration_cache=(
                None if token is None else _IterationCacheView(token, tree, self.name)
            ),
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
    Needs no pre-built tree either — without one, the first iteration
    constructs a *measured* BFS tree inside the simulator and every later
    iteration reuses it, so resolving a centralized one up front would be
    a wasted full-graph pass. A request's tree is built on as given: it
    must come from an earlier measured run of the same query (the
    Borůvka loop passes the tree of its first phase with a multi-node
    part), whose root knows its depth.
    """

    name = "theorem31-simulated"
    needs_delta = True
    needs_tree = False
    option_keys = ("sweep",)
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
            request.graph, tree, request.partition, delta,
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
    option_keys = ("order", "congestion_cap")
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
    option_keys = ("initial_delta",)
    cacheable = False  # witness sampling consumes the rng stream on stalls

    def build(self, request, delta, tree):
        initial_delta = request.options.get(
            "initial_delta", request.delta if request.delta is not None else 1.0
        )
        check_positive(initial_delta, "initial_delta")
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
