"""The latency-model registry: per-edge transit for the ``event`` backend.

CONGEST rounds are an abstraction over variable link latency: the paper's
round-complexity claims (Theorem 1.2's ``O(δD log n)`` constructions) are
stated in lockstep, but the shortcut framework is motivated by real
networks where a message's transit time depends on the link it crosses
(Haeupler–Li–Zuzic, arXiv:1801.06237, make the same point for minor-free
families). ``SyncNetwork(scheduler="event", latency_model=...)`` executes
:class:`~repro.congest.node.NodeAlgorithm` instances on the ``event``
engine's *virtual clock* (:class:`~repro.congest.engine.Stepper`): a
message sent on edge ``e`` at tick ``t`` is delivered at
``t + latency(e)``, where the per-edge latency comes from a pluggable
:class:`LatencyModel` registered here. This is the one delivery
convention shared by every latency-aware engine in the codebase — written
once as :class:`~repro.congest.engine.Transit`, which the job layer and
the packet scheduler (:mod:`repro.sched.partwise`) use too — and
``latency(e) = 1`` reproduces the lockstep sent-in-``r``,
delivered-in-``r + 1`` schedule exactly (the test suite pins a forced
all-ones latency table byte-identical to running with no model at all,
in both engines).

Two regimes, one code path:

* **Lockstep mode** — the default ``uniform`` model is lockstep transit:
  the run is byte-identical to ``event`` with no model (results, rounds,
  messages, bits, per-edge congestion, rng streams, ``virtual_time``).
* **Latency mode** — any non-uniform model. Activation times spread out
  per edge; :class:`~repro.congest.stats.RoundStats` gains the wall-model
  dimension (``virtual_time``, per-node ``completion_times``), so
  benchmarks can contrast round counts with latency-weighted completion —
  the scenario family the lockstep backends cannot express.

Determinism is absolute in both modes: latencies are a deterministic
function of ``(run_seed, edge)`` (never drawn from a shared generator),
activation within a tick follows global node-index order, inboxes are
materialized in sender-index order, and the virtual clock never consults
wall time — reruns with the same seed replay byte-identically.

``max_rounds`` bounds the virtual clock (under uniform latencies this is
exactly the round bound); ``ctx.round`` carries the current tick, so
timer-driven algorithms see a monotone clock in both modes.
"""

from __future__ import annotations

import hashlib
import heapq
import math

import networkx as nx

from repro.util.errors import CongestViolation

__all__ = [
    "LatencyModel",
    "LoadDependentLatency",
    "LinkSchedule",
    "UniformLatency",
    "SeededJitterLatency",
    "DegreeProportionalLatency",
    "HeavyTailedLatency",
    "ContentionLatency",
    "LATENCY_MODELS",
    "register_latency_model",
    "resolve_latency_model",
    "available_latency_models",
]


def _edge_hash(run_seed: int, u: int, v: int) -> int:
    """Deterministic 64-bit hash of ``(run_seed, edge)`` for latency draws.

    Keyed on the canonical (sorted) endpoint pair so both directions of an
    edge share one draw — link latency is a property of the link.
    """
    a, b = (u, v) if u <= v else (v, u)
    digest = hashlib.sha256(f"latency:{run_seed}:{a}:{b}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


class LatencyModel:
    """One per-edge latency assignment rule — the *static* model contract.

    Subclasses set ``name`` (the registry key, see
    :func:`register_latency_model`) and implement :meth:`latency`, a
    deterministic function of ``(run_seed, edge)`` — no shared generator,
    so latencies are independent of iteration order and identical on every
    replay of a seed. :meth:`build` materializes the full directed-edge
    table the backend executes against.

    This is one of two capability classes in the registry:

    * **static** (this base, ``is_dynamic = False``) — latency is a pure
      function of ``(run_seed, edge)``, frozen into a table before the run
      starts. ``uniform``, ``seeded-jitter``, ``degree-proportional``, and
      ``heavy-tailed`` are static.
    * **load-dependent** (:class:`LoadDependentLatency`,
      ``is_dynamic = True``) — transit time is computed at *send* time
      from the send tick and the link's instantaneous in-flight load, via
      the narrow :class:`LinkSchedule` view every engine reaches through
      :class:`~repro.congest.engine.Transit`.
      ``contention`` is load-dependent.

    Either way the one shared delivery convention holds: a message sent on
    edge ``e`` at tick ``t`` is delivered at ``t + transit``, with
    ``transit >= 1`` and ``transit == 1`` reproducing lockstep.
    """

    name: str = "abstract"

    #: Capability flag — False for static models (pure ``(run_seed, edge)``
    #: tables), True for load-dependent models (per-send transit via
    #: :class:`LinkSchedule`). Engines branch on this flag, never on names.
    is_dynamic: bool = False

    def latency(self, graph: nx.Graph, run_seed: int, u: int, v: int) -> int:
        """Transit time of edge ``(u, v)`` in ticks (must be >= 1)."""
        raise NotImplementedError

    def build(self, graph: nx.Graph, run_seed: int) -> dict[tuple[int, int], int]:
        """Latency per directed edge; validates every value is >= 1."""
        table: dict[tuple[int, int], int] = {}
        for u, v in graph.edges():
            forward = self.latency(graph, run_seed, u, v)
            backward = self.latency(graph, run_seed, v, u)
            if forward < 1 or backward < 1:
                raise CongestViolation(
                    f"latency model {self.name!r} produced a latency < 1 tick "
                    f"on edge ({u}, {v})"
                )
            table[(u, v)] = forward
            table[(v, u)] = backward
        return table

    def schedule(self, graph: nx.Graph) -> "LinkSchedule":
        """The per-run link schedule of a load-dependent model.

        Static models have no load state to track; asking for a schedule
        is an engine bug, not a user error, so it raises.
        """
        raise CongestViolation(
            f"latency model {self.name!r} is static; it has no "
            f"load-dependent link schedule (build a table via build())"
        )

    @classmethod
    def from_spec(cls, arg: str) -> "LatencyModel":
        """Instantiate from a ``name:<arg>`` spec string (CLI surface).

        Models that take no parameter reject the arg uniformly; models
        with one (``contention:<weight>``) override this.
        """
        raise CongestViolation(
            f"latency model {cls.name!r} takes no ':<arg>' parameter "
            f"(got {arg!r})"
        )

    @property
    def is_uniform(self) -> bool:
        """True only for the lockstep-equivalent unit-latency model."""
        return False


class UniformLatency(LatencyModel):
    """Every edge takes one tick — the lockstep-equivalent mode.

    The virtual-time schedule degenerates to the round structure, so a
    run under this model is byte-identical to one with no model.
    """

    name = "uniform"

    def latency(self, graph, run_seed, u, v):
        return 1

    def build(self, graph, run_seed):
        # No table: every edge takes one tick (Transit.resolve makes a
        # uniform model lockstep without asking for one).
        return None

    @property
    def is_uniform(self):
        return True


class SeededJitterLatency(LatencyModel):
    """Symmetric per-link jitter: latency uniform in ``[1, spread]``.

    The draw is a hash of ``(run_seed, canonical edge)``, so both
    directions of a link agree and runs replay byte-identically per seed.
    Models heterogeneous link speeds with no topology correlation.
    """

    name = "seeded-jitter"

    def __init__(self, spread: int = 8):
        if spread < 1:
            raise CongestViolation(f"jitter spread must be >= 1, got {spread}")
        self.spread = spread

    def latency(self, graph, run_seed, u, v):
        return 1 + _edge_hash(run_seed, u, v) % self.spread


class DegreeProportionalLatency(LatencyModel):
    """Latency grows with endpoint degrees: contention at hub links.

    ``latency(u, v) = 1 + (deg(u) + deg(v)) // scale`` — a high-degree
    endpoint serializes its links, so edges at hubs are slow while the
    periphery stays fast. Deterministic from the topology alone (the
    ``run_seed`` is unused); symmetric by construction.
    """

    name = "degree-proportional"

    def __init__(self, scale: int = 4):
        if scale < 1:
            raise CongestViolation(f"degree scale must be >= 1, got {scale}")
        self.scale = scale

    def latency(self, graph, run_seed, u, v):
        return 1 + (graph.degree(u) + graph.degree(v)) // self.scale


class HeavyTailedLatency(LatencyModel):
    """Seeded Pareto-tailed per-link jitter: a few links are *very* slow.

    Static (a pure ``(run_seed, edge)`` function): the canonical-edge hash
    is mapped through the inverse Pareto CDF, ``latency =
    ceil(scale * U^(-1/alpha))`` for ``U`` uniform in ``(0, 1]``, clipped
    at ``cap``. With the default ``alpha = 1.5`` most links sit at
    ``scale`` while a heavy tail of stragglers models the long-RTT links
    real datacenter traces show; lowering ``alpha`` fattens the tail.
    Both directions of a link agree, and runs replay byte-identically per
    seed.
    """

    name = "heavy-tailed"

    def __init__(self, alpha: float = 1.5, scale: int = 1, cap: int = 64):
        if not math.isfinite(alpha) or alpha <= 0:
            raise CongestViolation(
                f"heavy-tailed latency model: pareto alpha must be finite and > 0, "
                f"got {alpha}"
            )
        if scale < 1:
            raise CongestViolation(
                f"heavy-tailed latency model: pareto scale must be >= 1, got {scale}"
            )
        if cap < scale:
            raise CongestViolation(
                f"heavy-tailed latency model: pareto cap must be >= scale ({scale}), got {cap}"
            )
        self.alpha = alpha
        self.scale = scale
        self.cap = cap

    def latency(self, graph, run_seed, u, v):
        # (hash + 1) / 2^64 is uniform in (0, 1]; U = 1 gives the minimum
        # (scale), U -> 0 the tail — clipped so one straggler link cannot
        # push max_rounds bounds into the millions.
        uniform = (_edge_hash(run_seed, u, v) + 1) / 2.0**64
        draw = self.scale * uniform ** (-1.0 / self.alpha)
        return min(self.cap, math.ceil(draw))


class LoadDependentLatency(LatencyModel):
    """Base for *load-dependent* models: transit is computed at send time.

    The capability split (see :class:`LatencyModel`): subclasses implement
    :meth:`transit_time`, a deterministic, **seed-free** function of
    ``(edge, send tick, in-flight count)`` — every tenant of a shared
    fabric observes the same physical link, so there is no per-run seed to
    thread (randomized link behavior belongs in static models, which *are*
    seeded). Engines obtain a fresh :class:`LinkSchedule` per run via
    :meth:`schedule` and ask it for one transit per message; the schedule
    owns the in-flight bookkeeping and is the only state involved, so a
    replay of the same send sequence reproduces the same delivery times
    byte for byte.
    """

    is_dynamic = True

    def transit_time(self, u: int, v: int, tick: int, inflight: int) -> int:
        """Transit of a message entering edge ``(u, v)`` at ``tick``.

        ``inflight`` is the number of messages currently in transit on the
        *link* ``{u, v}`` (both directions — bandwidth is a property of
        the link, like the static models' canonical-edge hashes). Must
        return >= 1.
        """
        raise NotImplementedError

    def build(self, graph, run_seed):
        raise CongestViolation(
            f"latency model {self.name!r} is load-dependent; it has no "
            f"static per-edge table — execute it through a LinkSchedule "
            f"(a backend whose supports_latency_models flag is set)"
        )

    def schedule(self, graph: nx.Graph) -> "LinkSchedule":
        """A fresh per-run :class:`LinkSchedule` bound to this model."""
        return LinkSchedule(self)

    def worst_transit(self, max_load: int) -> int:
        """Upper bound on one transit under ``max_load`` concurrent flows.

        Used by drivers to scale timeout bounds (the dynamic analogue of
        ``max(latency_table.values())``); a loose bound only risks a later
        timeout, never wrong results.
        """
        raise NotImplementedError


class LinkSchedule:
    """The narrow runtime view a load-dependent model executes through.

    Tracks, per undirected link, how many messages are in transit *right
    now*, fed by the engines' timed staging queues: every granted send
    calls :meth:`transit` exactly once, with non-decreasing ``now`` ticks
    (the virtual-clock engines pop time in order), and the schedule
    retires each message from the link when its delivery tick has passed.
    A message in flight for the open interval ``(send, send + transit)``
    contends with every send that enters the link inside it; a message
    already delivered at tick ``t`` does not contend with sends at ``t``.

    Determinism: the in-flight counts are a pure function of the send
    sequence (edge, tick) presented to :meth:`transit`, and every engine
    presents sends in its canonical activation order — so same seed +
    same admission schedule means byte-identical delivery times.
    """

    __slots__ = ("model", "_inflight", "_releases")

    def __init__(self, model: LoadDependentLatency):
        self.model = model
        self._inflight: dict[tuple[int, int], int] = {}
        self._releases: list[tuple[int, tuple[int, int]]] = []

    def load(self, u: int, v: int, now: int) -> int:
        """Messages currently in transit on link ``{u, v}`` at ``now``."""
        self._drain(now)
        return self._inflight.get(_link(u, v), 0)

    def transit(self, u: int, v: int, now: int) -> int:
        """Charge one message entering edge ``(u, v)`` at tick ``now``.

        Returns the transit time (>= 1) and records the message as in
        flight on the link until ``now + transit``.
        """
        self._drain(now)
        link = _link(u, v)
        inflight = self._inflight.get(link, 0)
        transit = self.model.transit_time(u, v, now, inflight)
        if transit < 1:
            raise CongestViolation(
                f"latency model {self.model.name!r} produced a transit "
                f"< 1 tick on edge ({u}, {v}) at tick {now}"
            )
        self._inflight[link] = inflight + 1
        heapq.heappush(self._releases, (now + transit, link))
        return transit

    def _drain(self, now: int) -> None:
        releases = self._releases
        inflight = self._inflight
        while releases and releases[0][0] <= now:
            _, link = heapq.heappop(releases)
            remaining = inflight[link] - 1
            if remaining:
                inflight[link] = remaining
            else:
                del inflight[link]


def _link(u: int, v: int) -> tuple[int, int]:
    """Canonical (sorted) endpoint pair: load is a property of the link."""
    return (u, v) if u <= v else (v, u)


class ContentionLatency(LoadDependentLatency):
    """Flow-level bandwidth sharing: concurrent flows split link capacity.

    A message entering a link that already carries ``k`` in-flight
    messages transits in ``ceil(base * (1 + weight * k))`` ticks — the
    fluid-flow approximation of fair bandwidth sharing (``k + 1`` flows
    each get ``1/(k + 1)`` of the link, so transit stretches
    proportionally; ``weight`` scales how much of the stretch is felt,
    the knob benchmark contention sweeps turn). An unloaded link transits
    in ``base`` ticks, so with ``base = 1`` an uncontended execution is
    lockstep-equivalent and *all* extra virtual time is congestion cost —
    exactly the congestion·dilation regime the shortcut bounds live in.

    Seed-free and deterministic: transit depends only on the send
    sequence, so same seed + same admission schedule replays
    byte-identically. Spec form: ``contention:<weight>``.
    """

    name = "contention"

    def __init__(self, base: int = 1, weight: float = 1.0):
        if base < 1:
            raise CongestViolation(f"contention base must be >= 1, got {base}")
        if not math.isfinite(weight) or weight < 0:
            raise CongestViolation(
                f"contention weight must be finite and >= 0, got {weight}"
            )
        self.base = base
        self.weight = weight

    @classmethod
    def from_spec(cls, arg: str) -> "ContentionLatency":
        try:
            weight = float(arg)
        except ValueError:
            raise CongestViolation(
                f"contention latency model: weight {arg!r} is not a number "
                f"(spec form: contention:<weight>)"
            ) from None
        return cls(weight=weight)

    def transit_time(self, u, v, tick, inflight):
        return math.ceil(self.base * (1.0 + self.weight * inflight))

    def worst_transit(self, max_load):
        return math.ceil(self.base * (1.0 + self.weight * max(0, max_load)))


LATENCY_MODELS: dict[str, type[LatencyModel]] = {}


def register_latency_model(
    model: type[LatencyModel], replace_existing: bool = False
) -> None:
    """Register a :class:`LatencyModel` class under ``model.name``.

    Mirrors :func:`repro.congest.engine.register_backend`: the name
    becomes resolvable everywhere a ``latency_model=`` argument or
    ``--latency-model`` flag is accepted, and appears in
    ``repro registry`` output. Static models (pure ``(run_seed, edge)``
    tables) subclass :class:`LatencyModel`; load-dependent models
    (transit from instantaneous link load) subclass
    :class:`LoadDependentLatency` — see ``docs/latency-models.md`` for
    the two contracts and ``docs/extending.md`` for a worked example.

    Raises:
        ValueError: when the name is taken and ``replace_existing`` is
            False.
    """
    if model.name in LATENCY_MODELS and not replace_existing:
        raise ValueError(
            f"latency model {model.name!r} is already registered"
        )
    LATENCY_MODELS[model.name] = model


register_latency_model(UniformLatency)
register_latency_model(SeededJitterLatency)
register_latency_model(DegreeProportionalLatency)
register_latency_model(HeavyTailedLatency)
register_latency_model(ContentionLatency)


def available_latency_models() -> tuple[str, ...]:
    """Sorted names of all registered latency models."""
    return tuple(sorted(LATENCY_MODELS))


def resolve_latency_model(
    spec: str | LatencyModel | None,
    exc: type[Exception] = ValueError,
) -> LatencyModel:
    """Resolve a name / ``name:arg`` spec / instance / ``None`` to a model.

    ``None`` means uniform (lockstep-equivalent). String specs may carry
    one model parameter after a colon — ``contention:<weight>`` — which
    :meth:`LatencyModel.from_spec` interprets; construction failures (a
    non-numeric weight) are re-raised as ``exc`` so every API boundary
    reports them uniformly.

    Raises:
        exc: unknown model name (the message lists the registry, matching
            the scheduler- and provider-registry error conventions) or a
            model-construction failure.
    """
    if spec is None:
        return UniformLatency()
    if isinstance(spec, LatencyModel):
        return spec
    # Non-string specs (a list, a class, ...) must fail with the caller's
    # exception type too, not leak a TypeError from the dict lookup.
    model_cls = arg = None
    if isinstance(spec, str):
        name, colon, arg = spec.partition(":")
        model_cls = LATENCY_MODELS.get(name)
        if not colon:
            arg = None
    if model_cls is None:
        raise exc(
            f"unknown latency model {spec!r}; registered latency models: "
            f"{', '.join(available_latency_models())}"
        )
    try:
        return model_cls() if arg is None else model_cls.from_spec(arg)
    except CongestViolation as err:
        if exc is CongestViolation:
            raise
        raise exc(str(err)) from None

