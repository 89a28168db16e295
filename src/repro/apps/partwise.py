"""The part-wise aggregation problem, end to end (Definition 2.1).

This is the library's highest-level entry point: given a graph, a part
collection, and per-node values, solve the part-wise aggregation problem —
obtain a shortcut from the :mod:`repro.core.providers` registry, schedule
the aggregation, and return per-part aggregates with full measured round
accounting. The paper's whole program is that this function's round count
is O~(δD) instead of O~(D + √n) on minor-sparse graphs.

Also provides the *multicast* variant from Definition 2.1 ("exactly one
node in each part has a message and it should be delivered to all nodes of
the part"), which reuses the same scheduling engine: the leader's value is
what the broadcast phase delivers.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from dataclasses import dataclass

import networkx as nx

from repro.congest.network import validate_scheduler
from repro.congest.stats import RoundStats
from repro.core.providers import (
    ShortcutProvenance,
    ShortcutRequest,
    build_shortcut,
    resolve_provider,
)
from repro.core.shortcut import Shortcut
from repro.graphs.partition import Partition
from repro.sched.partwise import partwise_aggregate
from repro.util.errors import ShortcutError
from repro.util.rng import ensure_rng

__all__ = [
    "PartwiseSolution",
    "solve_partwise_aggregation",
    "solve_partwise_multicast",
    "partwise_job",
]


@dataclass
class PartwiseSolution:
    """Everything a caller needs from an end-to-end part-wise aggregation.

    Attributes:
        values: aggregate (or delivered message) per part index.
        shortcut: the shortcut used (inspectable: quality, blocks, ...).
        construction_stats: measured construction rounds (simulated
            providers) or zero (centralized planning).
        aggregation_stats: measured scheduling rounds.
        provenance: which shortcut provider ran (and whether the shortcut
            came from the memo cache).
        total_rounds: construction + aggregation rounds.
    """

    values: dict[int, object]
    shortcut: Shortcut
    construction_stats: RoundStats
    aggregation_stats: RoundStats
    provenance: ShortcutProvenance | None = None

    @property
    def total_rounds(self) -> int:
        return self.construction_stats.rounds + self.aggregation_stats.rounds


def solve_partwise_aggregation(
    graph: nx.Graph,
    partition: Partition,
    values: dict[int, object],
    combine: Callable[[object, object], object],
    delta: float | None = None,
    rng: int | random.Random | None = None,
    scheduler: str = "event",
    provider: str = "theorem31-centralized",
    latency_model: object = None,
) -> PartwiseSolution:
    """Solve Definition 2.1's aggregation variant end to end.

    Args:
        graph, partition: the instance (parts disjoint & connected).
        values: per-node inputs (part nodes only; others ignored).
        combine: associative-commutative aggregate (min, max, +, ...).
        delta: minor-density parameter; default analytic-or-degeneracy
            (the shared :func:`repro.core.providers.resolve_delta` rule).
        scheduler: simulator scheduler for the simulated construction
            (``"event"``, ``"dense"``, or ``"vectorized"``; see
            :mod:`repro.congest`).
        provider: shortcut-provider name (see
            :func:`repro.core.providers.available_providers`):
            ``"theorem31-centralized"`` (free planning),
            ``"theorem31-simulated"`` (measured Theorem 1.5 pipeline rounds
            included), ``"baseline"`` or ``"none"`` (aggregate within bare
            ``G[P_i]`` — the slow control arm), among others.
        latency_model: per-edge latency model (requires
            ``scheduler="event"``): construction and aggregation run
            latency-realistically and the aggregation stats report
            ``virtual_time``.

    Raises:
        ShortcutError: unknown provider, or an aggregation that cannot
            complete (disconnected ``G[P_i] + H_i``).
    """
    provider = resolve_provider(provider)
    validate_scheduler(
        scheduler, ShortcutError, latency_model=latency_model
    )
    rng = ensure_rng(rng)
    outcome = build_shortcut(
        ShortcutRequest(
            graph=graph,
            partition=partition,
            provider=provider,
            delta=delta,
            rng=rng,
            scheduler=scheduler,
            latency_model=latency_model,
        )
    )
    shortcut = outcome.shortcut
    result = partwise_aggregate(
        graph, partition, shortcut, values, combine, rng=rng,
        latency_model=latency_model,
    )
    if result.incomplete:
        raise ShortcutError(
            f"aggregation incomplete for parts {result.incomplete}; "
            "increase max_rounds or use a better shortcut method"
        )
    return PartwiseSolution(
        values=result.values,
        shortcut=shortcut,
        construction_stats=outcome.stats,
        aggregation_stats=result.stats,
        provenance=outcome.provenance,
    )


def solve_partwise_multicast(
    graph: nx.Graph,
    partition: Partition,
    messages: dict[int, object],
    delta: float | None = None,
    rng: int | random.Random | None = None,
    scheduler: str = "event",
    provider: str = "theorem31-centralized",
    latency_model: object = None,
) -> PartwiseSolution:
    """Definition 2.1's multicast variant: one message per part, to all members.

    ``messages`` maps each part index to the message its leader holds. The
    scheduling engine's broadcast phase delivers it to every part node; the
    returned ``values[i]`` is the delivered message (asserted identical to
    the input — the engine's convergecast carries it up from the leader).

    ``provider`` and the rest select and run the shortcut as in
    :func:`solve_partwise_aggregation`.

    Raises:
        ShortcutError: unknown provider, a part index without a message, a
            message keyed by anything but a part index, or failed delivery.
    """
    provider = resolve_provider(provider)
    parts = range(len(partition))
    missing = [i for i in parts if i not in messages]
    if missing:
        raise ShortcutError(f"no message provided for parts {missing[:5]}")
    unknown = [key for key in messages if not (isinstance(key, int) and key in parts)]
    if unknown:
        raise ShortcutError(f"messages for parts not in the partition: {unknown[:5]}")
    leader_values = {
        partition.leader_of(index): (index, message)
        for index, message in messages.items()
    }

    def keep_message(a, b):
        # Exactly one non-None input per part (the leader's); combine is
        # only invoked when both sides are present, which happens only if a
        # caller double-assigned messages — prefer the lower part index for
        # determinism.
        return min(a, b)

    solution = solve_partwise_aggregation(
        graph,
        partition,
        leader_values,
        keep_message,
        delta=delta,
        rng=rng,
        scheduler=scheduler,
        provider=provider,
        latency_model=latency_model,
    )
    solution.values = {index: value[1] for index, value in solution.values.items()}
    return solution


def partwise_job(
    graph, partition, values, combine, job_id="partwise", on_complete=None, **kwargs
):
    """A part-wise aggregation query as a submittable job.

    Returns a call :class:`~repro.congest.jobs.Job` for
    :meth:`repro.serve.JobServer.submit`: the solve pairs a shortcut
    construction with a packet-scheduler aggregation, so it executes
    atomically at admission — under the server's admission control and
    per-job accounting, but not fabric-multiplexed. The outcome's
    ``results`` is the :class:`PartwiseSolution`; its ``stats`` is the
    sequential composition of the construction and aggregation costs.
    ``kwargs`` pass through to :func:`solve_partwise_aggregation`.
    """
    from repro.congest.jobs import Job

    def run():
        solution = solve_partwise_aggregation(
            graph, partition, values, combine, **kwargs
        )
        return solution, solution.construction_stats + solution.aggregation_stats

    return Job(job_id, call=run, on_complete=on_complete)
