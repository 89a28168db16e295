"""The job service: queue queries, multiplex them, observe them per job.

The north star is a service where many tenants run shortcut and app
queries concurrently against one shared graph. :class:`JobServer` is that
front door:

* :meth:`JobServer.submit` enqueues any :class:`~repro.congest.jobs.Job`
  (a population of node algorithms, possibly scoped to a region of the
  graph, or an atomic call job);
* :meth:`JobServer.submit_shortcut` enqueues a
  :class:`~repro.core.providers.ShortcutRequest` — the request is
  resolved through :func:`~repro.core.providers.build_shortcut`, so
  concurrent tenants share the provider cache tiers (memoized outcomes
  and per-iteration partials) with per-provider hit/miss/eviction
  counters in :func:`~repro.core.providers.shortcut_cache_info`;
* :meth:`JobServer.drain` runs everything queued through one
  :class:`~repro.congest.jobs.JobScheduler` execution — admission control
  (``max_inflight``), fair per-edge bandwidth arbitration, per-job
  RoundStats — and fires completion callbacks as each job finishes.

The apps expose job-submittable entry points (``sssp_job``, ``mst_job``,
``connectivity_job``, ``mincut_job``, ``partwise_job``) that build
ready-to-submit jobs for this server.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable

import networkx as nx

from repro.congest.jobs import Job, JobOutcome, JobScheduler, ScheduleResult
from repro.congest.stats import RoundStats
from repro.core.providers import ShortcutRequest, build_shortcut
from repro.util.errors import CongestViolation

__all__ = ["JobServer"]


class JobServer:
    """Admission-controlled queue of jobs over one shared graph.

    The multi-tenant front door: submit jobs (population tenants or
    atomic calls), then :meth:`drain`; results and per-job
    ``RoundStats`` come back keyed by ``job_id``. The layer is pure
    multiplexing — a job running alone is bit-for-bit identical to the
    same algorithms driven directly by
    :class:`~repro.congest.network.SyncNetwork`.

    Example::

        from repro.apps.sssp import sssp_job
        from repro.serve import JobServer

        server = JobServer(graph, latency_model="contention:1.0",
                           max_inflight=2)
        for i, region in enumerate(regions):
            server.submit(sssp_job(graph, min(region), nodes=region,
                                   rng=i, job_id=f"tenant-{i}"))
        result = server.drain()
        result.outcomes["tenant-0"].results   # per-job results
        result.stats.jobs["tenant-0"]         # per-job RoundStats

    Under a static latency model each tenant's edges keep their seeded
    latencies; under a load-dependent model (``contention:<w>``) all
    tenants share one link schedule in global ticks, so cross-tenant load
    on a link stretches everyone's transit — contention costs *time*, on
    top of the ``arbitration_stalls`` counter that records deferred
    grants.

    Args:
        graph: the shared communication topology every job runs on.
        scheduler: job-layer execution mode (only ``"event"``), as in
            :class:`~repro.congest.jobs.JobScheduler`.
        latency_model: per-edge latency model (``None`` = uniform).
        max_inflight: at most this many population jobs multiplex at a
            time; further jobs wait in submission order (``None`` =
            unbounded).
        bandwidth_bits / enforce_bandwidth: per-message budget plumbing,
            as in :class:`~repro.congest.network.SyncNetwork`.
    """

    def __init__(
        self,
        graph: nx.Graph,
        scheduler: str = "event",
        latency_model: object = None,
        max_inflight: int | None = None,
        bandwidth_bits: int | None = None,
        enforce_bandwidth: bool = True,
    ):
        self._scheduler = JobScheduler(
            graph,
            scheduler=scheduler,
            latency_model=latency_model,
            bandwidth_bits=bandwidth_bits,
            enforce_bandwidth=enforce_bandwidth,
            max_inflight=max_inflight,
        )
        self._queue: deque[Job] = deque()
        self._queued_ids: set[str] = set()
        self._sequence = 0

    @property
    def graph(self) -> nx.Graph:
        return self._scheduler.graph

    @property
    def pending(self) -> int:
        """Jobs queued and not yet drained."""
        return len(self._queue)

    def pending_ids(self) -> tuple[str, ...]:
        """Queued job ids, in submission order."""
        return tuple(job.job_id for job in self._queue)

    def _fresh_id(self, prefix: str) -> str:
        self._sequence += 1
        return f"{prefix}-{self._sequence}"

    def submit(self, job: Job) -> str:
        """Enqueue a job; returns its id. Duplicate ids are rejected."""
        if job.job_id in self._queued_ids:
            raise CongestViolation(
                f"job id {job.job_id!r} is already queued on this server"
            )
        self._queue.append(job)
        self._queued_ids.add(job.job_id)
        return job.job_id

    def submit_shortcut(
        self,
        request: ShortcutRequest,
        job_id: str | None = None,
        on_complete: Callable[[JobOutcome], None] | None = None,
    ) -> str:
        """Enqueue a shortcut construction query.

        The request runs through :func:`build_shortcut` at admission, so
        it shares the provider registry, the memoized outcome cache, and
        the per-iteration partial tier with every other tenant. The
        outcome's ``results`` is the full
        :class:`~repro.core.providers.ShortcutOutcome`; its ``stats`` is
        the construction's measured cost.
        """

        def run_request():
            outcome = build_shortcut(request)
            return outcome, outcome.stats

        return self.submit(
            Job(
                job_id if job_id is not None else self._fresh_id("shortcut"),
                call=run_request,
                on_complete=on_complete,
            )
        )

    def drain(
        self,
        on_complete: Callable[[JobOutcome], None] | None = None,
    ) -> ScheduleResult:
        """Run every queued job to completion; returns outcomes + aggregate.

        Jobs admit in submission order under the server's ``max_inflight``
        bound; ``on_complete`` (and each job's own callback) fires the
        moment that job finishes, while later jobs are still running. The
        queue is empty afterwards, so a server can be refilled and drained
        repeatedly — each drain is one multiplexed execution.
        """
        jobs = list(self._queue)
        self._queue.clear()
        self._queued_ids.clear()
        if not jobs:
            return ScheduleResult(outcomes={}, stats=RoundStats())
        return self._scheduler.run(jobs, on_complete=on_complete)
