"""E21 — multi-tenant job service: jobs/sec vs concurrency at fixed latency.

The first *throughput* benchmark dimension: instead of timing one run, it
measures how many region-scoped SSSP queries per second one fabric serves
as the number of concurrently admitted tenants grows.

The workload is eight tenants, each owning one Voronoi region of a shared
grid and asking for shortest-path distances *within its region*. Two
deployments answer the same eight queries:

* **serial** (the pre-service baseline): each query is a standalone
  :func:`~repro.apps.sssp.bellman_ford_sssp` run over the whole fabric —
  without the job layer there is no scoped population, so every node in
  the graph participates in every query, one query after another;
* **multiplexed**: the :class:`~repro.congest.jobs.JobScheduler` admits
  ``c`` scoped jobs at once over a single fabric. Each tenant's
  Bellman–Ford only ever activates its region's nodes, the per-edge
  arbiter keeps tenants byte-identical to their solo runs, and — because
  Voronoi regions are edge-disjoint — the run finishes with
  ``arbitration_stalls == 0``: multiplexing adds no contention here.

Throughput is ``jobs / wall-clock drain time``. The speedup at ``c = 8``
comes from scoped tenancy amortizing the fabric: the eight regions
together cover the graph once, so one multiplexed drain does roughly the
work of *one* full-graph sweep where the serial deployment pays for
eight. Full mode asserts ≥ 2x jobs/sec at 8 concurrent tenants; quick
mode (``REPRO_BENCH_QUICK=1``, CI smoke) relaxes the floor to 1.5x —
scheduler setup is a larger fraction of a 20x20-grid run — and leans on
the ``compare_bench.py`` trajectory gate for regression detection.

Determinism: regions, sources, and per-job seeds are all fixed, so every
row of the table (rounds, messages, stalls) is byte-stable; only the
wall-clock columns vary run to run. Each measured drain constructs fresh
``Job`` objects (``_BellmanFordNode`` mutates its distance in place) and
takes the best of five runs, as e20 does: quick-mode drains last tens
of milliseconds, so the best must outlast a slow run or two on a busy
host, or host noise alone decides the speedup gate.
"""

import os
import time

from benchmarks.common import fmt, report
from repro.apps.sssp import bellman_ford_sssp, sssp_job
from repro.congest.jobs import JobScheduler
from repro.graphs.generators import grid_graph
from repro.graphs.partition import voronoi_partition

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))

SIDE = 20 if QUICK else 40
SPEEDUP_TARGET = 1.5 if QUICK else 2.0
CONCURRENCY = (1, 2, 4, 8)
NUM_TENANTS = 8
REPEATS = 5


def _tenants(graph):
    """Eight fixed (region, source) tenancies covering the graph."""
    regions = voronoi_partition(graph, NUM_TENANTS, rng=0)
    return [(tuple(sorted(region)), min(region)) for region in regions]


def _region_jobs(graph, tenants):
    return [
        sssp_job(
            graph, source, nodes=region, rng=index,
            job_id=f"tenant-{index}",
        )
        for index, (region, source) in enumerate(tenants)
    ]


def _serial_drain(graph, tenants):
    """The baseline deployment: one full-fabric run per query."""
    start = time.perf_counter()
    for index, (_, source) in enumerate(tenants):
        bellman_ford_sssp(graph, source, rng=index)
    return time.perf_counter() - start


def _multiplexed_drain(graph, tenants):
    scheduler = JobScheduler(graph)
    start = time.perf_counter()
    result = scheduler.run(_region_jobs(graph, tenants))
    return time.perf_counter() - start, result


def _best(callable_):
    best = None
    for _ in range(REPEATS):
        outcome = callable_()
        elapsed = outcome[0] if isinstance(outcome, tuple) else outcome
        if best is None or elapsed < (
            best[0] if isinstance(best, tuple) else best
        ):
            best = outcome
    return best


def test_e21_multitenant_throughput(benchmark):
    graph = grid_graph(SIDE, SIDE)
    tenants = _tenants(graph)

    serial_time = _best(lambda: _serial_drain(graph, tenants))
    serial_rate = NUM_TENANTS / serial_time

    rows = [
        ["serial", NUM_TENANTS, fmt(serial_time, 3), fmt(serial_rate, 1),
         "1.00", "-", "-", "-"],
    ]
    rate_at_full = None
    for concurrency in CONCURRENCY:
        subset = tenants[:concurrency]
        elapsed, result = _best(lambda s=subset: _multiplexed_drain(graph, s))
        # Scoped tenancy is the whole claim — pin its integrity alongside
        # the timing: every tenant completed, disjoint regions never
        # stalled, and the per-job projection covers each admitted tenant.
        assert all(
            outcome.status == "completed" for outcome in result.outcomes.values()
        )
        assert result.stats.arbitration_stalls == 0
        assert set(result.stats.jobs) == {
            f"tenant-{i}" for i in range(concurrency)
        }
        rate = concurrency / elapsed
        rows.append([
            f"jobs c={concurrency}", concurrency, fmt(elapsed, 3),
            fmt(rate, 1), fmt(rate / serial_rate, 2), result.stats.rounds,
            result.stats.messages, result.stats.arbitration_stalls,
        ])
        if concurrency == NUM_TENANTS:
            rate_at_full = rate

    report(
        "e21_multitenant",
        f"Jobs/sec vs concurrency on a {SIDE}x{SIDE} grid "
        f"({NUM_TENANTS} region tenants, best of {REPEATS})",
        ["deployment", "jobs", "seconds", "jobs/sec", "speedup",
         "rounds", "messages", "stalls"],
        rows,
    )

    speedup = rate_at_full / serial_rate
    assert speedup >= SPEEDUP_TARGET, (
        f"multiplexed throughput {rate_at_full:.1f} jobs/sec is only "
        f"{speedup:.2f}x the serial deployment's {serial_rate:.1f} "
        f"(target {SPEEDUP_TARGET}x at {NUM_TENANTS} concurrent tenants)"
    )

    small = grid_graph(12, 12)
    small_tenants = _tenants(small)
    benchmark(lambda: _multiplexed_drain(small, small_tenants))
