"""E20 — vectorized backend: columnar BFS wall-clock speedup, byte-identical.

The vectorized scheduler's claim is twofold:

* **identity** — results, rounds, messages, bits, activations, and per-edge
  congestion are byte-identical to the event backend (the backend
  contract); asserted here on a >=10^5-node instance in full mode;
* **speedup** — running the whole node population through the
  ``BfsVectorKernel`` (one gather/apply/scatter numpy pass per round,
  instead of one Python activation per node) beats the event backend by
  >10x wall clock on a BFS flood, the workload where every frontier node
  is active and per-activation interpreter overhead dominates.

The instance is a 448x448 grid (200,704 nodes, ~0.4M edges) flooded from
node 0: 895 rounds, ~1.2M messages. Quick mode (``REPRO_BENCH_QUICK=1``)
shrinks the grid to 120x120 and relaxes the target to 3x — columnar setup
costs are a larger fraction of a short run, and CI smoke runners are noisy.

Measurement protocol: ``BfsNode`` instances are stateful (a run mutates
``depth``/``parent`` in place), so every measured run constructs a fresh
algorithms dict; one unmeasured vectorized warm-up populates the module's
CSR adjacency and slot-pair caches so both backends are timed against warm
tables; each backend's time is the min of five runs. Quick-mode runs
last tens of milliseconds, so the min must outlast a slow run or two on a
busy host, or host noise alone decides the speedup gate.

The module skips entirely when numpy is absent — the vectorized backend is
the ``repro[vectorized]`` extra, and the benchmark suite must pass on a
networkx-only install.
"""

import os
import time

import pytest

pytest.importorskip("numpy", reason="the vectorized backend needs numpy")

from benchmarks.common import fmt, report
from repro.congest import SyncNetwork
from repro.congest.primitives.bfs import BfsNode
from repro.graphs.generators import grid_graph

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))

SIDE = 120 if QUICK else 448
SPEEDUP_TARGET = 3.0 if QUICK else 10.0
REPEATS = 5


def _run(graph, scheduler):
    network = SyncNetwork(graph, rng=1, scheduler=scheduler)
    algorithms = {v: BfsNode(v, v == 0) for v in graph.nodes()}
    start = time.perf_counter()
    results, stats = network.run(algorithms)
    elapsed = time.perf_counter() - start
    return results, stats, elapsed


def _timed(graph, scheduler):
    """Best-of-REPEATS wall clock; fresh algorithm instances per run."""
    best = None
    for _ in range(REPEATS):
        results, stats, elapsed = _run(graph, scheduler)
        if best is None or elapsed < best[2]:
            best = (results, stats, elapsed)
    return best


def _identity_projection(stats):
    return (
        stats.rounds,
        stats.messages,
        stats.message_bits,
        stats.activations,
        stats.messages_by_round,
        stats.edge_messages,
    )


def test_e20_vectorized_speedup(benchmark):
    graph = grid_graph(SIDE, SIDE)
    # Warm-up: populate the graph_csr / slot_pairs caches (and confirm the
    # run is kernel-native, not a fallback) before any timing starts.
    warm_results, warm_stats, _ = _run(graph, "vectorized")
    assert not warm_stats.notes, warm_stats.notes

    reference_results, reference_stats, event_time = _timed(graph, "event")
    results, stats, vector_time = _timed(graph, "vectorized")

    # Identity: the backend contract, byte for byte.
    assert results == reference_results == warm_results
    assert _identity_projection(stats) == _identity_projection(reference_stats)
    assert _identity_projection(warm_stats) == _identity_projection(reference_stats)

    speedup = event_time / vector_time
    rows = [
        ["event", fmt(event_time, 3), "1.00",
         reference_stats.rounds, reference_stats.messages,
         reference_stats.activations],
        ["vectorized", fmt(vector_time, 3), fmt(speedup, 2),
         stats.rounds, stats.messages, stats.activations],
    ]
    report(
        "e20_vectorized",
        f"Vectorized backend on {SIDE}x{SIDE} grid BFS "
        f"(n={graph.number_of_nodes()}, best of {REPEATS})",
        ["backend", "seconds", "speedup", "rounds", "messages", "activations"],
        rows,
    )
    assert speedup > SPEEDUP_TARGET, (
        f"vectorized speedup {speedup:.2f}x below {SPEEDUP_TARGET}x "
        f"on the {SIDE}x{SIDE} grid"
    )

    small = grid_graph(40, 40)
    benchmark(lambda: _run(small, "vectorized"))
