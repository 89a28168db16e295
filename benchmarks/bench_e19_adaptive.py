"""E19 — ack-driven sweep: latency-exact marking, no keep-alive polling.

The ack-driven rewrite of the Theorem 1.5 sweep (PR 5) makes two claims,
both measured here:

* **latency adaptivity** — the sweep's Theorem 3.1 marking is *exact*
  under every registered latency model, because level transitions are
  triggered by received child acks instead of calibrated round windows.
  Asserted by running the ``exact=True`` pipeline on the ``event``
  scheduler under each model and comparing the distributed marking
  bit-for-bit against the centralized bottom-up process on the same tree
  and budget (``repro.core.partial.mark_overcongested_edges``).
* **activation economy** — the retired keep-alive sweep latched every
  node alive for the whole ``depth · (τ + 1)`` schedule, so deep trees
  paid ``n · depth · (τ + 1)`` activations regardless of traffic; the
  ack-driven sweep pays ``O(messages)``. Asserted on a depth-1000 broom
  (and reported on a depth-1000 path) under the event backend: the
  ack-driven sweep must do at least **5x** fewer sweep-phase activations
  than the keep-alive sweep — the measured win is orders of magnitude.

Both arms run with the same seed, so they sample the same parts and
compute the same marking (asserted) — the contrast is pure protocol cost.
"""

import os

import networkx as nx

from benchmarks.common import fmt, report
from repro.core.distributed import distributed_partial_shortcut
from repro.core.partial import mark_overcongested_edges
from repro.graphs.generators import broom_graph, grid_graph, wheel_graph
from repro.graphs.partition import voronoi_partition

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))

SEED = 5

LATENCY_MODELS = (None, "seeded-jitter", "degree-proportional")


def _marking_instances():
    # (name, graph, parts, delta): delta is tuned per family so the budget
    # c = ceil(8*delta*D) is actually reachable — every instance must mark
    # a nonzero edge set, or "exact" would be vacuous.
    if QUICK:
        yield "grid 8x8", grid_graph(8, 8), 12, 0.05
        yield "wheel 65", wheel_graph(65), 8, 0.05
    else:
        yield "grid 12x12", grid_graph(12, 12), 24, 0.05
        yield "wheel 129", wheel_graph(129), 12, 0.05
    yield "broom 15+40", broom_graph(40, 15), 8, 0.01


def _deep_instances():
    # The acceptance instance: depth-1000 trees where the keep-alive sweep
    # pays for every node in every window round. A small sampling factor
    # keeps τ (hence the keep-alive arm's n·depth·(τ+1) schedule) small
    # enough to execute; both arms share it, so the contrast is fair.
    yield "broom 20+1000", broom_graph(1000, 20), 0.05
    yield "path 1000", nx.path_graph(1001), 0.05


def test_e19_adaptive_ack_sweep(benchmark):
    # --- claim 1: exact marking under every latency model ----------------
    marking_rows = []
    for name, graph, parts, delta in _marking_instances():
        partition = voronoi_partition(graph, parts, rng=SEED)
        for model in LATENCY_MODELS:
            result = distributed_partial_shortcut(
                graph, partition, delta=delta, rng=SEED, exact=True,
                run_verification=False, latency_model=model,
            )
            expected, _ = mark_overcongested_edges(
                result.tree, partition, result.congestion_budget
            )
            assert result.overcongested == expected, (name, model)
            assert result.overcongested, (name, model)  # non-vacuous instance
            assert result.params["undecided"] == 0, (name, model)
            stats = result.stats.phases["sweep"]
            marking_rows.append(
                [
                    name,
                    model or "uniform",
                    len(result.overcongested),
                    stats.rounds,
                    # Lockstep transit records no wall time: it is the
                    # pipeline's round count.
                    result.stats.virtual_time or result.stats.rounds,
                    "exact",
                ]
            )

    report(
        "e19_adaptive_marking",
        "Ack-driven sweep vs centralized Theorem 3.1 marking "
        "(exact mode, event scheduler, every latency model)",
        ["instance", "latency model", "marked", "sweep rounds",
         "virtual time", "vs centralized"],
        marking_rows,
    )

    # --- claim 2: >= 5x fewer activations on deep trees -------------------
    deep_rows = []
    wins = {}
    for name, graph, sampling_factor in _deep_instances():
        partition = voronoi_partition(graph, 12, rng=SEED)
        arms = {}
        for sweep in ("ack", "keep-alive"):
            result = distributed_partial_shortcut(
                graph, partition, delta=0.5, rng=SEED,
                sampling_factor=sampling_factor, run_verification=False,
                scheduler="event", sweep=sweep,
            )
            arms[sweep] = result
        ack, legacy = arms["ack"], arms["keep-alive"]
        # Same seed => same sampled parts => same marking: the contrast is
        # protocol cost, not outcome.
        assert ack.overcongested == legacy.overcongested, name
        assert ack.satisfied == legacy.satisfied, name
        ack_sweep = ack.stats.phases["sweep"]
        legacy_sweep = legacy.stats.phases["sweep"]
        win = legacy_sweep.activations / max(1, ack_sweep.activations)
        wins[name] = win
        deep_rows.append(
            [
                name,
                graph.number_of_nodes(),
                legacy_sweep.rounds,
                ack_sweep.rounds,
                legacy_sweep.activations,
                ack_sweep.activations,
                f"{fmt(win, 1)}x",
            ]
        )

    # Acceptance: the depth-1000 broom must show at least a 5x activation
    # reduction (measured wins are orders of magnitude larger).
    assert wins["broom 20+1000"] >= 5.0, wins
    assert wins["path 1000"] >= 5.0, wins

    report(
        "e19_adaptive",
        "Ack-driven vs keep-alive sweep on depth-1000 trees "
        "(event backend, same seed, identical marking)",
        ["instance", "n", "keep-alive rounds", "ack rounds",
         "keep-alive activations", "ack activations", "activation win"],
        deep_rows,
    )

    # Timed unit: the full ack-driven partial construction on a small grid.
    small = grid_graph(8, 8)
    small_partition = voronoi_partition(small, 10, rng=SEED)
    benchmark(
        lambda: distributed_partial_shortcut(
            small, small_partition, delta=3.0, rng=SEED,
            run_verification=False,
        )
    )
