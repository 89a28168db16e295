"""E22 — the MST contrast under load: contention-aware datacenter fabrics.

E18 contrasts the MST arms under *static* per-edge latencies; this
experiment re-runs the contrast on datacenter fat-trees under the
load-dependent ``contention`` model, where concurrent in-flight messages
on a link stretch its transit time (flow-level bandwidth sharing, the
regime Haeupler–Li–Zuzic 2018 motivate). Contention taxes *link sharing*:
an arm's virtual time inflates in proportion to how many of its flows
occupy the same links simultaneously — which is exactly the congestion
the paper's constructions minimize. Three MST arms, three exposure
profiles:

* ``theorem31-centralized`` (the shortcut arm) — shares shortcut edges
  across parts, but a quality shortcut's *low congestion* bounds how many
  flows meet on one link, so its virtual time barely moves as the
  contention weight grows;
* ``none`` (bare parts) — each fragment aggregates over its own disjoint
  induced subgraph; edge-disjoint unidirectional convergecast waves never
  share a link, so bare parts are structurally contention-immune (their
  virtual time is load-invariant) — but they pay the full induced
  diameter at every load level;
* ``baseline`` (the ``D + sqrt(n)`` arm) — pipelines every fragment
  through one global BFS tree, the maximally-shared schedule; contention
  taxes that sharing hardest, and on oversubscribed cores (thinner core
  tier, more flows per surviving link) the tax compounds.

Asserted shape claims, all deterministic per seed:

* **non-shrinking advantage over bare parts** (the acceptance gate): on
  each fat-tree the shortcut arm's virtual-time advantage over ``none``
  is monotonically non-shrinking across all contention levels — low
  congestion means there is nothing for contention to erode;
* **widening advantage over the shared-tree baseline**: the advantage
  over the ``baseline`` arm never shrinks as contention grows, and on
  the oversubscribed fat-tree it strictly widens from the lightest to
  the heaviest level;
* **byte-identical replay** — same seed + same admission schedule gives
  identical results *and* RoundStats, contention transits included;
* **zero-weight identity** — ``contention:0.0`` (transit always 1)
  reproduces the lockstep round structure of a no-model run exactly.
"""

import os

from benchmarks.common import report
from repro.apps.mst import assign_random_weights, distributed_mst
from repro.graphs.generators import fat_tree

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))

SEED = 3

# ≥3 contention levels (the acceptance floor); weight 0.0 doubles as the
# zero-weight lockstep-identity pin.
LEVELS = (0.0, 0.5, 1.0, 2.0)


def _instances():
    yield "fat-tree k=4", fat_tree(4)
    yield "fat-tree k=4 oversub 2", fat_tree(4, oversubscription=2)
    if not QUICK:
        yield "fat-tree k=6 oversub 3", fat_tree(6, oversubscription=3)


def test_e22_contention_mst(benchmark):
    rows = []
    for name, graph in _instances():
        weights = assign_random_weights(graph, rng=SEED)
        lockstep = distributed_mst(graph, weights, rng=SEED)
        advantage_none = []
        advantage_baseline = []
        for weight in LEVELS:
            model = f"contention:{weight}"
            ours = distributed_mst(
                graph, weights, rng=SEED, latency_model=model,
            )
            none = distributed_mst(
                graph, weights, rng=SEED, provider="none", latency_model=model,
            )
            base = distributed_mst(
                graph, weights, rng=SEED, provider="baseline", latency_model=model,
            )
            # All arms and all load levels agree on the tree itself:
            # contention shifts schedules, never results.
            assert ours.edges == none.edges == base.edges == lockstep.edges, name

            # Determinism: same seed + same admission schedule replays
            # byte-identically, load-dependent transits included.
            replay = distributed_mst(
                graph, weights, rng=SEED, latency_model=model,
            )
            assert replay.edges == ours.edges, (name, weight)
            assert replay.stats == ours.stats, (name, weight)

            if weight == 0.0:
                # Zero-weight identity: every transit is 1, so the
                # delivery schedule is the lockstep one.
                assert ours.stats.rounds == lockstep.stats.rounds, name

            assert ours.stats.virtual_time > 0, (name, weight)
            advantage_none.append(none.stats.virtual_time - ours.stats.virtual_time)
            advantage_baseline.append(base.stats.virtual_time - ours.stats.virtual_time)
            rows.append(
                [
                    name,
                    graph.number_of_nodes(),
                    weight,
                    ours.stats.virtual_time,
                    none.stats.virtual_time,
                    base.stats.virtual_time,
                    advantage_none[-1],
                    advantage_baseline[-1],
                ]
            )

        # The acceptance gate: the shortcut arm's advantage over bare
        # parts never shrinks as contention grows. Bare parts are
        # load-invariant (edge-disjoint waves), so this pins that the
        # shortcut's low congestion leaves contention nothing to tax.
        for before, after in zip(advantage_none, advantage_none[1:]):
            assert after >= before, (name, advantage_none)

        # The shared-tree baseline pays for its sharing: the shortcut
        # arm's advantage over it is non-shrinking at every step, beats
        # it outright at every level, and strictly widens end-to-end on
        # the oversubscribed fabrics (fewer core links, more sharing).
        for before, after in zip(advantage_baseline, advantage_baseline[1:]):
            assert after >= before, (name, advantage_baseline)
        assert min(advantage_baseline) > 0, (name, advantage_baseline)
        if "oversub" in name:
            assert advantage_baseline[-1] > advantage_baseline[0], (
                name, advantage_baseline,
            )

    report(
        "e22_contention",
        "Contention-aware MST contrast on fat-trees (flow-level bandwidth "
        "sharing; advantage = arm vt - shortcut vt)",
        ["instance", "n", "weight", "shortcut vt", "bare-parts vt",
         "baseline vt", "adv vs bare", "adv vs baseline"],
        rows,
    )

    small = fat_tree(4)
    small_weights = assign_random_weights(small, rng=SEED)
    benchmark(
        lambda: distributed_mst(
            small, small_weights, rng=SEED, latency_model="contention:1.0",
        )
    )
