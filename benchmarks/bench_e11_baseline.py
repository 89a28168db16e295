"""E11 — Section 1.3: the folklore D+√n shortcut, and where it loses.

Paper claims measured here:

* the baseline's quality is within its 2D + 2√n bound on general graphs
  (it needs no structure at all), and its *measured* congestion stays
  within the theoretical ``√n`` large-part budget — the measured-vs-
  theoretical columns E5/E8 report for the distributed pipeline, here for
  the folklore construction;
* on bounded-δ small-D families it is beaten by the paper's O~(δD)
  shortcuts by a factor that grows with n — the whole point of
  structure-aware shortcuts. The theorem arm's measured congestion is
  checked against its provable Observation 2.7 budget (the sum of the
  per-iteration ``8δD`` caps).

Both arms are obtained through the unified ``ShortcutProvider`` registry.
"""

import math

from benchmarks.common import fmt, report
from repro.core.bounds import baseline_quality_bound
from repro.core.providers import ShortcutRequest, build_shortcut, clear_shortcut_cache
from repro.graphs.generators import k_tree
from repro.graphs.generators.classic import random_regular_expander
from repro.graphs.partition import voronoi_partition


def _run_bound_check():
    rows = []
    for name, graph in (
        ("expander n=256", random_regular_expander(256, 4, rng=1)),
        ("k-tree n=256", k_tree(256, 3, rng=2)),
    ):
        partition = voronoi_partition(graph, 30, rng=3)
        outcome = build_shortcut(
            ShortcutRequest(graph=graph, partition=partition, provider="baseline")
        )
        tree = outcome.tree
        quality = outcome.quality(exact=False)
        bound = baseline_quality_bound(graph.number_of_nodes(), tree.max_depth)
        # Measured vs theoretical congestion: at most sqrt(n) parts can be
        # large, so sqrt(n) is the baseline's congestion budget.
        congestion_budget = math.ceil(math.sqrt(graph.number_of_nodes()))
        rows.append(
            [name, tree.max_depth, quality.congestion, congestion_budget,
             fmt(quality.congestion / congestion_budget, 3),
             fmt(quality.dilation, 0), fmt(quality.quality, 0), fmt(bound, 0)]
        )
        assert quality.congestion <= congestion_budget, (
            quality.congestion, congestion_budget,
        )
        assert quality.quality <= bound
    return rows


def _run_comparison():
    """Wheel with √n-sized rim arcs: the baseline's blind spot.

    Arcs of size ≤ √n receive H = ∅ from the baseline, so their dilation is
    their own Θ(√n) diameter although the graph's diameter is 2. The paper's
    construction routes each arc through its own hub spokes: dilation O(1),
    congestion O(1). The quality gap therefore grows like √n — the precise
    failure mode motivating structure-aware shortcuts (Section 1.3 vs
    Theorem 1.2).
    """
    from repro.graphs.generators import wheel_graph
    from repro.graphs.partition import Partition
    from repro.graphs.trees import bfs_tree

    rows = []
    ratios = []
    congestion_ratios = []
    for n in (257, 1025, 4097):
        graph = wheel_graph(n)
        rim = list(range(1, n))
        arc_size = int(math.isqrt(n))
        arcs = [rim[i : i + arc_size] for i in range(0, len(rim), arc_size)]
        partition = Partition(graph, arcs, validate=False)
        tree = bfs_tree(graph, root=0)  # star-shaped BFS tree, depth 1
        outcome = build_shortcut(
            ShortcutRequest(
                graph=graph, partition=partition, tree=tree,
                provider="theorem31-centralized", delta=3.0,
            )
        )
        ours = outcome.quality(exact=True)
        base = build_shortcut(
            ShortcutRequest(
                graph=graph, partition=partition, tree=tree, provider="baseline"
            )
        ).quality(exact=True)
        # Measured congestion vs the provable Observation 2.7 budget (sum of
        # per-iteration 8*delta*D caps).
        congestion_budget = outcome.provenance.details["full_result"].congestion_bound
        assert ours.congestion <= congestion_budget, (
            ours.congestion, congestion_budget,
        )
        congestion_ratios.append(ours.congestion / congestion_budget)
        ratio = base.quality / max(ours.quality, 1)
        ratios.append(ratio)
        rows.append(
            [n, len(arcs), fmt(ours.quality, 0), ours.congestion,
             congestion_budget, fmt(ours.congestion / congestion_budget, 3),
             fmt(base.quality, 0), f"{ratio:.1f}x"]
        )
    # The gap must grow with n (the sqrt(n) failure mode).
    assert ratios == sorted(ratios), ratios
    assert ratios[-1] > 4 * ratios[0] / 3, ratios
    # Measured/budget congestion must not blow up with the instance.
    assert max(congestion_ratios) <= 3.0 * max(min(congestion_ratios), 1e-9)
    return rows


def test_e11_baseline_bound(benchmark):
    rows = _run_bound_check()
    report(
        "e11_baseline_bound",
        "Section 1.3: baseline quality within 2D + 2 sqrt(n); congestion within sqrt(n)",
        ["instance", "D", "congestion", "budget sqrt(n)", "ratio",
         "dilation", "quality", "bound"],
        rows,
    )
    graph = random_regular_expander(256, 4, rng=1)
    partition = voronoi_partition(graph, 30, rng=3)
    # Clear the shortcut cache per iteration so the timing covers a real
    # build, not a dict lookup. The BFS tree is memoized on the graph and
    # survives the clear, so from the second iteration on the timing
    # excludes the tree.
    benchmark(
        lambda: (
            clear_shortcut_cache(),
            build_shortcut(
                ShortcutRequest(graph=graph, partition=partition, provider="baseline")
            ),
        )
    )


def test_e11_baseline_vs_theorem31(benchmark):
    rows = _run_comparison()
    report(
        "e11_baseline_vs_ours",
        "baseline vs Theorem 3.1 quality on wheel rim arcs (gap grows ~ sqrt(n))",
        ["n", "arcs", "ours Q", "ours cong", "cong budget", "ratio",
         "baseline Q", "Q gap"],
        rows,
    )
    graph = k_tree(256, 2, rng=5, locality=0.0)
    partition = voronoi_partition(graph, 32, rng=6)
    benchmark(
        lambda: (
            clear_shortcut_cache(),
            build_shortcut(
                ShortcutRequest(
                    graph=graph, partition=partition,
                    provider="theorem31-centralized", delta=2.0,
                )
            ),
        )
    )
