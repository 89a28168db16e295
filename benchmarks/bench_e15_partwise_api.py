"""E15 — the bottom line: part-wise aggregation time T_PA across methods.

Definition 2.1's problem is what every application reduces to; this
experiment tabulates the measured T_PA on three instance types with three
shortcut methods (bare parts / D+√n baseline / Theorem 3.1), reproducing
the paper's overall narrative in one table:

* wheel rim — bare is Θ(n), both shortcut arms are fast;
* grid rows — all methods fine (parts no longer than the diameter);
* Lemma 3.2 rows — the adversarial case where only the paper's shortcut
  family keeps T_PA near δD.
"""

from benchmarks.common import report
from repro.apps.partwise import solve_partwise_aggregation
from repro.graphs.generators import grid_graph, lower_bound_graph, wheel_graph
from repro.graphs.partition import Partition, grid_rows_partition


def _instances():
    wheel = wheel_graph(257)
    rim = list(range(1, 257))
    yield "wheel rim (n=257)", wheel, Partition(wheel, [rim]), 3.0

    grid = grid_graph(14, 14)
    yield "grid rows (14x14)", grid, grid_rows_partition(grid), 3.0

    instance = lower_bound_graph(5, 20)
    yield "lemma32 rows (d'=5)", instance.graph, instance.partition, 5.0


# Table column -> shortcut provider.
ARMS = {"none": "none", "baseline": "baseline", "theorem31": "theorem31-centralized"}


def _run():
    rows = []
    for name, graph, partition, delta in _instances():
        rounds = {}
        for arm, provider in ARMS.items():
            solution = solve_partwise_aggregation(
                graph,
                partition,
                {v: 1 for v in graph.nodes()},
                lambda a, b: a + b,
                provider=provider,
                delta=delta,
                rng=3,
            )
            expected = {i: len(part) for i, part in enumerate(partition)}
            assert solution.values == expected, (name, arm)
            rounds[arm] = solution.aggregation_stats.rounds
        rows.append([name, rounds["none"], rounds["baseline"], rounds["theorem31"]])
    # The wheel row is the paper's motivation: bare >> both shortcut arms.
    wheel_row = rows[0]
    assert wheel_row[1] > 10 * wheel_row[3], wheel_row
    return rows


def test_e15_partwise_api(benchmark):
    rows = _run()
    report(
        "e15_partwise_api",
        "Definition 2.1: measured T_PA (rounds) per shortcut method",
        ["instance", "bare parts", "baseline D+sqrt(n)", "theorem 3.1"],
        rows,
    )
    graph = grid_graph(10, 10)
    partition = grid_rows_partition(graph)
    benchmark(
        lambda: solve_partwise_aggregation(
            graph, partition, {v: 1 for v in graph.nodes()},
            lambda a, b: a + b, rng=3,
        )
    )
