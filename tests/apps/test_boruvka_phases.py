"""The shared Borůvka phase loop and its module-level call seam.

MST and subgraph connectivity both run their phases through
:func:`repro.apps.mst.boruvka_phases`, which calls ``build_shortcut`` and
``partwise_aggregate`` through ``repro.apps.mst``'s globals. Tools that
rebind those two names (the perfbench tracer and its MST oracle) must see
exactly one call of each per phase, whichever app runs.
"""

import random

import pytest

import repro.apps.mst
from repro.apps.connectivity import subgraph_components
from repro.apps.mst import assign_random_weights, distributed_mst
from repro.graphs.generators import grid_graph


def _count_calls(monkeypatch, name):
    calls = []
    original = getattr(repro.apps.mst, name)

    def counting(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(repro.apps.mst, name, counting)
    return calls


def _mst(graph):
    return distributed_mst(graph, assign_random_weights(graph, rng=1), rng=2)


def _connectivity(graph):
    rng = random.Random(3)
    edges = {edge for edge in graph.edges() if rng.random() < 0.6}
    return subgraph_components(graph, edges, rng=4)


@pytest.mark.parametrize("app", [_mst, _connectivity], ids=["mst", "connectivity"])
def test_one_build_and_one_aggregate_per_phase(monkeypatch, app):
    builds = _count_calls(monkeypatch, "build_shortcut")
    aggregates = _count_calls(monkeypatch, "partwise_aggregate")
    result = app(grid_graph(6, 6))
    assert result.phases > 0
    assert len(builds) == len(aggregates) == result.phases
    assert list(result.stats.phases) == [f"phase_{i}" for i in range(result.phases)]
