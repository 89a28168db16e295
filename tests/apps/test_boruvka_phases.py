"""The shared Borůvka phase loop and its module-level call seam.

MST and subgraph connectivity both run their phases through
:func:`repro.apps.mst.boruvka_phases`, which calls ``build_shortcut`` and
``partwise_aggregate`` through ``repro.apps.mst``'s globals. Tools that
rebind those two names (the perfbench tracer and its MST oracle) must see
exactly one call of each per phase that has a multi-node part, whichever
app runs. A phase whose parts are all single nodes (phase 0, where the
labels are the node ids) calls neither: each node's value is its part's
minimum, and the phase charges only its exchange round.
"""

import random
from unittest import mock

import networkx as nx
import pytest
from hypothesis import given, settings

import repro.apps.mst
from repro.apps.connectivity import subgraph_components
from repro.apps.mst import assign_random_weights, distributed_mst
from repro.congest.engine import available_schedulers
from repro.graphs.adjacency import canonical_edge
from repro.graphs.generators import grid_graph

from tests.conftest import GENERATED_GRAPHS, SEEDS


def _mst(graph):
    return distributed_mst(graph, assign_random_weights(graph, rng=1), rng=2)


def _connectivity(graph):
    rng = random.Random(3)
    edges = {edge for edge in graph.edges() if rng.random() < 0.6}
    return subgraph_components(graph, edges, rng=4)


def _traced_query(query):
    """``query()`` and its seam calls as ``(name, partition)`` in call order."""
    calls = []

    def recording(name, partition_of):
        original = getattr(repro.apps.mst, name)

        def call(*args, **kwargs):
            calls.append((name, partition_of(args)))
            return original(*args, **kwargs)

        return call

    with mock.patch.object(
        repro.apps.mst, "build_shortcut",
        recording("build_shortcut", lambda args: args[0].partition),
    ), mock.patch.object(
        repro.apps.mst, "partwise_aggregate",
        recording("partwise_aggregate", lambda args: args[1]),
    ):
        result = query()
    return result, calls


@pytest.mark.parametrize("app", [_mst, _connectivity], ids=["mst", "connectivity"])
def test_one_build_and_one_aggregate_per_phase(app):
    result, calls = _traced_query(lambda: app(grid_graph(6, 6)))
    assert result.phases > 1
    # Phase 0 is all singletons; every later phase has a multi-node part.
    assert [name for name, _ in calls] == (
        ["build_shortcut", "partwise_aggregate"] * (result.phases - 1)
    )
    assert list(result.stats.phases) == [f"phase_{i}" for i in range(result.phases)]


def _check_singleton_phase(result, calls, exchange_edges):
    """Phase 0 charges only the exchange round; each later phase builds and
    aggregates once, over a partition with a multi-node part."""
    result.stats.check()
    phase_0 = result.stats.phases["phase_0"]
    assert (phase_0.rounds, phase_0.messages, phase_0.message_bits) == (
        1, 2 * len(exchange_edges), 0,
    )
    assert len(calls) == 2 * (result.phases - 1)
    part_counts = []
    for (build, built), (aggregate, aggregated) in zip(calls[::2], calls[1::2]):
        assert (build, aggregate) == ("build_shortcut", "partwise_aggregate")
        assert aggregated is built
        assert max(len(part) for part in built) > 1
        part_counts.append(len(built))
    assert part_counts == sorted(set(part_counts), reverse=True)


@settings(max_examples=25, deadline=None)
@given(GENERATED_GRAPHS, SEEDS)
def test_singleton_phase_skips_shortcut_and_aggregation(graph, seed):
    weights = assign_random_weights(graph, rng=seed)
    weighted = nx.Graph((u, v, {"weight": w}) for (u, v), w in weights.items())
    expected_weight = nx.minimum_spanning_tree(weighted).size(weight="weight")
    edges = [canonical_edge(u, v) for u, v in graph.edges()]
    kept = {edge for index, edge in enumerate(edges) if (index + seed) % 3}
    expected_labels = {v: v for v in graph}
    for component in nx.connected_components(nx.Graph(kept)):
        expected_labels.update((v, min(component)) for v in component)
    for scheduler in available_schedulers():
        mst, calls = _traced_query(lambda: distributed_mst(
            graph, weights, provider="theorem31-simulated", rng=seed,
            scheduler=scheduler,
        ))
        assert mst.weight == expected_weight, scheduler
        _check_singleton_phase(mst, calls, edges)
        components, calls = _traced_query(lambda: subgraph_components(
            graph, kept, provider="theorem31-simulated", rng=seed,
            scheduler=scheduler,
        ))
        assert components.labels == expected_labels, scheduler
        if kept:
            _check_singleton_phase(components, calls, kept)
        else:
            assert components.phases == 0 and not calls
