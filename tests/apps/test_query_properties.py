"""Whole-query properties of the simulated construction on generated inputs.

A simulated MST or connectivity query runs Borůvka phases over shortcuts
that the measured Theorem 1.5 pipeline builds on one BFS tree, as
Corollary 1.6 does. On generated members of the registered graph families
(the ones the backend equivalence suite draws) with generated seeds, on
every scheduler backend:

* the MST weight equals networkx's, and each connectivity label is the
  smallest node of its networkx component;
* the stats pass ``RoundStats.check()`` and their phases sum to the totals;
* the query measures exactly one BFS tree and one depth convergecast if
  some phase has a multi-node part, and none if the query ends in the
  all-singleton phase 0, which builds no shortcut;
* every backend gives the same answer and the same model counters.
"""

from unittest import mock

import networkx as nx
from hypothesis import given, settings

from repro.apps.connectivity import subgraph_components
from repro.apps.mst import assign_random_weights, distributed_mst
from repro.congest.engine import available_schedulers
from repro.core import distributed
from repro.graphs.adjacency import canonical_edge

from tests.conftest import GENERATED_GRAPHS, SEEDS


def _counted_query(query):
    """``query()`` with its BFS runs and depth convergecasts counted."""
    with mock.patch.object(
        distributed, "distributed_bfs", wraps=distributed.distributed_bfs
    ) as bfs, mock.patch.object(
        distributed, "tree_aggregate", wraps=distributed.tree_aggregate
    ) as convergecast:
        result = query()
    return result, bfs.call_count, convergecast.call_count


def _expected_tree_runs(result):
    """One BFS and one convergecast iff a phase after the all-singleton
    phase 0 ran; every such phase has a multi-node part."""
    return (1, 1) if result.phases > 1 else (0, 0)


def _model_counters(stats):
    """Check the counter identities and the phase cover; return the totals."""
    stats.check()
    phases = stats.phases.values()
    totals = (stats.rounds, stats.messages, stats.message_bits)
    assert totals == (
        sum(phase.rounds for phase in phases),
        sum(phase.messages for phase in phases),
        sum(phase.message_bits for phase in phases),
    )
    return totals, stats.messages_by_round, stats.edge_messages


@settings(max_examples=25, deadline=None)
@given(GENERATED_GRAPHS, SEEDS)
def test_simulated_mst_on_every_backend(graph, seed):
    weights = assign_random_weights(graph, rng=seed)
    weighted = nx.Graph((u, v, {"weight": w}) for (u, v), w in weights.items())
    expected = nx.minimum_spanning_tree(weighted).size(weight="weight")
    outcomes = {}
    for scheduler in available_schedulers():
        result, bfs_runs, convergecasts = _counted_query(lambda: distributed_mst(
            graph, weights, construction="simulated", rng=seed, scheduler=scheduler,
        ))
        assert result.weight == expected, scheduler
        assert (bfs_runs, convergecasts) == _expected_tree_runs(result), scheduler
        outcomes[scheduler] = (result.edges, _model_counters(result.stats))
    for scheduler, outcome in outcomes.items():
        assert outcome == outcomes["dense"], scheduler


@settings(max_examples=25, deadline=None)
@given(GENERATED_GRAPHS, SEEDS)
def test_simulated_connectivity_on_every_backend(graph, seed):
    edges = [canonical_edge(u, v) for u, v in graph.edges()]
    # Keep about two thirds of the edges, and at least one, so a phase runs.
    kept = {edges[0]} | {(u, v) for u, v in edges if (31 * u + v + seed) % 3}
    expected = {
        v: min(component)
        for component in nx.connected_components(nx.Graph(kept))
        for v in component
    }
    expected.update((v, v) for v in graph if v not in expected)
    outcomes = {}
    for scheduler in available_schedulers():
        result, bfs_runs, convergecasts = _counted_query(lambda: subgraph_components(
            graph, kept, provider="theorem31-simulated", rng=seed, scheduler=scheduler,
        ))
        assert result.labels == expected, scheduler
        assert (bfs_runs, convergecasts) == _expected_tree_runs(result), scheduler
        outcomes[scheduler] = _model_counters(result.stats)
    for scheduler, outcome in outcomes.items():
        assert outcome == outcomes["dense"], scheduler
