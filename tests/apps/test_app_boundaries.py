"""Bad app input fails at the API boundary, not deep inside a run.

Each case used to surface as a ``KeyError``, ``IndexError`` or
``TypeError`` from the middle of an execution, or as a silently wrong
answer.
"""

import networkx as nx
import pytest

from repro.apps.mincut import distributed_mincut
from repro.apps.mst import distributed_mst
from repro.apps.partwise import solve_partwise_multicast
from repro.apps.sssp import bellman_ford_sssp, sssp_job
from repro.graphs.adjacency import canonical_edge
from repro.graphs.generators import grid_graph
from repro.graphs.partition import Partition
from repro.serve import JobServer
from repro.util.errors import GraphStructureError, ShortcutError


def _weights_without(graph, missing):
    return {
        canonical_edge(u, v): 1 for u, v in graph.edges()
        if canonical_edge(u, v) != missing
    }


class TestMissingWeights:
    def test_mst_names_the_unweighted_edge(self):
        graph = grid_graph(3, 3)
        with pytest.raises(GraphStructureError, match=r"\(4, 5\)"):
            distributed_mst(graph, _weights_without(graph, (4, 5)))

    def test_mst_rejects_non_canonical_keys(self):
        graph = nx.path_graph(3)
        with pytest.raises(GraphStructureError, match=r"\(0, 1\)"):
            distributed_mst(graph, {(1, 0): 2, (1, 2): 3})

    def test_bellman_ford_names_the_unweighted_edge(self):
        graph = grid_graph(3, 3)
        with pytest.raises(GraphStructureError, match=r"\(4, 7\)"):
            bellman_ford_sssp(graph, 0, _weights_without(graph, (4, 7)))

    def test_sssp_job_checks_the_edges_among_its_population(self):
        graph = grid_graph(4, 4)
        region = (0, 1, 4, 5)
        region_weights = {(0, 1): 2, (0, 4): 1, (1, 5): 1, (4, 5): 3}
        # Edges leaving the region are never read, so they need no weight.
        job = sssp_job(graph, 0, weights=region_weights, nodes=region, job_id="ok")
        gappy = {edge: w for edge, w in region_weights.items() if edge != (4, 5)}
        with pytest.raises(GraphStructureError, match=r"\(4, 5\)"):
            sssp_job(graph, 0, weights=gappy, nodes=region)
        # The region-only map runs to the right distances.
        server = JobServer(graph, scheduler="event")
        server.submit(job)
        report = server.drain()
        assert report.outcomes["ok"].results == {0: 0, 1: 2, 4: 1, 5: 3}

    def test_sssp_job_keeps_the_weights_it_validated(self):
        # Editing the caller's dict after submission must not reach the
        # drain, nor cost the other tenant its outcome.
        graph = grid_graph(3, 3)
        weights = {canonical_edge(u, v): 2 for u, v in graph.edges()}
        server = JobServer(graph, scheduler="event")
        server.submit(sssp_job(graph, 0, weights=weights, job_id="weighted"))
        server.submit(sssp_job(graph, 8, job_id="other"))
        del weights[(0, 1)]
        report = server.drain()
        assert report.outcomes["weighted"].results[1] == 2
        assert report.outcomes["other"].results[8] == 0


class TestMulticastPartIndices:
    @pytest.mark.parametrize("key", [7, -1, "0"])
    def test_rejects_keys_outside_the_partition(self, key):
        graph = nx.path_graph(4)
        partition = Partition(graph, [[0, 1], [2, 3]])
        with pytest.raises(ShortcutError, match="not in the partition"):
            solve_partwise_multicast(graph, partition, {0: 1, 1: 2, key: 3}, rng=1)


class TestMincutTreeCount:
    @pytest.mark.parametrize("num_trees", [2.5, 0, -3, True])
    def test_rejects_non_positive_int(self, num_trees):
        with pytest.raises(ShortcutError, match="num_trees must be a positive int"):
            distributed_mincut(grid_graph(3, 3), num_trees=num_trees, rng=1)
