"""Per-node memory of a run: what building and running one node costs.

The simulator builds a context for every node of every run, so a per-node
byte shows up 22,500 times in a 150×150 query. ``tracemalloc`` measures
the peak allocation of one run, after a warm-up run has filled the import
and lookup caches, divided by the node count. The pin is 2,048 B/node:
each run measures about 1.3–1.5 KB/node, and a context whose ``ctx.rng``
held a seeded Mersenne Twister (about 2.5 KB) from the start measured
3.7–4.0 KB/node.
"""

import gc
import tracemalloc

import pytest

from repro.apps.sssp import sssp_job
from repro.congest.primitives.bfs import distributed_bfs
from repro.graphs.generators import grid_graph
from repro.serve import JobServer

BYTES_PER_NODE = 2048
GRID = grid_graph(60, 60)


def _bfs():
    distributed_bfs(GRID, 0, rng=1, scheduler="event")


def _solo_sssp_job():
    server = JobServer(GRID, scheduler="event")
    server.submit(sssp_job(GRID, 0, rng=1, job_id="solo"))
    assert server.drain().outcomes["solo"].status == "completed"


def _peak_bytes_per_node(run) -> float:
    run()
    gc.collect()
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / GRID.number_of_nodes()


@pytest.mark.parametrize("run", [_bfs, _solo_sssp_job], ids=["bfs", "sssp-job"])
def test_peak_allocation_per_node(run):
    assert _peak_bytes_per_node(run) < BYTES_PER_NODE
