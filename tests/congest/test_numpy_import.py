"""numpy loads with the first columnar run, never with ``import repro``.

Each check runs in a fresh interpreter, since the test process itself has
long since imported numpy. The interpreted runs (an ``event`` BFS, a
simulated Theorem 1.5 MST, a ``JobServer`` drain of an SSSP job and a
shortcut job) and the registry must leave numpy unloaded, while the
``vectorized`` backend stays registered; with numpy blocked, naming the
backend still raises the install hint. Skipped where numpy is missing,
since there is nothing to keep unloaded.
"""

import subprocess
import sys
from pathlib import Path

import pytest

pytest.importorskip("numpy")

SRC = Path(__file__).resolve().parents[2] / "src"


def _run(script: str) -> None:
    done = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {str(SRC)!r})\n{script}"],
        capture_output=True, text=True, check=False, timeout=300,
    )
    assert done.returncode == 0, done.stderr


def test_interpreted_runs_leave_numpy_unloaded():
    _run(
        """
import repro
from repro.apps.mst import assign_random_weights, distributed_mst
from repro.apps.sssp import sssp_job
from repro.cli import main
from repro.congest.engine import available_schedulers
from repro.congest.primitives import distributed_bfs
from repro.core.providers import ShortcutRequest
from repro.graphs.generators import grid_graph
from repro.graphs.partition import voronoi_partition
from repro.serve import JobServer

assert "numpy" not in sys.modules, "import repro loaded numpy"
assert "vectorized" in available_schedulers()
graph = grid_graph(6, 6)
distributed_bfs(graph, 0, rng=1, scheduler="event")
distributed_mst(
    graph, assign_random_weights(graph, rng=2), provider="theorem31-simulated", rng=2,
)
server = JobServer(graph)
server.submit(sssp_job(graph, 0, rng=3))
server.submit_shortcut(
    ShortcutRequest(graph=graph, partition=voronoi_partition(graph, 4, rng=4))
)
result = server.drain()
assert len(result.outcomes) == 2
assert main(["registry"]) == 0
assert "numpy" not in sys.modules, "an interpreted run loaded numpy"
"""
    )


def test_blocked_numpy_still_raises_the_install_hint():
    _run(
        """
sys.modules["numpy"] = None
from repro.congest.engine import available_schedulers, get_backend

assert "vectorized" not in available_schedulers()
try:
    get_backend("vectorized")
except ValueError as err:
    assert "pip install 'repro[vectorized]'" in str(err), err
else:
    raise AssertionError("get_backend('vectorized') ran without numpy")
"""
    )
