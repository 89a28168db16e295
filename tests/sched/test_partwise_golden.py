"""Golden pin of the packet scheduler over its whole option matrix.

Every combination of ``delay_mode`` and latency model (none, static
``seeded-jitter``, load-dependent ``contention:1.0``) runs on two
contended instances: E12's 14x14 grid-rows ablation and a
wheel whose four rim arcs all route through every spoke. Each case pins
the measured rounds, message and bit counts, virtual time and planned
load literally, plus a digest of the per-part values, completion rounds
and per-edge message counts. The expected values were captured before
the per-edge queue was shared with the job layer; any change to grant
order, rng draws or transit accounting moves them.

``ROUND_HISTOGRAM`` separately pins a digest of
``stats.messages_by_round`` per case (captured before the packet loop
charged its counters once per tick), and every case must pass
``stats.check()``.
"""

import hashlib

import pytest

from repro.core.full import build_full_shortcut
from repro.core.shortcut import Shortcut
from repro.graphs.generators import grid_graph, wheel_graph
from repro.graphs.partition import Partition, grid_rows_partition
from repro.graphs.trees import bfs_tree
from repro.sched import partwise_aggregate

DELAY_MODES = ("random", "zero", "sequential")
MODELS = (None, "seeded-jitter", "contention:1.0")


def _grid_rows():
    graph = grid_graph(14, 14)
    partition = grid_rows_partition(graph)
    shortcut = build_full_shortcut(graph, bfs_tree(graph), partition, 3.0).shortcut
    return graph, partition, shortcut, {v: 1 for v in graph.nodes()}, lambda a, b: a + b


def _wheel():
    graph = wheel_graph(33)
    rim = list(range(1, 33))
    partition = Partition(graph, [rim[i:i + 8] for i in range(0, 32, 8)])
    spokes = [(0, v) for v in rim]
    shortcut = Shortcut(graph, partition, [spokes] * 4)
    return graph, partition, shortcut, {v: (7 * v) % 11 for v in rim}, min


INSTANCES = {"grid-rows": _grid_rows, "wheel": _wheel}


def fingerprint(result) -> tuple:
    stats = result.stats
    bulky = (
        sorted(result.values.items()),
        sorted(result.completion_rounds.items()),
        sorted(stats.edge_messages.items()),
    )
    digest = hashlib.sha256(repr(bulky).encode()).hexdigest()[:16]
    return (
        stats.rounds, stats.messages, stats.message_bits, stats.virtual_time,
        result.max_edge_load, result.incomplete, digest,
    )


def round_digest(stats) -> str:
    """Digest of the per-send-tick message histogram."""
    return hashlib.sha256(repr(sorted(stats.messages_by_round.items())).encode()).hexdigest()[:16]


def run_case(instance, delay_mode, model):
    graph, partition, shortcut, values, combine = instance
    return partwise_aggregate(
        graph, partition, shortcut, values, combine, rng=3,
        delay_mode=delay_mode, latency_model=model,
    )


# Keys and test ids keep the grant discipline the pins were captured
# under: FIFO, the only one the scheduler has.
CASES = [
    pytest.param(delay_mode, model, id=f"{delay_mode}-fifo-{model}")
    for delay_mode in DELAY_MODES
    for model in MODELS
]
GOLDEN = {
    ('grid-rows', 'random', 'fifo', None): (59, 2912, 23800, 0, 13, (), '0fb40498141f6b35'),
    ('grid-rows', 'random', 'fifo', 'seeded-jitter'): (238, 2912, 23800, 238, 13, (), '2a68e2da80cbe01e'),
    ('grid-rows', 'random', 'fifo', 'contention:1.0'): (59, 2912, 23800, 59, 13, (), '0fb40498141f6b35'),
    ('grid-rows', 'zero', 'fifo', None): (64, 2912, 23800, 0, 13, (), '16b4d7e7766d444e'),
    ('grid-rows', 'zero', 'fifo', 'seeded-jitter'): (245, 2912, 23800, 245, 13, (), '686e7dceac1170a1'),
    ('grid-rows', 'zero', 'fifo', 'contention:1.0'): (64, 2912, 23800, 64, 13, (), '16b4d7e7766d444e'),
    ('grid-rows', 'sequential', 'fifo', None): (754, 2912, 23800, 0, 13, (), 'bc59b8a83d351838'),
    ('grid-rows', 'sequential', 'fifo', 'seeded-jitter'): (896, 2912, 23800, 896, 13, (), '3c6d803702442ede'),
    ('grid-rows', 'sequential', 'fifo', 'contention:1.0'): (754, 2912, 23800, 754, 13, (), 'bc59b8a83d351838'),
    ('wheel', 'random', 'fifo', None): (9, 256, 1194, 0, 4, (), '6a525a5b1972699a'),
    ('wheel', 'random', 'fifo', 'seeded-jitter'): (25, 256, 1194, 25, 4, (), 'ae5f836a37e18886'),
    ('wheel', 'random', 'fifo', 'contention:1.0'): (10, 256, 1194, 10, 4, (), 'a697d5e3c091237d'),
    ('wheel', 'zero', 'fifo', None): (8, 256, 1194, 0, 4, (), 'e849241711c6d7aa'),
    ('wheel', 'zero', 'fifo', 'seeded-jitter'): (25, 256, 1194, 25, 4, (), '6f26d58a61e91654'),
    ('wheel', 'zero', 'fifo', 'contention:1.0'): (9, 256, 1194, 9, 4, (), '3135c6fbaf966993'),
    ('wheel', 'sequential', 'fifo', None): (22, 256, 1194, 0, 4, (), 'b50a6fe721324323'),
    ('wheel', 'sequential', 'fifo', 'seeded-jitter'): (40, 256, 1194, 40, 4, (), 'be2dfc61bb5e86ae'),
    ('wheel', 'sequential', 'fifo', 'contention:1.0'): (22, 256, 1194, 22, 4, (), 'b50a6fe721324323'),
}
CUTOFF = (9, 236, 1094, 9, 4, (1, 3), '3480f781933a5fcb')

ROUND_HISTOGRAM = {
    ('grid-rows', 'random', 'fifo', None): '66d3f0b3e9e0f55f',
    ('grid-rows', 'random', 'fifo', 'seeded-jitter'): '803ee096064cc9d8',
    ('grid-rows', 'random', 'fifo', 'contention:1.0'): '66d3f0b3e9e0f55f',
    ('grid-rows', 'zero', 'fifo', None): '04cf0a1ff186c8da',
    ('grid-rows', 'zero', 'fifo', 'seeded-jitter'): 'fb66e980e0e8e5d9',
    ('grid-rows', 'zero', 'fifo', 'contention:1.0'): '04cf0a1ff186c8da',
    ('grid-rows', 'sequential', 'fifo', None): '8a37000f00320fec',
    ('grid-rows', 'sequential', 'fifo', 'seeded-jitter'): 'fd92dc936e8ab665',
    ('grid-rows', 'sequential', 'fifo', 'contention:1.0'): '8a37000f00320fec',
    ('wheel', 'random', 'fifo', None): '5a9600470c152ecc',
    ('wheel', 'random', 'fifo', 'seeded-jitter'): '71e23d5b052bf397',
    ('wheel', 'random', 'fifo', 'contention:1.0'): '5c945c3140da764c',
    ('wheel', 'zero', 'fifo', None): '4568c44e70898874',
    ('wheel', 'zero', 'fifo', 'seeded-jitter'): '81311ffe4949735b',
    ('wheel', 'zero', 'fifo', 'contention:1.0'): '8be23f10eb830b17',
    ('wheel', 'sequential', 'fifo', None): '2d0cee9b60bb98f8',
    ('wheel', 'sequential', 'fifo', 'seeded-jitter'): '73085178f4bff5a0',
    ('wheel', 'sequential', 'fifo', 'contention:1.0'): '2d0cee9b60bb98f8',
}
CUTOFF_ROUND_HISTOGRAM = 'e7d34b0b223aa47c'


@pytest.fixture(scope="module", params=sorted(INSTANCES))
def instance(request):
    return request.param, INSTANCES[request.param]()


@pytest.mark.parametrize("delay_mode,model", CASES)
def test_matches_golden(instance, delay_mode, model):
    name, built = instance
    result = run_case(built, delay_mode, model)
    result.stats.check()
    assert fingerprint(result) == GOLDEN[(name, delay_mode, "fifo", model)]
    assert round_digest(result.stats) == ROUND_HISTOGRAM[(name, delay_mode, "fifo", model)]


def test_cutoff_matches_golden():
    # A hard stop mid-run under the load-dependent model: parts 1 and 3
    # still have packets queued or in flight and are reported incomplete.
    graph, partition, shortcut, values, combine = _wheel()
    result = partwise_aggregate(
        graph, partition, shortcut, values, combine, rng=3, max_rounds=9,
        latency_model="contention:1.0",
    )
    result.stats.check()
    assert fingerprint(result) == CUTOFF
    assert round_digest(result.stats) == CUTOFF_ROUND_HISTOGRAM
