"""Pins of the per-message delivery contract every execution path shares.

Three rules, checked on every registered scheduler backend and on the job
layer (a solo job), over the generated graph families of the equivalence
suite:

* **canonical inbox order** — under lockstep transit every inbox lists its
  senders in sender-index order (the graph's node order), whatever order
  the outboxes list their targets in;
* **all-or-nothing outboxes** — a non-neighbour or over-budget send
  anywhere in an outbox raises :class:`CongestViolation` before anything
  of that outbox is staged or charged;
* **live topology** — one :class:`SyncNetwork` (or :class:`JobScheduler`)
  validates each run against the graph as it is then: a send over an edge
  added since the last run is accepted, one over a removed edge rejected.
"""

import networkx as nx
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.congest import NodeAlgorithm, SyncNetwork
from repro.congest.engine import MessageFabric, Stepper, available_schedulers, node_contexts
from repro.congest.jobs import Job, JobScheduler
from repro.congest.stats import RoundStats
from repro.util.bitsize import payload_bits
from repro.util.errors import CongestViolation
from tests.congest.test_scheduler import GENERATED_GRAPHS

ARMS = (*available_schedulers(), "job")
_seeds = st.integers(0, 2**16)


def _run(graph, algorithms, arm, seed=0):
    """``(results, stats)`` of one run on ``arm`` (a backend name or ``"job"``)."""
    if arm == "job":
        outcome = JobScheduler(graph).run([Job("solo", algorithms, rng=seed)])
        return outcome.outcomes["solo"].results, outcome.stats
    return SyncNetwork(graph, rng=seed, scheduler=arm).run(algorithms)


@st.composite
def relabelled_graphs(draw):
    """A generated graph whose labels are permuted, node order kept.

    Sender-index order is then neither label order nor its reverse, so an
    inbox that came out in label or arrival order would show.
    """
    graph = draw(GENERATED_GRAPHS)
    labels = draw(st.permutations(list(graph.nodes())))
    return nx.relabel_nodes(graph, dict(zip(graph.nodes(), labels)))


class _ShuffledFlood(NodeAlgorithm):
    """Every node sends to all neighbours for ``rounds`` rounds, listing its
    targets in a per-node shuffled order, and records each inbox's senders."""

    def __init__(self, node, rounds):
        self.node = node
        self.rounds = rounds
        self.inboxes = []

    def _outbox(self, ctx):
        targets = list(ctx.neighbors)
        ctx.rng.shuffle(targets)
        return {target: (ctx.round, self.node) for target in targets}

    def on_start(self, ctx):
        return self._outbox(ctx)

    def on_round(self, ctx, inbox):
        if inbox:
            self.inboxes.append((ctx.round, tuple(inbox), tuple(inbox.values())))
        return self._outbox(ctx) if ctx.round < self.rounds else {}

    def result(self):
        return tuple(self.inboxes)


@pytest.mark.parametrize("arm", ARMS)
@settings(max_examples=25, deadline=None)
@given(graph=relabelled_graphs(), seed=_seeds, rounds=st.integers(1, 3))
def test_lockstep_inboxes_list_senders_in_index_order(arm, graph, seed, rounds):
    index = {v: i for i, v in enumerate(graph.nodes())}
    algorithms = {v: _ShuffledFlood(v, rounds) for v in graph}
    results, stats = _run(graph, algorithms, arm, seed)
    assert stats.rounds == rounds
    for v, inboxes in results.items():
        assert len(inboxes) == rounds
        for round_no, senders, payloads in inboxes:
            assert list(senders) == sorted(graph.neighbors(v), key=index.__getitem__)
            assert payloads == tuple((round_no - 1, s) for s in senders)


class _Recorder(NodeAlgorithm):
    def __init__(self):
        self.inbox = None

    def on_round(self, ctx, inbox):
        self.inbox = dict(inbox)
        return {}


def _staging_fixture(graph):
    """A fabric and stepper over ``graph`` with recording nodes, nothing run."""
    net = SyncNetwork(graph)
    stats = RoundStats()
    fabric = MessageFabric({v: graph[v] for v in graph}, net.bandwidth_bits, stats)
    algorithms = {v: _Recorder() for v in graph}
    index = {v: i for i, v in enumerate(graph.nodes())}
    clock = Stepper(algorithms, node_contexts(net, 0), index, fabric)
    return net, fabric, clock, algorithms, index


def _assert_nothing_charged(stats):
    assert stats.messages == 0
    assert stats.message_bits == 0
    assert stats.messages_by_round == {}
    assert stats.edge_messages == {}


@settings(max_examples=40, deadline=None)
@given(
    graph=GENERATED_GRAPHS, data=st.data(),
    fault=st.sampled_from(["non-neighbour", "oversized"]),
)
def test_a_bad_send_anywhere_stages_and_charges_nothing(graph, data, fault):
    net, fabric, clock, algorithms, index = _staging_fixture(graph)
    sender = data.draw(st.sampled_from(list(graph.nodes())))
    neighbours = list(graph.neighbors(sender))
    targets = data.draw(st.permutations(neighbours))
    # A shared payload object, sent to several targets, as BFS does.
    shared = (0, 3)
    outbox = {
        target: shared if k % 2 else (k, index[target]) for k, target in enumerate(targets)
    }
    if fault == "non-neighbour":
        strangers = [v for v in graph if v != sender and v not in graph[sender]]
        assume(strangers)
        bad_target = data.draw(st.sampled_from(strangers))
        bad_payload = (1,)
    else:
        assume(neighbours)
        bad_target = data.draw(st.sampled_from(neighbours))
        bad_payload = "x" * (net.bandwidth_bits // 8 + 1)
        assert payload_bits(bad_payload) > net.bandwidth_bits
    outbox.pop(bad_target, None)
    items = list(outbox.items())
    position = data.draw(st.integers(0, len(items)))
    items.insert(position, (bad_target, bad_payload))
    with pytest.raises(CongestViolation):
        fabric.stage(sender, index[sender], dict(items), 0, clock)
    _assert_nothing_charged(fabric.stats)
    assert clock.arrivals == {}
    assert clock.next_tick() is None

    # The same outbox without the bad send is staged and charged whole.
    fabric.stage(sender, index[sender], outbox, 0, clock)
    assert fabric.stats.messages == len(outbox)
    assert fabric.stats.message_bits == sum(map(payload_bits, outbox.values()))
    assert fabric.stats.messages_by_round == ({0: len(outbox)} if outbox else {})
    assert fabric.stats.edge_messages == {(sender, target): 1 for target in outbox}
    if outbox:
        assert clock.next_tick() == 1
        clock.step(1)
    for v, algorithm in algorithms.items():
        expected = {sender: outbox[v]} if v in outbox else None
        assert algorithm.inbox == expected


class _BadSender(NodeAlgorithm):
    """Node ``sender`` sends a valid outbox in round 0 and one with a bad
    send at ``position`` in round 1."""

    def __init__(self, node, sender, bad_target, bad_payload, position):
        self.node = node
        self.sender = sender
        self.bad = (bad_target, bad_payload)
        self.position = position

    def on_start(self, ctx):
        if self.node != self.sender:
            return {}
        ctx.keep_alive()
        return {w: (0,) for w in ctx.neighbors}

    def on_round(self, ctx, inbox):
        if self.node != self.sender or ctx.round != 1:
            return {}
        items = [(w, (1,)) for w in ctx.neighbors if w != self.bad[0]]
        items.insert(min(self.position, len(items)), self.bad)
        return dict(items)


@pytest.mark.parametrize("arm", ARMS)
@pytest.mark.parametrize("fault", ["non-neighbour", "oversized"])
@pytest.mark.parametrize("position", [0, 1, 99])
def test_a_bad_send_aborts_the_run_on_every_arm(arm, fault, position):
    graph = nx.convert_node_labels_to_integers(nx.grid_2d_graph(3, 3))
    sender = 4  # the centre: four neighbours
    if fault == "non-neighbour":
        bad_target, bad_payload = 0, (1,)
    else:
        bad_target, bad_payload = 1, tuple(range(2**20, 2**20 + 8))
    algorithms = {v: _BadSender(v, sender, bad_target, bad_payload, position) for v in graph}
    with pytest.raises(CongestViolation):
        _run(graph, algorithms, arm)


class _SendOnce(NodeAlgorithm):
    """``source`` messages ``target`` once; the target records what it got."""

    def __init__(self, node, source, target):
        self.node = node
        self.source = source
        self.target = target
        self.got = None

    def on_start(self, ctx):
        return {self.target: (7,)} if self.node == self.source else {}

    def on_round(self, ctx, inbox):
        if inbox:
            self.got = dict(inbox)
        return {}

    def result(self):
        return self.got


@pytest.mark.parametrize("arm", ARMS)
@settings(max_examples=20, deadline=None)
@given(graph=GENERATED_GRAPHS, data=st.data())
def test_graph_mutations_between_runs_are_honoured(arm, graph, data):
    pairs = [(u, v) for u in graph for v in graph if u != v and v not in graph[u]]
    assume(pairs)
    u, v = data.draw(st.sampled_from(pairs))

    def algorithms():
        return {w: _SendOnce(w, u, v) for w in graph}

    if arm == "job":
        scheduler = JobScheduler(graph)

        def run():
            outcome = scheduler.run([Job("solo", algorithms(), rng=1)])
            return outcome.outcomes["solo"].results, outcome.stats
    else:
        network = SyncNetwork(graph, rng=1, scheduler=arm)

        def run():
            return network.run(algorithms())

    with pytest.raises(CongestViolation):
        run()
    graph.add_edge(u, v)
    results, stats = run()
    assert results[v] == {u: (7,)}
    assert stats.edge_messages == {(u, v): 1}
    graph.remove_edge(u, v)
    with pytest.raises(CongestViolation):
        run()
