"""Packet-level simulation of simultaneous part-wise aggregations.

For each part ``P_i`` with shortcut subgraph ``H_i``, the communication
graph is ``C_i = G[P_i] + H_i``. The engine:

1. plans a routing tree ``R_i`` (BFS tree of ``C_i`` from the part leader);
2. runs a *convergecast* (every node sends one packet to its ``R_i`` parent
   once all children reported) followed by a *broadcast* of the aggregate
   back down;
3. moves packets under the CONGEST capacity constraint — one packet per
   directed edge per round, FIFO per edge — with every part's start time
   shifted by a random delay in ``[0, congestion)`` (the LMR94 technique).
   The queue is :class:`~repro.congest.engine.EdgeQueues` with one slot,
   the same per-edge queue the job layer arbitrates tenants with: a packet
   sent on an idle edge claims it and waits nowhere, and only the rare
   collision the random delays leave queues.

The measured completion round is the part-wise aggregation time ``T_PA``;
with a quality-``Q`` shortcut it is ``O(Q log n)`` whp, which is exactly
the paper's claim about the usefulness of shortcuts.

With a :class:`~repro.congest.asynchronous.LatencyModel` the engine runs
latency-realistically, under the **one shared delivery convention** of the
whole codebase (:class:`repro.congest.engine.Transit`):
a packet *sent* at tick ``t`` — ``t`` being the send tick recorded in
``RoundStats.messages_by_round`` — is delivered at ``t + latency(e)``,
with ``latency(e) = 1`` reproducing the lockstep sent-in-``r``,
delivered-in-``r + 1`` schedule exactly (asserted by the test suite: a
forced all-ones latency table is byte-identical to running with no model
at all, in both this engine and the event scheduler backend). One packet
may still *enter* a directed edge per tick — the CONGEST capacity
constraint — and the result's :class:`RoundStats` reports the wall-model
``virtual_time`` dimension. Latencies are deterministic from a seed drawn
once per run, so latency-mode executions replay byte-identically per
seed; without a model the engine is byte-identical to its lockstep
behavior (no extra rng draws).

The convergecast/broadcast waves this engine schedules are the packet-level
mirror of the ack protocol the event algorithms use
(:mod:`repro.core.distributed`): a node reports to its parent exactly when
all children have reported — completion is signalled, never inferred from
tick counting — which is why the measured completion stays correct under
any latency assignment.

Faithfulness note (``docs/architecture.md``, "Faithfulness notes"): the
routing trees are planned centrally. A distributed plan costs one extra broadcast-shaped wave over
``C_i`` with identical congestion characteristics, so the asymptotics and
the measured shapes are unaffected; the constant is one extra pass.
"""

from __future__ import annotations

import math
import random
from collections.abc import Callable
from dataclasses import dataclass

import networkx as nx

from repro.congest.asynchronous import resolve_latency_model
from repro.congest.engine import EdgeQueues, Transit
from repro.congest.stats import RoundStats
from repro.core.shortcut import Shortcut, augmented_adjacency
from repro.graphs.partition import Partition
from repro.util.bitsize import payload_bits
from repro.util.errors import ShortcutError
from repro.util.rng import ensure_rng

__all__ = ["PartwiseAggregationResult", "partwise_aggregate", "plan_routing_trees"]

_DELAY_MODES = ("random", "zero", "sequential")


@dataclass
class PartwiseAggregationResult:
    """Outcome of a simulated simultaneous part-wise aggregation.

    Attributes:
        values: aggregate per part index (as computed at — and broadcast
            from — the part leader); parts that did not finish are absent.
        completion_rounds: per part, the round its broadcast finished.
        incomplete: parts that did not finish within ``max_rounds``.
        stats: measured rounds (= max completion) and messages.
        max_edge_load: planned congestion (max packets assigned to one
            directed edge), the ``c`` in the ``O(c + d log n)`` bound.
        max_tree_depth: deepest routing tree, proxy for the dilation ``d``.
    """

    values: dict[int, object]
    completion_rounds: dict[int, int]
    incomplete: tuple[int, ...]
    stats: RoundStats
    max_edge_load: int
    max_tree_depth: int


@dataclass(slots=True)
class _PartPlan:
    """Routing plan for one part: a rooted tree over its communication graph.

    ``parent`` lists the nodes in BFS discovery order, root first, so its
    items after the root are the tree edges. ``children`` holds the nodes
    that have children, in the same order; leaves are the nodes it lacks.
    """

    index: int
    root: int
    parent: dict[int, int | None]
    children: dict[int, list[int]]
    depth: int


def plan_routing_trees(
    graph: nx.Graph,
    partition: Partition,
    shortcut: Shortcut,
) -> list[_PartPlan]:
    """BFS routing tree of ``G[P_i] + H_i`` per part, rooted at the leader.

    The BFS visits neighbours in :func:`~repro.core.shortcut.augmented_adjacency`
    order, the neighbour order of ``shortcut.augmented_subgraph(i)``.

    Raises:
        ShortcutError: if some part's communication graph is disconnected
            (infinite dilation — the shortcut is unusable for aggregation).
    """
    plans: list[_PartPlan] = []
    for index in range(len(partition)):
        adjacency = augmented_adjacency(graph, partition[index], shortcut.subgraphs[index])
        root = partition.leader_of(index)
        parent: dict[int, int | None] = {root: None}
        children: dict[int, list[int]] = {}
        order = [root]  # the BFS queue; the loop reaches what it appends
        for node in order:
            kids = None
            for neighbor in adjacency[node]:
                if neighbor not in parent:
                    parent[neighbor] = node
                    order.append(neighbor)
                    if kids is None:
                        kids = children[node] = []
                    kids.append(neighbor)
        if len(parent) != len(adjacency):
            raise ShortcutError(
                f"part {index}: G[P_i] + H_i is disconnected; cannot aggregate"
            )
        # BFS discovers level by level, so the last node found is deepest.
        depth = 0
        while parent[node] is not None:
            node = parent[node]
            depth += 1
        plans.append(_PartPlan(index, root, parent, children, depth))
    return plans


def partwise_aggregate(
    graph: nx.Graph,
    partition: Partition,
    shortcut: Shortcut,
    values: dict[int, object],
    combine: Callable[[object, object], object],
    rng: int | random.Random | None = None,
    delay_mode: str = "random",
    max_rounds: int | None = None,
    latency_model: object = None,
) -> PartwiseAggregationResult:
    """Simulate all parts aggregating simultaneously through the shortcut.

    Args:
        graph, partition, shortcut: the instance; ``shortcut.subgraphs[i]``
            is ``H_i``.
        values: input value per node (nodes outside every part are ignored;
            nodes of a part missing from ``values`` contribute nothing).
        combine: associative-commutative combiner (min, max, +, …).
        rng: seed or generator for the random delays.
        delay_mode: ``"random"`` (LMR94 delays in ``[0, congestion)``),
            ``"zero"`` (all parts start at once — the ablation arm), or
            ``"sequential"`` (part ``i`` starts after ``i`` planned windows —
            the trivial schedule).
        max_rounds: hard stop, a positive int; defaults to a generous
            ``8·(load + (depth+1)·(2+log2 n)) + 64``.
        latency_model: per-edge latency model (name or
            :class:`~repro.congest.asynchronous.LatencyModel` instance) for
            latency-realistic packet transit; ``None`` = one tick per edge
            (the lockstep behavior, byte-identical to before).

    Returns:
        A :class:`PartwiseAggregationResult` with measured rounds.

    Raises:
        ShortcutError: on disconnected communication graphs, an unknown
            ``delay_mode`` or ``latency_model``, or a
            ``max_rounds`` that is not a positive int.
    """
    if delay_mode not in _DELAY_MODES:
        raise ShortcutError(f"unknown delay_mode {delay_mode!r}")
    if max_rounds is not None and (
        isinstance(max_rounds, bool) or not isinstance(max_rounds, int) or max_rounds < 1
    ):
        raise ShortcutError(f"max_rounds must be a positive int, got {max_rounds!r}")
    rng = ensure_rng(rng)
    model = resolve_latency_model(latency_model, ShortcutError)
    # The run seed is drawn only for a non-uniform static model, so
    # "uniform" stays byte-identical to no model at all, rng stream
    # included.
    transit = Transit.resolve(model, graph, lambda: rng.randrange(2**62))
    plans = plan_routing_trees(graph, partition, shortcut)

    # Planned per-directed-edge load: each routing-tree edge carries exactly
    # one convergecast packet (up) and one broadcast packet (down), so both
    # directions of an edge carry the same load; count it once.
    load: dict[tuple[int, int], int] = {}
    for plan in plans:
        for child, par in plan.parent.items():
            if par is not None:
                key = (child, par) if child <= par else (par, child)
                load[key] = load.get(key, 0) + 1
    max_load = max(load.values(), default=0)
    max_depth = max((plan.depth for plan in plans), default=0)

    delays = _make_delays(len(plans), max_load, max_depth, delay_mode, rng)
    n = max(graph.number_of_nodes(), 2)
    if max_rounds is None:
        max_rounds = int(
            8 * (max_load + (max_depth + 1) * (2 + math.log2(n))) + max(delays, default=0) + 64
        )
        if transit.latencies:
            # Every hop may take up to the slowest transit time.
            max_rounds *= max(transit.latencies.values())
        elif transit.link_schedule is not None:
            # Dynamic analogue: at most 2*max_load packets share a link at
            # once (one entry per directed edge per tick, both directions),
            # so every hop is bounded by the model's worst transit under
            # that load. Loose only risks a later timeout, never wrong
            # results.
            max_rounds *= max(1, model.worst_transit(2 * max_load))

    # --- Per-part per-node execution state ---------------------------------
    # A packet is ``(up, part, value, bits)``: a convergecast (up) or
    # broadcast packet, sized once when it is made. A broadcast packet is
    # forwarded as is, so each part's aggregate is sized once.
    pending: list[dict[int, int]] = []  # children still to report, per inner node
    accumulator: list[dict[int, object]] = []  # partial aggregates per node
    part_bits: list[int] = []  # kind flag plus the part field
    for plan in plans:
        pending.append({node: len(kids) for node, kids in plan.children.items()})
        acc: dict[int, object] = {}
        part_nodes = partition[plan.index]
        for node in plan.parent:
            acc[node] = values.get(node) if node in part_nodes else None
        accumulator.append(acc)
        part_bits.append(2 + payload_bits(plan.index))

    # Edges are granted in the order of their first claim.
    queues = EdgeQueues()
    send = queues.send

    # Seed the convergecast: nodes with no children fire at their delay.
    start_schedule: dict[int, list[_PartPlan]] = {}
    for plan in plans:
        start_schedule.setdefault(delays[plan.index], []).append(plan)

    finished_nodes: list[int] = [0] * len(plans)  # broadcast receipts
    results: dict[int, object] = {}
    completion: dict[int, int] = {}
    stats = RoundStats()
    edge_messages, messages_by_round = stats.edge_messages, stats.messages_by_round

    # Parts whose routing tree is a single node complete at their delay.
    for plan in plans:
        if len(plan.parent) == 1:
            results[plan.index] = accumulator[plan.index][plan.root]
            finished_nodes[plan.index] = 1
            completion[plan.index] = delays[plan.index]

    # Under lockstep transit every packet granted this tick arrives this
    # tick; otherwise arrivals wait in ``in_flight`` (arrival tick ->
    # [(edge, packet), ...]).
    lockstep = transit.lockstep
    in_flight: dict[int, list] = {}
    ticks = transit.ticks
    current_round = 0
    while len(completion) < len(plans) and current_round < max_rounds:
        # Fire freshly-due convergecast leaves.
        for plan in start_schedule.get(current_round, ()):
            part, children, acc = plan.index, plan.children, accumulator[plan.index]
            for node, par in plan.parent.items():
                if par is not None and node not in children:
                    value = acc[node]
                    send((node, par), (True, part, value, _packet_bits(part_bits[part], value)))
        current_round += 1
        # One packet may *enter* each directed edge per tick (the CONGEST
        # capacity constraint). Transmission happens during round
        # ``current_round``; the send-round key convention of
        # RoundStats.messages_by_round (sent in r, delivered in r+1,
        # initial wave at 0) makes that ``current_round - 1``.
        send_tick = current_round - 1
        granted = queues.grants()
        if granted:
            # The tick's sends are charged at once; the per-edge counters
            # still count every packet, so aggregations report *measured*
            # congestion alongside the planned max_edge_load.
            bits = 0
            for edge, packet in granted:
                edge_messages[edge] = edge_messages.get(edge, 0) + 1
                bits += packet[3]
            stats.messages += len(granted)
            stats.message_bits += bits
            messages_by_round[send_tick] = len(granted)
        if lockstep:
            arrivals = granted
        else:
            for grant in granted:
                source, target = grant[0]
                arrive = send_tick + ticks(source, target, send_tick)
                in_flight.setdefault(arrive, []).append(grant)
            arrivals = in_flight.pop(current_round, ())
        for (_, target), packet in arrivals:
            up, part, value, _ = packet
            plan = plans[part]
            if up:
                acc = accumulator[part]
                if value is not None:
                    current = acc[target]
                    acc[target] = value if current is None else combine(current, value)
                waiting = pending[part]
                waiting[target] -= 1
                if waiting[target]:
                    continue
                parent = plan.parent[target]
                if parent is not None:
                    value = acc[target]
                    send(
                        (target, parent),
                        (True, part, value, _packet_bits(part_bits[part], value)),
                    )
                    continue
                # Root has the aggregate; start the broadcast.
                value = results[part] = acc[target]
                packet = (False, part, value, _packet_bits(part_bits[part], value))
            finished_nodes[part] += 1
            for child in plan.children.get(target, ()):
                send((target, child), packet)
            if finished_nodes[part] == len(plan.parent) and part not in completion:
                completion[part] = current_round
    stats.rounds = max(completion.values(), default=0) if len(completion) == len(
        plans
    ) else current_round
    if not lockstep:
        # Latency-realistic run: ticks are virtual time, the wall-model
        # dimension round counts cannot express.
        stats.virtual_time = stats.rounds
    incomplete = tuple(
        plan.index for plan in plans if plan.index not in completion
    )
    return PartwiseAggregationResult(
        values=results,
        completion_rounds=completion,
        incomplete=incomplete,
        stats=stats,
        max_edge_load=max_load,
        max_tree_depth=max_depth,
    )


def _make_delays(
    num_parts: int,
    max_load: int,
    max_depth: int,
    delay_mode: str,
    rng: random.Random,
) -> list[int]:
    if delay_mode == "zero":
        return [0] * num_parts
    if delay_mode == "random":
        spread = max(1, max_load)
        return [rng.randrange(spread) for _ in range(num_parts)]
    window = 2 * (max_depth + 1)  # "sequential"
    return [i * window for i in range(num_parts)]


def _packet_bits(part_bits: int, value: object) -> int:
    try:
        return part_bits + payload_bits(value)
    except TypeError:
        # Arbitrary python values (e.g. frozensets in tests): charge a
        # conservative flat size.
        return 64
