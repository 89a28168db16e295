"""Tests for the Theorem 1.5 distributed construction."""

import math
import random

import networkx as nx
import pytest
from hypothesis import HealthCheck, assume, find, given, settings
from hypothesis import strategies as st

from repro.congest.engine import available_schedulers
from repro.congest.network import NodeContext
from repro.core.distributed import (
    KeepAliveSweepNode,
    distributed_partial_shortcut,
)
from repro.core.partial import (
    build_partial_shortcut,
    conflict_from_marking,
    mark_overcongested_edges,
)
from repro.core.providers import ShortcutRequest, build_shortcut
from repro.graphs.generators import broom_graph, grid_graph, k_tree
from repro.graphs.partition import Partition, grid_rows_partition, voronoi_partition
from repro.graphs.trees import bfs_tree
from repro.util.errors import ShortcutError

from tests.conftest import GENERATED_GRAPHS, SEEDS


class TestExactModeAgreesWithCentralized:
    def test_marking_identical(self):
        graph = grid_graph(10, 10)
        partition = grid_rows_partition(graph)
        distributed = distributed_partial_shortcut(
            graph, partition, delta=0.02, rng=3, exact=True, run_verification=False
        )
        central = build_partial_shortcut(
            graph, bfs_tree(graph, 0), partition, delta=0.02
        )
        assert distributed.overcongested == central.overcongested

    def test_satisfied_sets_identical(self):
        graph = grid_graph(10, 10)
        partition = voronoi_partition(graph, 25, rng=1)
        distributed = distributed_partial_shortcut(
            graph, partition, delta=0.05, rng=3, exact=True, run_verification=False
        )
        central = build_partial_shortcut(
            graph, bfs_tree(graph, 0), partition, delta=0.05
        )
        assert distributed.satisfied == central.satisfied


class TestSampledConstruction:
    def test_grid_rows_succeed_at_planar_delta(self):
        graph = grid_graph(12, 12)
        partition = grid_rows_partition(graph)
        result = distributed_partial_shortcut(graph, partition, delta=3.0, rng=1)
        assert result.succeeded
        assert len(result.satisfied) == len(partition)

    def test_congestion_within_budget_slack(self):
        graph = grid_graph(12, 12)
        partition = voronoi_partition(graph, 40, rng=2)
        result = distributed_partial_shortcut(graph, partition, delta=3.0, rng=3)
        shortcut = result.shortcut()
        # Sampled marking: unmarked edges have |I_e| < 2c whp.
        assert shortcut.congestion() <= 2 * result.congestion_budget

    def test_k_tree_succeeds(self):
        graph = k_tree(150, 3, rng=4, locality=0.9)
        partition = voronoi_partition(graph, 30, rng=5)
        result = distributed_partial_shortcut(graph, partition, delta=3.0, rng=6)
        assert result.succeeded

    def test_round_scaling_near_linear_in_depth(self):
        # Rounds should scale ~ D log n, not D^2: compare two grid depths.
        small = grid_graph(8, 8)
        large = grid_graph(16, 16)
        result_small = distributed_partial_shortcut(
            small, grid_rows_partition(small), delta=3.0, rng=1,
            run_verification=False,
        )
        result_large = distributed_partial_shortcut(
            large, grid_rows_partition(large), delta=3.0, rng=1,
            run_verification=False,
        )
        depth_ratio = result_large.params["depth_max"] / result_small.params["depth_max"]
        rounds_ratio = result_large.stats.rounds / result_small.stats.rounds
        # Allow slack for the log factor but rule out quadratic growth.
        assert rounds_ratio <= depth_ratio * 2.5

    def test_phase_breakdown_present(self):
        graph = grid_graph(8, 8)
        partition = grid_rows_partition(graph)
        result = distributed_partial_shortcut(graph, partition, delta=3.0, rng=1)
        assert {"bfs", "meta", "sweep", "verify"} <= set(result.stats.phases)

    def test_rejects_nonpositive_delta(self):
        graph = grid_graph(4, 4)
        partition = grid_rows_partition(graph)
        with pytest.raises(ShortcutError):
            distributed_partial_shortcut(graph, partition, delta=0)

    @pytest.mark.parametrize("factor", [0, -1, float("nan"), float("inf"), "6", True])
    def test_rejects_a_bad_sampling_factor(self, factor):
        graph = grid_graph(4, 4)
        partition = grid_rows_partition(graph)
        with pytest.raises(ShortcutError, match="sampling_factor must be a finite real"):
            distributed_partial_shortcut(graph, partition, delta=3.0, sampling_factor=factor)

    def test_small_sampling_factor_stays_legal(self):
        graph = grid_graph(6, 6)
        partition = grid_rows_partition(graph)
        result = distributed_partial_shortcut(
            graph, partition, delta=3.0, rng=1, sampling_factor=0.05
        )
        assert result.succeeded

    @pytest.mark.parametrize("foreign", [grid_graph(3, 3), grid_graph(5, 5)])
    def test_rejects_a_tree_of_another_graph(self, foreign):
        graph = grid_graph(4, 4)
        partition = grid_rows_partition(graph)
        with pytest.raises(ShortcutError, match="does not span"):
            distributed_partial_shortcut(graph, partition, delta=3.0, tree=bfs_tree(foreign))

    def test_no_satisfied_parts_shortcut_raises(self):
        graph = grid_graph(6, 6)
        partition = grid_rows_partition(graph)
        result = distributed_partial_shortcut(
            graph, partition, delta=3.0, rng=1, run_verification=False
        )
        # Sanity path: force an empty satisfied tuple.
        result.satisfied = ()
        with pytest.raises(ShortcutError):
            result.shortcut()

    def test_unknown_sweep_variant_rejected(self):
        graph = grid_graph(4, 4)
        partition = grid_rows_partition(graph)
        with pytest.raises(ShortcutError) as info:
            distributed_partial_shortcut(graph, partition, delta=3.0, sweep="bogus")
        assert "ack" in str(info.value) and "keep-alive" in str(info.value)

    def test_sampled_marking_interpretable(self):
        graph = grid_graph(10, 10)
        partition = voronoi_partition(graph, 30, rng=7)
        result = distributed_partial_shortcut(
            graph, partition, delta=1.0, rng=8, run_verification=False
        )
        conflict = conflict_from_marking(result.tree, partition, result.overcongested)
        # Degrees must be consistent with the satisfied decision.
        for index in result.satisfied:
            assert conflict.part_degrees[index] <= result.block_budget


class TestAckSweepLatencyAdaptive:
    """The tentpole claim: the ack-driven sweep's Theorem 3.1 marking is
    exact under every registered latency model — completion is signalled
    by child acks, never inferred from the round counter."""

    @pytest.mark.parametrize(
        "model", [None, "seeded-jitter", "degree-proportional"]
    )
    def test_marking_exact_under_every_latency_model(self, model):
        graph = grid_graph(9, 9)
        partition = voronoi_partition(graph, 18, rng=4)
        result = distributed_partial_shortcut(
            graph, partition, delta=0.05, rng=5, exact=True,
            run_verification=False, latency_model=model,
        )
        # The exact centralized process on the tree the pipeline built
        # (under jitter the measured BFS tree itself may differ — the
        # marking contract is relative to the tree in use).
        expected, _ = mark_overcongested_edges(
            result.tree, partition, result.congestion_budget
        )
        assert result.overcongested == expected
        assert result.params["undecided"] == 0

    def test_ack_and_keep_alive_sweeps_agree_in_lockstep(self):
        graph = grid_graph(10, 10)
        partition = voronoi_partition(graph, 20, rng=6)
        ack = distributed_partial_shortcut(
            graph, partition, delta=0.05, rng=7, exact=True,
            run_verification=False, sweep="ack",
        )
        legacy = distributed_partial_shortcut(
            graph, partition, delta=0.05, rng=7, exact=True,
            run_verification=False, sweep="keep-alive",
        )
        assert ack.overcongested == legacy.overcongested
        assert ack.satisfied == legacy.satisfied
        # The ack protocol needs no calibrated horizon: strictly fewer
        # rounds and activations than the windowed schedule on any
        # non-trivial tree.
        assert ack.stats.phases["sweep"].rounds < legacy.stats.phases["sweep"].rounds
        assert (
            ack.stats.phases["sweep"].activations
            < legacy.stats.phases["sweep"].activations
        )

    def test_sampled_ack_sweep_backend_equivalence_with_latency(self):
        # Determinism under a latency model: same seed replays the same
        # marking, stats included.
        graph = broom_graph(30, 12)
        partition = voronoi_partition(graph, 8, rng=9)
        runs = [
            distributed_partial_shortcut(
                graph, partition, delta=1.0, rng=11, run_verification=False,
                latency_model="seeded-jitter",
            )
            for _ in range(2)
        ]
        assert runs[0].overcongested == runs[1].overcongested
        assert runs[0].stats == runs[1].stats
        assert runs[0].stats.virtual_time > 0


class TestKeepAliveSweepRegression:
    """Satellite: the legacy sweep's decision check must be ``>=`` with a
    ``decided`` latch — a clock that skips past ``decision_round`` (wakes
    under a non-uniform latency model are not guaranteed back-to-back)
    must not strand the node undecided until ``max_rounds``."""

    def _node(self):
        # depth 1 of depth_max 1, tau 2: decision_round == 1.
        return KeepAliveSweepNode(
            node=1, part_id=0, parent=0, depth=1, depth_max=1, tau=2,
            probability=1.0, seed=0,
        )

    def test_skipping_clock_still_decides(self):
        node = self._node()
        ctx = NodeContext(1, (0,), 2, random.Random(0))
        ctx.round = node.decision_round + 2  # virtual time jumped the window
        node.on_round(ctx, {})
        assert node.decided
        assert node.result()["decided"]

    def test_decision_is_latched_not_redecided(self):
        node = self._node()
        ctx = NodeContext(1, (0,), 2, random.Random(0))
        ctx.round = node.decision_round
        node.on_round(ctx, {})
        assert node.decided and not node.marked
        # Ids arriving after the (late) decision must not flip the marking.
        ctx.round = node.decision_round + 1
        node.on_round(ctx, {0: (0, 5)})
        ctx.round = node.decision_round + 2
        node.on_round(ctx, {0: (0, 6)})
        assert not node.marked

    def test_seeded_jitter_pipeline_decides_everywhere(self):
        # End-to-end regression: under seeded-jitter virtual time the
        # legacy sweep must still reach a decision at every non-root node
        # and quiesce on its own (no max_rounds strandings).
        graph = broom_graph(25, 10)
        partition = voronoi_partition(graph, 6, rng=2)
        result = distributed_partial_shortcut(
            graph, partition, delta=1.0, rng=3, run_verification=False,
            latency_model="seeded-jitter", sweep="keep-alive",
        )
        assert result.params["undecided"] == 0
        assert result.stats.phases["sweep"].rounds < 10**6


STATIC_LATENCY_MODELS = ("uniform", "seeded-jitter", "degree-proportional", "heavy-tailed")


def _simulated(graph, partition, delta, rng, latency_model):
    return build_shortcut(ShortcutRequest(
        graph, partition, provider="theorem31-simulated", delta=delta,
        rng=rng, latency_model=latency_model,
    ))


@st.composite
def _simulated_instances(draw):
    """A grid, k-tree or random regular graph with a Voronoi partition, a
    low starting δ (so Observation 2.7 often needs several iterations) and
    a static latency model."""
    seed = draw(st.integers(0, 2**16))
    family = draw(st.sampled_from(("grid", "k-tree", "regular")))
    if family == "grid":
        graph = grid_graph(draw(st.integers(4, 16)), draw(st.integers(4, 16)))
    elif family == "k-tree":
        graph = k_tree(draw(st.integers(10, 90)), draw(st.integers(1, 3)), rng=seed)
    else:
        degree = draw(st.sampled_from((3, 4, 6)))
        graph = nx.convert_node_labels_to_integers(
            nx.random_regular_graph(degree, 2 * draw(st.integers(5, 60)), seed=seed)
        )
        assume(nx.is_connected(graph))
    parts = draw(st.integers(1, max(1, graph.number_of_nodes() // 3)))
    partition = voronoi_partition(graph, parts, rng=seed)
    delta = draw(st.sampled_from((0.01, 0.05, 0.2)))
    model = draw(st.sampled_from(STATIC_LATENCY_MODELS))
    return graph, partition, delta, seed, model


class TestSimulatedFullShortcutOneTree:
    """Observation 2.7 runs every iteration on one tree, so the simulated
    full shortcut meets Observation 2.6's dilation bound under every static
    latency model (iterations used to build fresh BFS trees, which differ
    under non-uniform latencies, and read earlier ``H_i`` against the last
    one)."""

    def test_pinned_multi_iteration_instance_under_seeded_jitter(self):
        graph = nx.convert_node_labels_to_integers(nx.random_regular_graph(6, 120, seed=0))
        partition = voronoi_partition(graph, 40, rng=random.Random(0))
        outcome = _simulated(graph, partition, 0.05, 0, "seeded-jitter")
        assert outcome.provenance.iterations > 1
        dilation = outcome.quality().dilation
        assert math.isfinite(dilation)
        assert dilation <= outcome.shortcut.dilation_upper_bound()
        outcome.stats.check()

    @given(_simulated_instances())
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_dilation_within_observation26_bound(self, case):
        graph, partition, delta, seed, model = case
        outcome = _simulated(graph, partition, delta, seed, model)
        assert len(outcome.shortcut.partition) == len(partition)
        dilation = outcome.quality().dilation
        assert math.isfinite(dilation)
        assert dilation <= outcome.shortcut.dilation_upper_bound()
        outcome.stats.check()

    def test_generated_cases_need_several_iterations(self):
        # The property above is not vacuous: its strategy reaches
        # multi-iteration constructions under a non-uniform model.
        find(
            _simulated_instances(),
            lambda case: case[4] != "uniform"
            and _simulated(*case).provenance.iterations >= 2,
            settings=settings(max_examples=200, deadline=None, database=None),
        )

    def test_empty_part_collection_is_rejected(self):
        graph = grid_graph(3, 3)
        with pytest.raises(ShortcutError, match="empty part collection"):
            _simulated(graph, Partition(graph, []), 1.0, 0, None)

    def test_given_tree_skips_the_bfs_phase(self):
        graph = grid_graph(6, 6)
        partition = voronoi_partition(graph, 6, rng=1)
        fresh = distributed_partial_shortcut(graph, partition, 0.5, rng=2)
        reused = distributed_partial_shortcut(graph, partition, 0.5, tree=fresh.tree, rng=2)
        assert "bfs" in fresh.stats.phases and "bfs" not in reused.stats.phases
        assert reused.tree is fresh.tree
        with pytest.raises(ShortcutError, match="fixes the root"):
            distributed_partial_shortcut(graph, partition, 0.5, tree=fresh.tree, root=0)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    GENERATED_GRAPHS, SEEDS, st.integers(1, 40),
    st.sampled_from((0.05, 0.5, 3.0)), st.booleans(),
)
def test_sweep_critical_path_is_at_most_depth_times_tau(
    graph, seed, parts, delta, exact,
):
    """Sweep rounds ≤ D · max(τ − 1, 1) ≤ D · τ + 0, on every backend.

    Derived from :class:`SweepNode` under lockstep delivery. Leaves decide
    in ``on_start`` (round 0). A node that decides in round ``t`` closes
    its stream to its parent by round ``t + max(k, 1)``: a marked or empty
    node sends one bare ack (1 round); an unmarked one streams its
    ``k ≤ τ − 1`` ids one per round and piggybacks the close on the last
    id (``k`` rounds, no extra close round). A parent decides when its last
    child closes, so a node of height ``h`` decides by round
    ``h · max(τ − 1, 1)``, and the root, which sends nothing, ends the run
    there. The constant over ``D · τ`` is therefore 0.
    """
    partition = voronoi_partition(graph, min(parts, graph.number_of_nodes()), rng=seed)
    for scheduler in available_schedulers():
        result = distributed_partial_shortcut(
            graph, partition, delta, rng=seed, exact=exact,
            run_verification=False, scheduler=scheduler,
        )
        tau = result.params["tau"]
        bound = result.tree.max_depth * max(tau - 1, 1)
        assert result.stats.phases["sweep"].rounds <= bound <= result.tree.max_depth * tau, (
            scheduler, tau,
        )
