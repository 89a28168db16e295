"""The benchmark's four workloads: inputs from a seed, one query, its oracle.

A workload turns the run seed into ``instances`` independent inputs
(:meth:`Workload.make`, timed as set-up), answers one query on an input
(:meth:`Workload.query`, the timed region, preceded by the untimed
:meth:`Workload.prepare`), and checks the answer against an independent
reference computed once per input outside every timed region
(:meth:`Workload.reference` / :meth:`Workload.check`).

Every query on one input is deterministic: the same input gives the same
answer and the same model cost (:meth:`Workload.model`), which ``bench.py``
asserts across all queries of a run and between traced and untraced
queries.

Instance sizes are fixed per scale: ``full`` is the benchmark proper,
``tiny`` the smoke-test size.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import networkx as nx

from repro.apps.mst import assign_random_weights, distributed_mst
from repro.apps.sssp import sssp_job
from repro.congest.primitives.bfs import distributed_bfs
from repro.core.bounds import theorem12_congestion_bound, theorem12_dilation_bound
from repro.core.providers import ShortcutRequest, clear_shortcut_cache, resolve_delta
from repro.core.shortcut import UNREACHABLE
from repro.core.verify import verify_full_result
from repro.graphs.generators import grid_graph
from repro.graphs.partition import voronoi_partition
from repro.serve import JobServer

@dataclass
class Instance:
    """One generated input plus what the oracle expects of it."""

    seed: int
    inputs: dict
    expected: object = None
    model: dict | None = None


def model_of(stats) -> dict:
    """The model counters of a ``RoundStats``; the identity guard compares these.

    ``virtual_time`` falls back to ``rounds`` where no latency model ran
    (the unit-latency convention of ``RoundStats.virtual_time``).
    """
    return {
        "rounds": stats.rounds,
        "messages": stats.messages,
        "message_bits": stats.message_bits,
        "virtual_time": stats.virtual_time or stats.rounds,
        "arbitration_stalls": stats.arbitration_stalls,
    }


def check_shortcut(outcome) -> list[str]:
    """Theorem 1.2 congestion and dilation bounds of one provider outcome.

    Dilation is checked through Observation 2.6's upper bound
    ``b(2D + 1)`` (sound, no BFS), plus a double-sweep BFS per part that
    proves every part's communication graph is connected. Outcomes of the
    centralized provider also pass ``verify_full_result`` in its fast
    (double-sweep) mode, as ``repro quality --fast`` runs it.
    """
    shortcut = outcome.shortcut
    parts = len(shortcut.partition)
    depth = shortcut.tree.max_depth
    delta = outcome.provenance.delta_used
    errors = []
    congestion = shortcut.congestion()
    if congestion > theorem12_congestion_bound(delta, depth, parts):
        errors.append(f"congestion {congestion} above the Theorem 1.2 bound")
    if shortcut.dilation_upper_bound() > theorem12_dilation_bound(delta, depth):
        errors.append("dilation upper bound above the Theorem 1.2 bound")
    if shortcut.dilation(exact=False) == UNREACHABLE:
        errors.append("a part's communication graph is disconnected")
    full = outcome.provenance.details.get("full_result")
    if full is not None:
        report = verify_full_result(full, delta=delta, exact_dilation=False)
        errors.extend(str(check) for check in report.violations())
    return errors


def shortcut_quality(outcome) -> tuple[int, float]:
    """Measured ``(congestion, dilation)``; dilation is the double-sweep value."""
    return outcome.shortcut.congestion(), outcome.shortcut.dilation(exact=False)


def _weighted_mst_weight(graph: nx.Graph, weights: dict) -> int:
    reference = nx.Graph()
    reference.add_nodes_from(graph)
    reference.add_weighted_edges_from((u, v, w) for (u, v), w in weights.items())
    return sum(
        data["weight"] for _, _, data in nx.minimum_spanning_edges(reference, data=True)
    )


class Workload:
    """Base class; subclasses set the class attributes and the hooks."""

    name = "abstract"
    why = ""
    instances = 1
    scales: dict = {}

    def __init__(self, scale: str = "full"):
        self.size = self.scales[scale]

    def make(self, seed: int) -> dict:
        raise NotImplementedError

    def reference(self, inputs: dict) -> object:
        raise NotImplementedError

    def prepare(self, inputs: dict):
        """Untimed per-query preparation; returns the zero-argument query."""
        clear_shortcut_cache()
        return lambda: self.query(inputs)

    def query(self, inputs: dict):
        raise NotImplementedError

    def check(self, instance: Instance, answer) -> list[str]:
        raise NotImplementedError

    def model(self, answer) -> dict:
        raise NotImplementedError

    def shortcuts(self, answer) -> list:
        """Provider outcomes carried by the answer itself (none by default)."""
        return []


class BfsGrid(Workload):
    name = "bfs-grid"
    why = "CONGEST engine only: distributed BFS on a 150x150 grid, event backend"
    instances = 3
    scales = {"full": 150, "tiny": 12}

    def make(self, seed):
        return {"graph": grid_graph(self.size, self.size), "rng": seed}

    def reference(self, inputs):
        return nx.single_source_shortest_path_length(inputs["graph"], 0)

    def query(self, inputs):
        return distributed_bfs(inputs["graph"], 0, rng=inputs["rng"], scheduler="event")

    def check(self, instance, answer):
        tree, _ = answer
        depths = {v: tree.depth_of(v) for v in instance.inputs["graph"]}
        return [] if depths == instance.expected else ["BFS depths differ from networkx"]

    def model(self, answer):
        return model_of(answer[1])


class _Mst(Workload):
    instances = 4

    def reference(self, inputs):
        return _weighted_mst_weight(inputs["graph"], inputs["weights"])

    def check(self, instance, answer):
        errors = []
        if answer.weight != instance.expected:
            errors.append(f"MST weight {answer.weight} != networkx {instance.expected}")
        if len(answer.edges) != instance.inputs["graph"].number_of_nodes() - 1:
            errors.append("MST edge count is not n - 1")
        return errors

    def model(self, answer):
        return model_of(answer.stats)


class MstSimGrid(_Mst):
    name = "mst-sim-grid"
    why = "paper's full query: simulated Theorem 1.5 shortcuts + Boruvka on a 40x40 grid"
    scales = {"full": 40, "tiny": 8}

    def make(self, seed):
        graph = grid_graph(self.size, self.size)
        return {"graph": graph, "weights": assign_random_weights(graph, rng=seed), "rng": seed}

    def query(self, inputs):
        return distributed_mst(
            inputs["graph"], inputs["weights"], construction="simulated",
            rng=inputs["rng"], scheduler="event",
        )


class ServeMixed(Workload):
    name = "serve-mixed"
    why = "job layer: 8 SSSP tenants under the edge arbiter + 8 cached shortcut queries"
    instances = 4
    scales = {"full": (60, 64), "tiny": (10, 8)}
    max_inflight = 6

    def make(self, seed):
        side, num_parts = self.size
        rng = random.Random(seed)
        graph = grid_graph(side, side)
        regions = [tuple(sorted(region)) for region in voronoi_partition(graph, 4, rng=rng)]
        # Four full-graph tenants from one 2x2 block of sources: their
        # floods leave on shared edges, so the arbiter defers sends.
        corner = rng.randrange(side - 1) * side + rng.randrange(side - 1)
        sources = (corner, corner + 1, corner + side, corner + side + 1)
        partition = voronoi_partition(graph, num_parts, rng=rng)
        delta = resolve_delta(graph)
        return {
            "graph": graph,
            "regions": regions,
            "sources": sources,
            "partition": partition,
            "deltas": (delta, 2 * delta),
            "rng": seed,
        }

    def reference(self, inputs):
        graph = inputs["graph"]
        expected = {}
        for index, region in enumerate(inputs["regions"]):
            expected[f"region-{index}"] = nx.single_source_shortest_path_length(
                graph.subgraph(region), min(region)
            )
        for index, source in enumerate(inputs["sources"]):
            expected[f"full-{index}"] = nx.single_source_shortest_path_length(graph, source)
        return expected

    def prepare(self, inputs):
        # Cleared between drains only: inside a drain the shortcut queries
        # share the provider cache, which is what this workload measures.
        clear_shortcut_cache()
        graph, seed = inputs["graph"], inputs["rng"]
        server = JobServer(graph, scheduler="event", max_inflight=self.max_inflight)
        for index, region in enumerate(inputs["regions"]):
            server.submit(sssp_job(
                graph, min(region), nodes=region, rng=seed + index, job_id=f"region-{index}",
            ))
        for index, source in enumerate(inputs["sources"]):
            server.submit(sssp_job(graph, source, rng=seed + 4 + index, job_id=f"full-{index}"))
        for index in range(8):
            server.submit_shortcut(
                ShortcutRequest(
                    graph, inputs["partition"], provider="theorem31-centralized",
                    delta=inputs["deltas"][index % 2],
                ),
                job_id=f"shortcut-{index}",
            )
        return lambda: server.drain()

    def check(self, instance, answer):
        errors = []
        for job_id, outcome in answer.outcomes.items():
            if outcome.status != "completed":
                errors.append(f"{job_id}: status {outcome.status}")
            elif job_id in instance.expected and outcome.results != instance.expected[job_id]:
                errors.append(f"{job_id}: distances differ from networkx")
        if len(answer.outcomes) != 16:
            errors.append(f"{len(answer.outcomes)} of 16 jobs completed")
        return errors

    def model(self, answer):
        return model_of(answer.stats)

    def shortcuts(self, answer):
        return [
            outcome.results for job_id, outcome in answer.outcomes.items()
            if job_id.startswith("shortcut-")
        ]


WORKLOADS = {cls.name: cls for cls in (BfsGrid, MstSimGrid, ServeMixed)}
