"""Layer spans for the traced run, recorded from outside the library.

:class:`Tracer` rebinds the public entry point of each layer, inside this
process only, for the duration of a ``with tracer.installed():`` block:

* ``congest.run`` — ``SyncNetwork.run`` (the CONGEST engine);
* ``core.providers.build`` — ``build_shortcut`` where the apps and the job
  server import it;
* ``core.providers.iteration`` — one Observation 2.7 iteration:
  ``build_partial_shortcut`` (centralized) or
  ``distributed_partial_shortcut`` (simulated);
* ``sched.partwise.aggregate`` / ``sched.partwise.plan`` —
  ``partwise_aggregate`` and ``plan_routing_trees``;
* ``congest.jobs.drain`` — ``JobServer.drain``.

``payload_bits`` (where the engine, the packet scheduler and the
distributed construction import it) and ``derive_node_rng`` (where the
engine backends import it) are wrapped as counters, not spans: they run
~10^5 times a query, so they add a count (and, for the RNG, a time)
instead of a record.

A span is ``(id, parent, name, start, end, query)`` plus layer counters.
Spans live in memory until :meth:`Tracer.write` puts them in a JSON-lines
file. Nothing is installed outside the ``with`` block, so untraced queries
run the library exactly as shipped.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager

import repro.apps.mst
import repro.congest.engine
import repro.congest.jobs
import repro.core.distributed
import repro.core.full
import repro.core.providers
import repro.sched.partwise
import repro.serve
from repro.congest.network import SyncNetwork
from repro.core.providers import shortcut_cache_info
from repro.serve import JobServer

ROOT_SPAN = "query"


class Tracer:
    """In-memory span recorder plus the per-call counters."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._query: int | None = None
        self._undo: list[tuple[object, str, object]] = []
        self.outcomes: list = []
        self.bit_calls = 0
        self.rng_calls = 0
        self.rng_s = 0.0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def call(self, name: str, fn, args: tuple, kwargs: dict, describe=None):
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``."""
        span = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "query": self._query,
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        span["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()
        if describe is not None:
            span.update(describe(result))
        return result

    def query(self, query_id: int, fn):
        """Run one whole query under a root span; returns ``(answer, seconds)``."""
        self._query = query_id
        counters = (self.bit_calls, self.rng_calls, self.rng_s)
        root = len(self.spans)
        try:
            answer = self.call(ROOT_SPAN, fn, (), {})
        finally:
            self._query = None
        root = self.spans[root]
        root["bit_calls"] = self.bit_calls - counters[0]
        root["rng_calls"] = self.rng_calls - counters[1]
        root["rng_s"] = self.rng_s - counters[2]
        return answer, root["end"] - root["start"]

    # ------------------------------------------------------------------
    # Installing the wrappers
    # ------------------------------------------------------------------

    def _rebind(self, owner, name: str, make_wrapper) -> None:
        original = getattr(owner, name)
        self._undo.append((owner, name, original))
        setattr(owner, name, make_wrapper(original))

    def _spanned(self, name: str, describe=None):
        def make(original):
            def wrapper(*args, **kwargs):
                return self.call(name, original, args, kwargs, describe)

            return wrapper

        return make

    def _counting_bits(self, original):
        def payload_bits(payload):
            self.bit_calls += 1
            return original(payload)

        return payload_bits

    def _timed_rng(self, original):
        clock = time.perf_counter

        def derive_node_rng(run_seed, node_index):
            start = clock()
            rng = original(run_seed, node_index)
            self.rng_s += clock() - start
            self.rng_calls += 1
            return rng

        return derive_node_rng

    def _describe_outcome(self, outcome) -> dict:
        self.outcomes.append(outcome)
        return {
            "provider": outcome.provenance.provider,
            "iterations": outcome.provenance.iterations,
            "rounds": outcome.stats.rounds,
            "cache_hit": outcome.provenance.cache_hit,
        }

    @contextmanager
    def installed(self):
        """Rebind every layer entry point; restore them all on exit."""
        run = self._spanned("congest.run", lambda r: {
            "messages": r[1].messages, "activations": r[1].activations,
        })
        build = self._spanned("core.providers.build", self._describe_outcome)
        iteration = self._spanned("core.providers.iteration")
        aggregate = self._spanned("sched.partwise.aggregate", lambda r: {
            "rounds": r.stats.rounds, "packets": r.stats.messages,
            "max_edge_load": r.max_edge_load, "max_tree_depth": r.max_tree_depth,
        })
        # Tick medians cover the population jobs (per-node result dicts);
        # call jobs run atomically and take zero ticks by construction.
        drain = self._spanned("congest.jobs.drain", lambda r: {
            "messages": r.stats.messages,
            "arbitration_stalls": r.stats.arbitration_stalls,
            "admitted": [
                o.admitted_tick for o in r.outcomes.values() if isinstance(o.results, dict)
            ],
            "ticks": [
                o.completed_tick - o.admitted_tick
                for o in r.outcomes.values() if isinstance(o.results, dict)
            ],
        })
        try:
            self._rebind(SyncNetwork, "run", run)
            self._rebind(JobServer, "drain", drain)
            for module in (repro.core.providers, repro.apps.mst, repro.serve):
                self._rebind(module, "build_shortcut", build)
            self._rebind(repro.core.full, "build_partial_shortcut", iteration)
            self._rebind(repro.core.distributed, "distributed_partial_shortcut", iteration)
            for module in (repro.sched.partwise, repro.apps.mst):
                self._rebind(module, "partwise_aggregate", aggregate)
            self._rebind(
                repro.sched.partwise, "plan_routing_trees", self._spanned("sched.partwise.plan")
            )
            for module in (repro.congest.engine, repro.sched.partwise, repro.core.distributed):
                self._rebind(module, "payload_bits", self._counting_bits)
            for module in (repro.congest.engine, repro.congest.jobs):
                self._rebind(module, "derive_node_rng", self._timed_rng)
            yield self
        finally:
            while self._undo:
                owner, name, original = self._undo.pop()
                setattr(owner, name, original)

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------

    def write(self, path, header: dict) -> None:
        """JSON lines: one ``run`` header, then one line per span."""
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps({"type": "run", **header}) + "\n")
            for span in self.spans:
                out.write(json.dumps({"type": "span", **span}) + "\n")


@contextmanager
def capture_outcomes():
    """Collect the provider outcomes the MST app builds, for the oracle.

    The one rebinding an untraced run makes, and only around its untimed
    warm-up queries: the MST app keeps its shortcuts internal.
    """
    outcomes: list = []
    original = repro.apps.mst.build_shortcut

    def build_shortcut(request):
        outcome = original(request)
        outcomes.append(outcome)
        return outcome

    repro.apps.mst.build_shortcut = build_shortcut
    try:
        yield outcomes
    finally:
        repro.apps.mst.build_shortcut = original


def self_times(spans: list[dict]) -> dict[str, float]:
    """Per span name, duration minus the time its child spans cover.

    Spans nest strictly (one thread, entered and left in call order), so a
    span's children never overlap and self times over a query's spans sum
    to the root span's duration.
    """
    child_time: dict[int, float] = {}
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] = (
                child_time.get(span["parent"], 0.0) + span["end"] - span["start"]
            )
    totals: dict[str, float] = {}
    for span in spans:
        own = span["end"] - span["start"] - child_time.get(span["id"], 0.0)
        totals[span["name"]] = totals.get(span["name"], 0.0) + own
    return totals


def layer_metrics(spans: list[dict], model: dict, quality: list[tuple]) -> dict[str, float]:
    """Per-layer metrics of one traced query from its spans and counters.

    Times are inclusive span durations summed over the query, except
    ``congest.jobs.us_per_message`` (the drain's self time, so shortcut
    builds run by call jobs are not charged to the fabric) and
    ``apps.glue_s`` (the query's self time: whatever ran outside every
    wrapped layer). Cache counters are read after the query; the run
    clears the cache before every query.
    """

    def named(name):
        return [span for span in spans if span["name"] == name]

    def seconds(group):
        return sum(span["end"] - span["start"] for span in group)

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    root = named(ROOT_SPAN)[0]
    runs = named("congest.run")
    builds = named("core.providers.build")
    iterations = named("core.providers.iteration")
    aggregates = named("sched.partwise.aggregate")
    plans = named("sched.partwise.plan")
    drains = named("congest.jobs.drain")
    own = self_times(spans)

    run_s = seconds(runs)
    run_messages = sum(span["messages"] for span in runs)
    activations = sum(span["activations"] for span in runs)
    packets = sum(span["packets"] for span in aggregates)
    drain_messages = sum(span["messages"] for span in drains)
    stalls = sum(span["arbitration_stalls"] for span in drains)
    admitted = [tick for span in drains for tick in span["admitted"]]
    ticks = [tick for span in drains for tick in span["ticks"]]
    cache = shortcut_cache_info()
    per_provider = cache["providers"].values()
    iteration_hits = sum(counts["iteration_hits"] for counts in per_provider)
    iteration_lookups = iteration_hits + sum(
        counts["iteration_misses"] for counts in per_provider
    )
    lookups = cache["hits"] + cache["misses"]
    return {
        "congest.run_s": run_s,
        "congest.runs": len(runs),
        "congest.activations": activations,
        "congest.us_per_message": 1e6 * ratio(run_s, run_messages),
        "congest.us_per_activation": 1e6 * ratio(run_s, activations),
        "util.bitsize.calls": root["bit_calls"],
        "util.bitsize.calls_per_message": ratio(root["bit_calls"], model["messages"]),
        "util.rng.derive_calls": root["rng_calls"],
        "util.rng.derive_s": root["rng_s"],
        "core.providers.build_s": seconds(builds),
        "core.providers.calls": len(builds),
        "core.providers.iterations": sum(span["iterations"] for span in builds),
        "core.providers.iteration_s": ratio(seconds(iterations), len(iterations)),
        "core.providers.rounds": sum(span["rounds"] for span in builds),
        "core.providers.cache_hit_ratio": ratio(cache["hits"], lookups),
        "core.providers.cache_lookups": lookups,
        "core.providers.iteration_hit_ratio": ratio(iteration_hits, iteration_lookups),
        "core.providers.iteration_lookups": iteration_lookups,
        "core.providers.max_congestion": max((q[0] for q in quality), default=0),
        "core.providers.max_dilation": max((q[1] for q in quality), default=0),
        "sched.partwise.aggregate_s": seconds(aggregates),
        "sched.partwise.plan_s": seconds(plans),
        "sched.partwise.calls": len(aggregates),
        "sched.partwise.rounds": sum(span["rounds"] for span in aggregates),
        "sched.partwise.packets": packets,
        "sched.partwise.us_per_packet": 1e6 * ratio(
            seconds(aggregates) - seconds(plans), packets
        ),
        "sched.partwise.max_edge_load": max(
            (span["max_edge_load"] for span in aggregates), default=0
        ),
        "sched.partwise.max_tree_depth": max(
            (span["max_tree_depth"] for span in aggregates), default=0
        ),
        "congest.jobs.drain_s": seconds(drains),
        "congest.jobs.us_per_message": 1e6 * ratio(
            own.get("congest.jobs.drain", 0.0), drain_messages
        ),
        "congest.jobs.arbitration_stalls": stalls,
        "congest.jobs.stall_ratio": ratio(stalls, drain_messages),
        "congest.jobs.admit_wait_ticks": statistics.median(admitted) if admitted else 0,
        "congest.jobs.job_ticks": statistics.median(ticks) if ticks else 0,
        "apps.glue_s": own[ROOT_SPAN],
    }


def self_time_table(tracer) -> tuple[list[str], float, float]:
    """Per-layer self time per traced query, and the two totals it must match."""
    own = self_times(tracer.spans)
    roots = [span for span in tracer.spans if span["name"] == ROOT_SPAN]
    total = sum(span["end"] - span["start"] for span in roots)
    lines = [f"{'layer (self time)':<28} {'s/query':>10} {'share':>7}"]
    for name, value in sorted(own.items(), key=lambda item: -item[1]):
        lines.append(f"{name:<28} {value / len(roots):>10.4f} {value / total:>7.1%}")
    return lines, sum(own.values()), total
