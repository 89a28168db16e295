"""One benchmark run of one workload: set-up, measurement, checks, report.

Imported by ``run.py`` once the library sources are on ``sys.path``.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import networkx

from spans import Tracer, capture_outcomes, layer_metrics, self_time_table
from workloads import WORKLOADS, Instance, check_shortcut, shortcut_quality

ROOT = Path(__file__).resolve().parent.parent

# (name, unit, kind). ``host`` metrics are measured on the machine running
# the benchmark; ``model`` metrics are simulated CONGEST costs, exact per
# seed. BENCHMARK.json lists the same names and units.
END_TO_END = (
    ("query_s", "s", "host"),
    ("setup_s", "s", "host"),
    ("peak_rss_mb", "MiB", "host"),
    ("ok_frac", "ratio", "host"),
    ("rounds", "rounds", "model"),
    ("messages", "count", "model"),
    ("message_bits", "bits", "model"),
    ("virtual_time", "ticks", "model"),
)

PER_LAYER = (
    ("congest.run_s", "s", "host"),
    ("congest.runs", "count", "host"),
    ("congest.activations", "count", "host"),
    ("congest.us_per_message", "us", "host"),
    ("congest.us_per_activation", "us", "host"),
    ("util.bitsize.calls", "count", "host"),
    ("util.bitsize.calls_per_message", "ratio", "host"),
    ("util.rng.derive_calls", "count", "host"),
    ("util.rng.derive_s", "s", "host"),
    ("core.providers.build_s", "s", "host"),
    ("core.providers.calls", "count", "host"),
    ("core.providers.iterations", "count", "model"),
    ("core.providers.iteration_s", "s", "host"),
    ("core.providers.rounds", "rounds", "model"),
    ("core.providers.cache_hit_ratio", "ratio", "host"),
    ("core.providers.cache_lookups", "count", "host"),
    ("core.providers.iteration_hit_ratio", "ratio", "host"),
    ("core.providers.iteration_lookups", "count", "host"),
    ("core.providers.max_congestion", "count", "model"),
    ("core.providers.max_dilation", "hops", "model"),
    ("sched.partwise.aggregate_s", "s", "host"),
    ("sched.partwise.plan_s", "s", "host"),
    ("sched.partwise.calls", "count", "host"),
    ("sched.partwise.rounds", "rounds", "model"),
    ("sched.partwise.packets", "count", "model"),
    ("sched.partwise.us_per_packet", "us", "host"),
    ("sched.partwise.max_edge_load", "count", "model"),
    ("sched.partwise.max_tree_depth", "hops", "model"),
    ("congest.jobs.drain_s", "s", "host"),
    ("congest.jobs.us_per_message", "us", "host"),
    ("congest.jobs.arbitration_stalls", "count", "model"),
    ("congest.jobs.stall_ratio", "ratio", "model"),
    ("congest.jobs.admit_wait_ticks", "ticks", "model"),
    ("congest.jobs.job_ticks", "ticks", "model"),
    ("apps.glue_s", "s", "host"),
    ("trace.query_s", "s", "host"),
    ("trace.overhead_frac", "ratio", "host"),
)

# Every instance is queried at least this many times per run, so each
# per-instance median rests on more than one sample.
MIN_PASSES = 2


def read_commit(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(args) -> dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "networkx": networkx.__version__,
        "numpy": numpy_version,
        "commit": read_commit(ROOT),
    }


def pooled_median(samples: dict[int, list[float]]) -> float:
    """Median query time over every instance's samples (0 with no samples).

    Each pass queries every instance once, so the instances are equally
    represented in the pool.
    """
    pooled = [value for values in samples.values() for value in values]
    return statistics.median(pooled) if pooled else 0.0


class Run:
    """Set-up, measurement and checks of one workload run."""

    def __init__(self, args):
        self.args = args
        self.workload = WORKLOADS[args.workload](args.scale)
        self.tracer = Tracer() if args.trace else None
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.instances: list[Instance] = []
        self.setup_times: list[float] = []
        self.untraced: dict[int, list[float]] = {}
        self.traced: dict[int, list[float]] = {}
        self.layers: list[dict] = []
        self.passes = 0

    # -- checks ---------------------------------------------------------

    def _fail(self, instance: Instance, errors: list[str]) -> None:
        self.failed += 1
        self.errors.extend(f"instance {instance.seed}: {error}" for error in errors)

    def _record(self, instance: Instance, answer, outcomes) -> list[tuple]:
        """Check one answer, after the clock stopped.

        Counts the query as failed on a wrong answer, a shortcut outside
        the Theorem 1.2 bounds, or model counters that differ from the
        instance's first query. Returns the measured ``(congestion,
        dilation)`` of each shortcut the query built.
        """
        errors = self.workload.check(instance, answer)
        checked: dict[int, tuple] = {}
        for outcome in [*outcomes, *self.workload.shortcuts(answer)]:
            if id(outcome.shortcut) not in checked:
                checked[id(outcome.shortcut)] = shortcut_quality(outcome)
                errors.extend(check_shortcut(outcome))
        model = self.workload.model(answer)
        if instance.model is None:
            instance.model = model
        elif model != instance.model:
            errors.append(f"model counters changed: {model} != {instance.model}")
        if errors:
            self._fail(instance, errors)
        return list(checked.values())

    # -- phases ---------------------------------------------------------

    def setup(self) -> None:
        """Build every instance and answer one untimed warm-up query on it.

        ``setup_s`` is the median over instances of input generation plus
        the warm-up query. The warm-up collects the MST app's provider
        outcomes so their shortcuts get checked; references and checks run
        after the clock stops.
        """
        for index in range(self.workload.instances):
            instance = Instance(self.args.seed * 1000 + index, {})
            self.instances.append(instance)
            self.untraced[index], self.traced[index] = [], []
            self.attempted += 1
            gc.collect()
            start = time.perf_counter()
            instance.inputs = self.workload.make(instance.seed)
            query = self.workload.prepare(instance.inputs)
            with capture_outcomes() as outcomes:
                try:
                    answer = query()
                except Exception as err:  # noqa: BLE001 - a raising query is a failed one
                    answer = err
            self.setup_times.append(time.perf_counter() - start)
            instance.expected = self.workload.reference(instance.inputs)
            if isinstance(answer, Exception):
                self._fail(instance, [f"raised {type(answer).__name__}: {answer}"])
            else:
                self._record(instance, answer, outcomes)

    def _query(self, index: int, traced: bool) -> None:
        instance = self.instances[index]
        query = self.workload.prepare(instance.inputs)
        self.attempted += 1
        # Every query starts from a collected heap, so the cyclic collector
        # does the same work inside each one instead of whatever the
        # previous query left pending.
        gc.collect()
        tracer = self.tracer
        try:
            if traced:
                first_span, first_outcome = len(tracer.spans), len(tracer.outcomes)
                with tracer.installed():
                    answer, seconds = tracer.query(self.attempted, query)
            else:
                start = time.perf_counter()
                answer = query()
                seconds = time.perf_counter() - start
        except Exception as err:  # noqa: BLE001 - a raising query is a failed one
            self._fail(instance, [f"raised {type(err).__name__}: {err}"])
            return
        if not traced:
            self._record(instance, answer, ())
            self.untraced[index].append(seconds)
            return
        quality = self._record(instance, answer, tracer.outcomes[first_outcome:])
        self.traced[index].append(seconds)
        self.layers.append(layer_metrics(tracer.spans[first_span:], instance.model, quality))

    def measure(self) -> None:
        """Passes over all instances until another would overrun ``--seconds``.

        With tracing, every pass gives each instance an untraced query and
        then a traced one.
        """
        start = time.perf_counter()
        while True:
            pass_start = time.perf_counter()
            for index in range(len(self.instances)):
                self._query(index, traced=False)
                if self.tracer is not None:
                    self._query(index, traced=True)
            self.passes += 1
            now = time.perf_counter()
            if self.passes >= MIN_PASSES and 2 * now - start - pass_start > self.args.seconds:
                break

    # -- results --------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        query_s = pooled_median(self.untraced)
        if not self.args.trace:
            values = {
                "query_s": query_s,
                "setup_s": statistics.median(self.setup_times),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "ok_frac": 1 - self.failed / self.attempted,
            }
            for key in ("rounds", "messages", "message_bits", "virtual_time"):
                values[key] = statistics.fmean(
                    instance.model[key] if instance.model else 0 for instance in self.instances
                )
            return values
        values = {
            name: statistics.median(layer[name] for layer in self.layers) if self.layers else 0.0
            for name, _, _ in PER_LAYER
            if not name.startswith("trace.")
        }
        traced_s = pooled_median(self.traced)
        values["trace.query_s"] = traced_s
        values["trace.overhead_frac"] = traced_s / query_s - 1 if query_s else 0.0
        return values


def run_one(args) -> int:
    """Run one workload, print its report, write its files; 0 when correct."""
    run = Run(args)
    run.setup()
    run.measure()
    values = run.metrics()
    table = PER_LAYER if args.trace else END_TO_END
    header = provenance(args)
    header["passes"] = run.passes
    header["samples"] = sum(len(v) for v in (run.traced if args.trace else run.untraced).values())
    print("# " + json.dumps(header, sort_keys=True))
    for name, unit, kind in table:
        print(f"{name:<36} {values[name]:>16.6g} {unit:<7} {kind}")
    args.out.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if run.tracer is not None:
        lines, self_sum, total = self_time_table(run.tracer)
        print("\n".join(lines))
        print(f"self times sum to {self_sum:.6f} s of {total:.6f} s traced query time")
        if abs(self_sum - total) > 1e-6 * max(total, 1.0):
            run.failed += 1
            run.errors.append("per-layer self times do not sum to the traced query time")
        run.tracer.write(args.out / f"{stem}.spans.jsonl", header)
    for error in run.errors[:20]:
        print(f"error: {error}", file=sys.stderr)
    (args.out / f"{stem}.json").write_text(json.dumps({
        "provenance": header,
        "metrics": {
            name: {"value": values[name], "unit": unit, "kind": kind}
            for name, unit, kind in table
        },
        "query_samples": run.untraced,
        "traced_samples": run.traced,
        "setup_samples": run.setup_times,
        "errors": run.errors,
    }, indent=1))
    correct = run.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit, _ in table},
    }))
    return 0 if correct else 1
