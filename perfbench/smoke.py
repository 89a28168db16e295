"""Smoke tests of the benchmark at tiny instance sizes.

Run from the repository root with::

    python3 -m pytest perfbench/smoke.py -q

Each workload runs once untraced and once traced, as a subprocess exactly
as the benchmark command line is given in ``BENCHMARK.json``. The tests pin
the output contract (every declared metric, with its unit and host/model
kind), the layer counts the workloads are built to isolate, the self-time
identity of the traced split, and the refusal to run without the library.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from bench import END_TO_END, PER_LAYER, Run  # noqa: E402
from run import WORKLOAD_NAMES, parse_args  # noqa: E402
from spans import ROOT_SPAN, self_times  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Layers a workload never enters, by construction of the workload.
PREDICTED_ZEROS = {
    "bfs-grid": ("sched.partwise.calls", "core.providers.calls", "congest.jobs.drain_s"),
    "mst-sim-grid": ("congest.jobs.drain_s",),
    "serve-mixed": ("congest.runs", "sched.partwise.calls"),
}

# Layers a workload is built to exercise.
PREDICTED_NONZERO = {
    "bfs-grid": ("congest.runs", "util.bitsize.calls", "util.rng.derive_calls"),
    "mst-sim-grid": ("congest.runs", "core.providers.calls", "sched.partwise.calls"),
    "serve-mixed": (
        "congest.jobs.drain_s", "congest.jobs.arbitration_stalls",
        "core.providers.cache_hit_ratio",
    ),
}


def _run(workload: str, trace: int, out: Path, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    command = [
        sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "3",
        "--seconds", "0.2", "--trace", str(trace), "--scale", "tiny", "--out", str(out),
    ]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    """``(workload, trace) -> (final JSON line, result file)`` for every pair."""
    out = tmp_path_factory.mktemp("perfbench")
    collected = {}
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            done = _run(workload, trace, out)
            assert done.returncode == 0, done.stderr
            final = json.loads(done.stdout.strip().splitlines()[-1])
            stored = json.loads((out / f"{workload}-seed3-trace{trace}.json").read_text())
            collected[workload, trace] = (final, stored, out)
    return collected


def test_spec_names_the_runner_workloads_and_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == [
        (name, unit) for name, unit, _ in END_TO_END
    ]
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == [
        (name, unit) for name, unit, _ in PER_LAYER
    ]
    assert max(m["bound"] for m in SPEC["end_to_end"]) == next(
        m["bound"] for m in SPEC["end_to_end"] if m["name"] == "setup_s"
    )


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_declared_metric_is_emitted_with_unit_and_kind(results, workload, trace):
    final, stored, _ = results[workload, trace]
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] and final["failed"] == 0 and final["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    kinds = dict((name, kind) for name, _, kind in (*END_TO_END, *PER_LAYER))
    assert list(final["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        name = metric["name"]
        assert final["metrics"][name]["unit"] == metric["unit"]
        assert stored["metrics"][name]["kind"] == kinds[name] in ("host", "model")
        assert isinstance(final["metrics"][name]["value"], (int, float))
    for key in ("seed", "nproc", "python", "networkx", "numpy", "commit"):
        assert key in stored["provenance"]


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_end_to_end_metrics_are_never_zero(results, workload):
    final, _, _ = results[workload, 0]
    assert all(m["value"] > 0 for m in final["metrics"].values()), final["metrics"]


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_predicted_layer_counts(results, workload):
    metrics = results[workload, 1][0]["metrics"]
    for name in PREDICTED_ZEROS[workload]:
        assert metrics[name]["value"] == 0, name
    for name in PREDICTED_NONZERO[workload]:
        assert metrics[name]["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_self_times_sum_to_traced_query_time(results, workload):
    _, _, out = results[workload, 1]
    lines = (out / f"{workload}-seed3-trace1.spans.jsonl").read_text().splitlines()
    header = json.loads(lines[0])
    assert header["type"] == "run" and header["seed"] == 3
    spans = [json.loads(line) for line in lines[1:]]
    roots = [span for span in spans if span["name"] == ROOT_SPAN]
    assert roots and all(span["parent"] is None for span in roots)
    total = sum(span["end"] - span["start"] for span in roots)
    assert sum(self_times(spans).values()) == pytest.approx(total, rel=1e-9)


def test_model_mismatch_fails_the_query(tmp_path):
    args = parse_args([
        "--workload", "bfs-grid", "--seed", "3", "--seconds", "0", "--scale", "tiny",
        "--out", str(tmp_path),
    ])
    run = Run(args)
    run.setup()
    assert run.failed == 0
    run.instances[0].model["rounds"] += 1
    run._query(0, traced=False)
    assert run.failed == 1 and "model counters changed" in run.errors[0]


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run("bfs-grid", 0, tmp_path / "out", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
