"""Whole-query benchmark: graph in, shortcut built, answer out.

Usage (from the repository root)::

    python3 perfbench/run.py --workload bfs-grid --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

One run generates its inputs from ``--seed`` (set-up), answers queries for
about ``--seconds`` seconds, checks every answer against networkx and the
Theorem 1.2 bounds, and prints a metric table followed, as the last line,
by one JSON object ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics: host metrics (wall time,
memory) and model metrics (CONGEST rounds, messages, bits, virtual time),
never mixed. ``--trace 1`` alternates untraced queries with traced ones
(see ``spans.py``), reports the per-layer split, prints a per-layer
self-time table and writes the spans as JSON lines under ``--out``.

Workloads are described in ``workloads.py``; ``--workload all`` runs each
in its own process, one after another. The library is imported from the
``src`` directory next to this one; without it the run exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

WORKLOAD_NAMES = ("bfs-grid", "mst-sim-grid", "serve-mixed")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", choices=("full", "tiny"), default="full",
        help="instance sizes: full (the benchmark) or tiny (smoke tests)",
    )
    parser.add_argument(
        "--out", type=Path, default=HERE / "out",
        help="directory for the result file and the trace spans",
    )
    return parser.parse_args(argv)


def run_all(args) -> int:
    """Every workload in its own process, so memory and caches stay apart."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--scale", args.scale, "--out", str(args.out),
        ]
        print(f"## {name}", flush=True)
        done = subprocess.run(command, capture_output=True, text=True, check=False)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        status = status or done.returncode
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            combined["correct"] = False
            status = status or 1
            continue
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: library sources not found at {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    from bench import run_one

    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
