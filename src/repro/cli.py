"""Command-line interface: ``python -m repro <command> ...``.

Seven commands cover the common workflows without writing any code:

* ``quality`` — generate a graph family, obtain a shortcut from any
  registered :mod:`repro.core.providers` provider (``--provider``), print
  the measured quality — and, for the theorem constructions, verify it
  against the Theorem 1.2 bounds;
* ``lowerbound`` — build and verify a Lemma 3.2 instance and report the
  measured quality of our shortcut on its hard parts;
* ``mst`` — run the distributed MST on a family, the selected provider vs
  the baseline arm, with measured rounds;
* ``certify`` — run the certifying provider and print the attempt ledger
  plus the dense-minor witness, if any;
* ``serve`` — the multi-tenant job service demo: N scoped SSSP jobs (one
  per Voronoi region) multiplexed over one fabric with fair bandwidth
  arbitration and per-job stats;
* ``registry`` — every registered extension point in one listing:
  schedulers, latency models, shortcut providers, lint rules;
* ``lint`` — the CONGEST determinism/protocol static analyzer
  (:mod:`repro.analysis`): nonzero exit on any finding, ``--format
  github`` for CI annotations, ``--select`` for a rule subset, and
  ``--project`` for the whole-program pass (inter-procedural DET-* taint
  plus PROTO-MSG / KERNEL-EQ schema checks).

``quality``, ``mst``, and ``certify`` share the unified ``--provider``
flag.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Callable

import networkx as nx

__all__ = ["main", "build_family"]


def build_family(args: argparse.Namespace) -> nx.Graph:
    """Instantiate the graph family selected by ``--family``."""
    from repro.graphs.generators import (
        delaunay_graph,
        expanded_clique,
        fat_tree,
        grid_graph,
        k_tree,
        leaf_spine,
        torus_grid,
        wheel_graph,
    )
    from repro.graphs.generators.geometric import hypercube_graph

    builders: dict[str, Callable[[], nx.Graph]] = {
        "grid": lambda: grid_graph(args.width, args.height),
        "delaunay": lambda: delaunay_graph(args.n, rng=args.seed),
        "ktree": lambda: k_tree(args.n, args.k, rng=args.seed, locality=args.locality),
        "expanded-clique": lambda: expanded_clique(args.r, args.segment),
        "wheel": lambda: wheel_graph(args.n),
        "torus": lambda: torus_grid(args.width, args.height),
        "hypercube": lambda: hypercube_graph(args.dimension),
        "fat-tree": lambda: fat_tree(
            args.k_ary, oversubscription=args.oversubscription
        ),
        "leaf-spine": lambda: leaf_spine(
            args.leaves, args.spines, args.hosts_per_leaf,
            oversubscription=args.oversubscription,
        ),
    }
    if args.family not in builders:
        raise SystemExit(f"unknown family {args.family!r}; choose from {sorted(builders)}")
    return builders[args.family]()


def _add_family_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--family", default="grid", help="graph family (default grid)")
    parser.add_argument("--n", type=int, default=256, help="node count (delaunay/ktree/wheel)")
    parser.add_argument("--width", type=int, default=16)
    parser.add_argument("--height", type=int, default=16)
    parser.add_argument("--k", type=int, default=3, help="treewidth for ktree")
    parser.add_argument("--locality", type=float, default=0.5, help="ktree diameter knob")
    parser.add_argument("--r", type=int, default=8, help="clique size for expanded-clique")
    parser.add_argument("--segment", type=int, default=12, help="path length for expanded-clique")
    parser.add_argument("--dimension", type=int, default=6, help="hypercube dimension")
    parser.add_argument(
        "--k-ary", type=int, default=4, dest="k_ary",
        help="fat-tree arity (k pods; even, default 4)",
    )
    parser.add_argument("--leaves", type=int, default=4, help="leaf-spine leaf count")
    parser.add_argument("--spines", type=int, default=2, help="leaf-spine spine count")
    parser.add_argument(
        "--hosts-per-leaf", type=int, default=4, dest="hosts_per_leaf",
        help="leaf-spine hosts per leaf switch",
    )
    parser.add_argument(
        "--oversubscription", type=int, default=1,
        help="datacenter core thinning factor: keep one in this many "
             "core/spine switches (default 1 = fully provisioned)",
    )
    parser.add_argument("--seed", type=int, default=0)


def _add_provider_argument(
    parser: argparse.ArgumentParser, default: str = "theorem31-centralized"
) -> None:
    from repro.core.providers import available_providers

    parser.add_argument(
        "--provider", default=default, choices=sorted(available_providers()),
        help=f"shortcut provider from the registry (default {default})",
    )


def _num_parts(args: argparse.Namespace, graph: nx.Graph) -> int:
    """``--parts``, defaulting to one Voronoi cell per 16 nodes (at least 2)."""
    if args.parts is None:
        return max(2, graph.number_of_nodes() // 16)
    if args.parts < 1:
        raise SystemExit(f"--parts must be >= 1, got {args.parts}")
    return args.parts


def _cmd_quality(args: argparse.Namespace) -> int:
    from repro.core.providers import ShortcutRequest, build_shortcut
    from repro.core.verify import verify_full_result
    from repro.graphs.minors import analytic_delta_upper
    from repro.graphs.partition import voronoi_partition
    from repro.graphs.trees import bfs_tree

    graph = build_family(args)
    tree = bfs_tree(graph)
    num_parts = _num_parts(args, graph)
    partition = voronoi_partition(graph, num_parts, rng=args.seed)
    delta = args.delta if args.delta is not None else analytic_delta_upper(graph)
    print(f"graph: {args.family}, n={graph.number_of_nodes()}, "
          f"m={graph.number_of_edges()}, BFS depth={tree.max_depth}")
    print(f"parts: {num_parts} Voronoi cells; delta = {delta}; provider = {args.provider}")
    if delta is None and args.provider.startswith("theorem31"):
        # No analytic bound: start the Observation 2.7 escalation at δ = 1
        # (the adaptive doubling construction).
        print("no analytic delta; running the adaptive (doubling) construction")
        delta = 1.0
    outcome = build_shortcut(
        ShortcutRequest(
            graph=graph, partition=partition, tree=tree, provider=args.provider,
            delta=delta, rng=args.seed,
        )
    )
    quality = outcome.quality(exact=not args.fast)
    prov = outcome.provenance
    print(f"iterations: {prov.iterations}, delta used: {prov.delta_used}")
    print(f"congestion={quality.congestion} dilation={quality.dilation:.0f} "
          f"blocks={quality.block_number} quality={quality.quality:.0f}")
    full_result = prov.details.get("full_result")
    if full_result is None:
        # Non-theorem providers (baseline/greedy/none) and the simulated
        # pipeline have no Theorem 1.2 contract to verify; report only.
        return 0
    report = verify_full_result(
        full_result, delta=prov.delta_used, exact_dilation=not args.fast
    )
    print(report.summary())
    return 0 if report.all_hold else 1


def _cmd_lowerbound(args: argparse.Namespace) -> int:
    from repro.core.full import build_full_shortcut
    from repro.graphs.generators import lower_bound_graph
    from repro.graphs.trees import bfs_tree

    instance = lower_bound_graph(args.delta_prime, args.diameter_prime)
    print(f"instance: n={instance.graph.number_of_nodes()}, "
          f"delta={instance.delta}, k={instance.k}, D={instance.depth}")
    for key, value in instance.verify(exact_diameter=not args.fast).items():
        print(f"  {key}: {value}")
    tree = bfs_tree(instance.graph)
    result = build_full_shortcut(
        instance.graph, tree, instance.partition,
        delta=args.delta_prime, escalate_on_stall=True,
    )
    quality = result.shortcut.quality(exact=False)
    print(f"measured quality {quality.quality:.1f} "
          f">= lower bound {instance.quality_lower_bound:.1f} "
          f"(paper form {instance.paper_form_bound:.1f})")
    return 0 if quality.quality >= instance.quality_lower_bound else 1


def _add_scheduler_arguments(parser: argparse.ArgumentParser) -> None:
    from repro.congest.asynchronous import available_latency_models
    from repro.congest.engine import available_schedulers

    parser.add_argument(
        "--scheduler", default="event",
        help="simulator scheduler backend: " + ", ".join(available_schedulers()),
    )
    parser.add_argument(
        "--latency-model", default=None, dest="latency_model",
        help="per-edge latency model: "
        + ", ".join(available_latency_models())
        + " (default: uniform = lockstep-equivalent; parameterized specs: "
        "contention:<weight>)",
    )


def _validated_scheduler(args: argparse.Namespace) -> tuple[str, str | None]:
    """Fail fast on a bad --scheduler/--latency-model combination."""
    from repro.congest.network import validate_scheduler

    validate_scheduler(args.scheduler, SystemExit, latency_model=args.latency_model)
    return args.scheduler, args.latency_model


def _cmd_mst(args: argparse.Namespace) -> int:
    from repro.apps.mst import assign_random_weights, distributed_mst

    scheduler, latency_model = _validated_scheduler(args)
    graph = build_family(args)
    weights = assign_random_weights(graph, rng=args.seed)
    print(f"graph: {args.family}, n={graph.number_of_nodes()}, m={graph.number_of_edges()}")
    print(f"provider: {args.provider}, scheduler: {scheduler}"
          + (f", latency model: {latency_model}" if latency_model else ""))
    ours = distributed_mst(
        graph, weights, provider=args.provider, rng=args.seed, scheduler=scheduler,
        latency_model=latency_model,
    )
    base = distributed_mst(
        graph, weights, provider="baseline", rng=args.seed, scheduler=scheduler,
        latency_model=latency_model,
    )
    agree = ours.edges == base.edges

    def _cost(result) -> str:
        line = f"{result.stats.rounds} rounds, {result.phases} phases"
        if result.stats.virtual_time:
            line += f", virtual time {result.stats.virtual_time}"
        return line

    print(f"{args.provider}: {_cost(ours)}")
    print(f"baseline : {_cost(base)}")
    print(f"identical MSTs: {agree}, weight {ours.weight}")
    return 0 if agree else 1


def _cmd_certify(args: argparse.Namespace) -> int:
    from repro.core.distributed import distributed_partial_shortcut
    from repro.core.providers import ShortcutRequest, build_shortcut, get_provider
    from repro.graphs.partition import voronoi_partition
    from repro.graphs.trees import bfs_tree
    from repro.util.errors import ShortcutError

    scheduler, latency_model = _validated_scheduler(args)
    graph = build_family(args)
    tree = bfs_tree(graph)
    num_parts = _num_parts(args, graph)
    partition = voronoi_partition(graph, num_parts, rng=args.seed)
    # A given --initial-delta always reaches the provider, which rejects it
    # if it does not read it; unset, it starts at 0.25 where it is read.
    initial_delta = args.initial_delta
    if initial_delta is None and "initial_delta" in get_provider(args.provider).option_keys:
        initial_delta = 0.25
    options = {} if initial_delta is None else {"initial_delta": initial_delta}
    try:
        outcome = build_shortcut(
            ShortcutRequest(
                graph=graph, partition=partition, tree=tree, provider=args.provider,
                rng=args.seed, options=options,
            )
        )
    except ShortcutError as error:
        raise SystemExit(str(error)) from None
    prov = outcome.provenance
    attempts = prov.details.get("attempts")
    if attempts is None:
        # A non-certifying provider produces no attempt ledger or witness;
        # report its provenance honestly instead of pretending it certified.
        print(f"provider {prov.provider!r}: no certification ledger "
              f"(iterations: {prov.iterations}, delta used: {prov.delta_used})")
    else:
        for index, (delta, succeeded) in enumerate(attempts):
            verdict = "case I" if succeeded else "case II"
            print(f"attempt {index}: delta={delta:.3f} -> {verdict}")
        witness = prov.details.get("witness")
        if witness is not None:
            witness.validate(graph)
            print(f"witness: {witness.num_nodes} nodes, "
                  f"{witness.num_edges} edges, "
                  f"density {witness.density:.3f} (validated)")
        else:
            print("no witness needed (first attempt succeeded)")
    # Cross-check the construction's delta end to end in the simulator: the
    # measured Theorem 1.5 pipeline must also reach case I at that delta.
    # Delta-free providers (baseline/none) are checked at the shared
    # auto-resolved delta for the graph.
    final_delta = prov.delta_used
    if final_delta is None:
        from repro.core.providers import resolve_delta

        final_delta = resolve_delta(graph)
    check = distributed_partial_shortcut(
        graph, partition, final_delta, rng=args.seed,
        scheduler=scheduler, latency_model=latency_model,
    )
    virtual = (
        f", virtual time {check.stats.virtual_time}"
        if check.stats.virtual_time else ""
    )
    print(f"distributed check ({scheduler}): delta={final_delta:.3f}, "
          f"{check.stats.rounds} rounds{virtual}, "
          f"congestion {check.stats.max_congestion}, "
          f"satisfied {len(check.satisfied)}/{len(partition)}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.apps.sssp import sssp_job
    from repro.graphs.partition import voronoi_partition
    from repro.serve import JobServer

    _validated_scheduler(args)
    if args.scheduler != "event":
        raise SystemExit(
            f"repro serve multiplexes jobs on the virtual-time backend (event); "
            f"got --scheduler {args.scheduler!r}"
        )
    num_jobs = args.jobs
    if num_jobs < 1:
        raise SystemExit(f"--jobs must be >= 1, got {num_jobs}")
    if args.max_inflight is not None and args.max_inflight < 1:
        raise SystemExit(f"--max-inflight must be >= 1, got {args.max_inflight}")
    graph = build_family(args)
    # One tenant per Voronoi region: disjoint connected populations share
    # the fabric without contending for edges — the paper's multi-tenant
    # narrative in one command.
    regions = voronoi_partition(graph, num_jobs, rng=args.seed)
    server = JobServer(
        graph,
        scheduler=args.scheduler,
        latency_model=args.latency_model,
        max_inflight=args.max_inflight,
    )
    for index, region in enumerate(regions):
        server.submit(
            sssp_job(
                graph, min(region), nodes=region, rng=args.seed + index,
                job_id=f"sssp-region-{index}",
            )
        )
    print(f"graph: {args.family}, n={graph.number_of_nodes()}, "
          f"m={graph.number_of_edges()}; {num_jobs} scoped SSSP job(s), "
          f"scheduler {args.scheduler}"
          + (f", latency model {args.latency_model}" if args.latency_model else "")
          + (f", max inflight {args.max_inflight}" if args.max_inflight else ""))
    result = server.drain(
        on_complete=lambda outcome: print(
            f"  {outcome.job_id}: {outcome.status} at tick "
            f"{outcome.completed_tick} ({outcome.stats.summary()})"
        )
    )
    print(f"aggregate: {result.stats.summary()}")
    return 0


def _cmd_registry(args: argparse.Namespace) -> int:
    from repro.analysis import rule_table
    from repro.congest.asynchronous import LATENCY_MODELS, available_latency_models
    from repro.congest.engine import available_schedulers
    from repro.core.providers import available_providers
    from repro.graphs.generators import available_datacenter_topologies

    print("schedulers:")
    for name in available_schedulers():
        print(f"  {name}")
    print("latency models:")
    for name in available_latency_models():
        kind = "load-dependent" if LATENCY_MODELS[name].is_dynamic else "static"
        print(f"  {name:20s} [{kind}]")
    print("datacenter topologies:")
    for name in available_datacenter_topologies():
        print(f"  {name}")
    print("shortcut providers:")
    for name in available_providers():
        print(f"  {name}")
    print("lint rules:")
    for name, scope, summary in rule_table():
        print(f"  {name:12s} [{scope}]")
        print(f"  {'':12s} {summary}")
    return 0


def _lint_formats() -> tuple[str, ...]:
    from repro.analysis.report import FORMATS

    return FORMATS


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis import (
        analyze_paths,
        analyze_project,
        format_findings,
        rule_table,
    )

    if args.list_rules:
        for name, scope, summary in rule_table():
            print(f"{name:12s} [{scope}] {summary}")
        return 0
    select = None
    if args.select:
        select = tuple(
            name.strip() for name in args.select.split(",") if name.strip()
        )
        if not select:
            print("repro lint: --select names no rules", file=sys.stderr)
            return 2
    try:
        analyze = analyze_project if args.project else analyze_paths
        findings, file_count = analyze(args.paths, select=select)
    except (ValueError, FileNotFoundError) as exc:
        # Unknown rule names and missing paths are usage errors, reported
        # with the registry/path in the message (the compare_bench.py
        # graceful-failure convention): exit 2, distinct from findings.
        print(f"repro lint: {exc}", file=sys.stderr)
        return 2

    machine = args.format == "json"
    if findings:
        print(format_findings(findings, args.format))
        if not machine:
            print(
                f"repro lint: {len(findings)} finding(s) in "
                f"{file_count} file(s) scanned"
            )
        return 1
    if machine:
        print(format_findings([], args.format))
    else:
        print(f"repro lint: clean ({file_count} file(s) scanned)")
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Low-congestion shortcuts for graphs excluding dense minors",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    quality = subparsers.add_parser("quality", help="build a shortcut, check bounds")
    _add_family_arguments(quality)
    _add_provider_argument(quality)
    quality.add_argument("--parts", type=int, default=None)
    quality.add_argument("--delta", type=float, default=None)
    quality.add_argument("--fast", action="store_true", help="approximate dilation")
    quality.set_defaults(func=_cmd_quality)

    lowerbound = subparsers.add_parser("lowerbound", help="Lemma 3.2 instance")
    lowerbound.add_argument("--delta-prime", type=int, default=5)
    lowerbound.add_argument("--diameter-prime", type=int, default=20)
    lowerbound.add_argument("--fast", action="store_true")
    lowerbound.set_defaults(func=_cmd_lowerbound)

    mst = subparsers.add_parser("mst", help="distributed MST, both arms")
    _add_family_arguments(mst)
    _add_scheduler_arguments(mst)
    _add_provider_argument(mst)
    mst.set_defaults(func=_cmd_mst)

    certify = subparsers.add_parser("certify", help="certifying construction")
    _add_family_arguments(certify)
    _add_scheduler_arguments(certify)
    _add_provider_argument(certify, default="certifying")
    certify.add_argument("--parts", type=int, default=None)
    certify.add_argument(
        "--initial-delta", type=float, default=None,
        help="first delta of the certifying doubling (default 0.25); "
        "rejected by a provider that does not read it",
    )
    certify.set_defaults(func=_cmd_certify)

    serve = subparsers.add_parser(
        "serve", help="multi-tenant job service demo (scoped SSSP jobs)"
    )
    _add_family_arguments(serve)
    _add_scheduler_arguments(serve)
    serve.add_argument(
        "--jobs", type=int, default=4,
        help="number of concurrent scoped SSSP jobs (default 4)",
    )
    serve.add_argument(
        "--max-inflight", type=int, default=None, dest="max_inflight",
        help="admission control: max concurrently multiplexed jobs "
             "(default: unbounded)",
    )
    serve.set_defaults(func=_cmd_serve)

    registry = subparsers.add_parser(
        "registry",
        help="list registered schedulers, latency models, providers, lint rules",
    )
    registry.set_defaults(func=_cmd_registry)

    lint = subparsers.add_parser(
        "lint", help="CONGEST determinism/protocol static analysis"
    )
    lint.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to analyze (default: src)",
    )
    lint.add_argument(
        "--format", default="text", choices=_lint_formats(),
        help="output format (github emits ::error workflow annotations)",
    )
    lint.add_argument(
        "--select", default=None,
        help="comma-separated rule names (default: every registered rule)",
    )
    lint.add_argument(
        "--list-rules", action="store_true", dest="list_rules",
        help="print the rule table and exit",
    )
    lint.add_argument(
        "--project", action="store_true",
        help="whole-program mode: build the cross-module ProjectModel, "
             "make DET-*/PROTO-STATE inter-procedural, and run the "
             "project-only PROTO-MSG / KERNEL-EQ schema rules",
    )
    lint.set_defaults(func=_cmd_lint)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
