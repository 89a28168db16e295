"""Static analysis for the CONGEST simulator: the ``repro lint`` engine.

The simulator's cross-backend byte-equivalence contract rests on coding
invariants that no general-purpose tool checks — per-node randomness only
from ``ctx.rng``, no wall-clock reads, no unordered set iteration into
message emission, no ``ctx.round``-as-wall-time protocols, backend classes
behind the registry, no shared-state mutation from node code. This package
mechanizes them:

* :mod:`repro.analysis.rules` — the rule registry (the scheduler/provider
  registry idiom) and the per-file rules: ``DET-RNG``, ``DET-ORDER``,
  ``DET-WALL``, ``PROTO-ROUND``, ``REG-BACKEND``, ``PROTO-STATE``,
  ``PROTO-JOB``;
* :mod:`repro.analysis.project` — the whole-program :class:`ProjectModel`
  (import graph, class hierarchy, call graph, constant table) behind
  ``repro lint --project``, which makes the per-file rules
  inter-procedural (taint through helpers and cross-module calls);
* :mod:`repro.analysis.protocol` — the project-only message-schema rules
  ``PROTO-MSG`` (tags sent vs. handled, payload arities, across the
  interpreted/kernel split) and ``KERNEL-EQ`` (``VectorKernel`` companion
  vs. interpreted class: dtypes, emitted tags, arities);
* :mod:`repro.analysis.engine` — file discovery, rule dispatch, the
  ``# repro: allow[RULE] reason`` suppression syntax with unused/unknown/
  unjustified-suppression hygiene;
* :mod:`repro.analysis.report` — text / JSON / GitHub-annotation output.

The CLI front end is ``python -m repro lint`` (see :mod:`repro.cli`); the
*dynamic* twin of the static pass — the runtime spurious-wake sanitizer —
lives in :mod:`repro.congest.engine` (``SyncNetwork(..., sanitize=True)``).

The package is deliberately stdlib-only (``ast``, ``tokenize``): linting
must not drag in the simulator's dependencies, and nothing in the
simulator may depend back on the linter.
"""

from repro.analysis.engine import (
    Suppression,
    analyze_paths,
    analyze_project,
    analyze_source,
    analyze_sources,
    iter_python_files,
    parse_suppressions,
    resolve_selection,
)
from repro.analysis.project import ProjectModel, build_project_model
from repro.analysis.report import FORMATS, format_findings
from repro.analysis.rules import (
    Finding,
    Rule,
    available_rules,
    get_rule,
    module_path,
    register_rule,
    rule_table,
)

__all__ = [
    "Finding",
    "ProjectModel",
    "Rule",
    "Suppression",
    "FORMATS",
    "analyze_paths",
    "analyze_project",
    "analyze_source",
    "analyze_sources",
    "available_rules",
    "build_project_model",
    "format_findings",
    "get_rule",
    "iter_python_files",
    "module_path",
    "parse_suppressions",
    "register_rule",
    "resolve_selection",
    "rule_table",
]
