"""Analyzer core: file discovery, rule dispatch, suppression hygiene.

:func:`analyze_source` runs the selected rules over one source string;
:func:`analyze_paths` expands files and directories and aggregates. Both
return sorted :class:`~repro.analysis.rules.Finding` lists — an empty list
is a clean bill.

Suppressions
------------

A finding is silenced by an inline comment on the *same physical line*::

    if ctx.round > self.max_hops:  # repro: allow[PROTO-ROUND] why it is ok

The bracket takes a comma-separated rule list; the trailing text is the
written justification and is mandatory. Hygiene is enforced with three
pseudo-rules so suppressions cannot rot:

* ``SUP-UNKNOWN`` — the bracket names a rule that is not registered;
* ``SUP-REASON`` — the justification is empty;
* ``SUP-UNUSED`` — the suppression matched no finding (only reported when
  every rule it names was actually selected for the run, so partial
  ``--select`` runs do not flag suppressions for the rules they skipped).

Unparseable files are never skipped silently: they produce a ``PARSE``
finding at the syntax error's location, which fails the lint like any
other finding.

Comments are located with :mod:`tokenize`, not a regex over raw lines, so
suppression syntax appearing inside string literals (this repo's own test
fixtures, for instance) is inert.
"""

from __future__ import annotations

import ast
import io
import os
import re
import tokenize
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from pathlib import Path

from repro.analysis.rules import (
    Finding,
    Rule,
    available_rules,
    get_rule,
    module_path,
)
from repro.analysis.project import build_project_model

# Importing the protocol module registers PROTO-MSG / KERNEL-EQ, so the
# registry is complete for every engine entry point (per-file mode skips
# them via Rule.project_only, but --select and suppressions must still
# recognize the names).
import repro.analysis.protocol  # noqa: F401

__all__ = [
    "analyze_source",
    "analyze_sources",
    "analyze_paths",
    "analyze_project",
    "iter_python_files",
    "parse_suppressions",
    "resolve_selection",
    "Suppression",
]

_ALLOW_RE = re.compile(r"repro:\s*allow\[([^\]]*)\]\s*(.*)\Z")


@dataclass
class Suppression:
    """One ``# repro: allow[...]`` comment."""

    line: int
    rules: tuple[str, ...]
    reason: str
    used: bool = False


def parse_suppressions(source: str) -> list[Suppression]:
    """Extract every suppression comment, by physical line."""
    suppressions: list[Suppression] = []
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = _ALLOW_RE.search(token.string)
            if match is None:
                continue
            rules = tuple(
                name.strip()
                for name in match.group(1).split(",")
                if name.strip()
            )
            suppressions.append(
                Suppression(token.start[0], rules, match.group(2).strip())
            )
    except (tokenize.TokenError, IndentationError, SyntaxError):
        # Untokenizable source also fails ast.parse, which reports PARSE;
        # suppression handling is moot for a file that cannot be analyzed.
        return []
    return suppressions


def resolve_selection(select: Iterable[str] | None = None) -> list[Rule]:
    """Instantiate the selected rules (all registered rules when None).

    Raises:
        ValueError: on an unknown rule name (the message lists the
            registry, matching the scheduler/provider error convention).
    """
    names = available_rules() if select is None else tuple(select)
    return [get_rule(name)() for name in names]


def analyze_source(
    source: str, path: str, select: Iterable[str] | None = None
) -> list[Finding]:
    """Run the selected rules over one source string.

    ``path`` determines rule scope (via
    :func:`~repro.analysis.rules.module_path`) and is stamped into the
    findings; it does not need to exist on disk — fixture tests pass
    virtual paths like ``src/repro/congest/snippet.py``.
    """
    rules = resolve_selection(select)
    module = module_path(path)
    tree, parse_findings = _parse(source, path)
    if tree is None:
        return parse_findings

    raw: list[Finding] = []
    for rule in rules:
        if not rule.project_only and rule.applies_to(module):
            raw.extend(rule.check(module, tree, str(path)))

    # Project-only rules cannot fire here, so their suppressions are not
    # counted as "selected" — a justified PROTO-MSG allow[] must survive a
    # per-file run without tripping SUP-UNUSED.
    selected = {rule.name for rule in rules if not rule.project_only}
    findings = _apply_suppressions(source, path, raw, selected)
    findings.sort()
    return findings


def _parse(
    source: str, path: str | Path
) -> tuple[ast.Module | None, list[Finding]]:
    try:
        return ast.parse(source, filename=str(path)), []
    except SyntaxError as exc:
        return None, [Finding(
            str(path), exc.lineno or 1, exc.offset or 1, "PARSE",
            f"could not parse: {exc.msg}",
        )]
    except ValueError as exc:  # e.g. source containing null bytes
        return None, [Finding(str(path), 1, 1, "PARSE", f"could not parse: {exc}")]


def _apply_suppressions(
    source: str, path: str | Path, raw: list[Finding], selected: set[str]
) -> list[Finding]:
    """Filter ``raw`` through the file's inline suppressions and append the
    hygiene findings (SUP-UNKNOWN / SUP-REASON / SUP-UNUSED)."""
    suppressions = parse_suppressions(source)
    findings: list[Finding] = []
    for finding in raw:
        matched = False
        for suppression in suppressions:
            if suppression.line == finding.line and finding.rule in suppression.rules:
                suppression.used = True
                matched = True
        if not matched:
            findings.append(finding)

    registered = set(available_rules())
    for suppression in suppressions:
        if not suppression.rules:
            findings.append(Finding(
                str(path), suppression.line, 1, "SUP-UNKNOWN",
                "suppression names no rules; write repro: allow[RULE] reason",
            ))
            continue
        for name in suppression.rules:
            if name not in registered:
                findings.append(Finding(
                    str(path), suppression.line, 1, "SUP-UNKNOWN",
                    f"suppression names unknown rule {name!r}; registered "
                    f"rules: {', '.join(available_rules())}",
                ))
        if not suppression.reason:
            findings.append(Finding(
                str(path), suppression.line, 1, "SUP-REASON",
                "suppression carries no justification; every allow[] must "
                "say why the finding is acceptable",
            ))
        known = [name for name in suppression.rules if name in registered]
        if (
            known
            and not suppression.used
            and all(name in selected for name in known)
        ):
            findings.append(Finding(
                str(path), suppression.line, 1, "SUP-UNUSED",
                f"suppression for {', '.join(known)} matched no finding on "
                "this line; delete it",
            ))
    return findings


def analyze_sources(
    sources: Mapping[str, str], select: Iterable[str] | None = None
) -> list[Finding]:
    """Whole-program (``--project``) analysis over in-memory sources.

    ``sources`` maps (possibly virtual) paths to source text. All files
    are parsed up front into one
    :class:`~repro.analysis.project.ProjectModel`; per-file rules then run
    through their :meth:`~repro.analysis.rules.Rule.check_project` hook
    with the model as context, and project-only rules (PROTO-MSG,
    KERNEL-EQ) run once over the model. Suppressions apply per file
    exactly as in per-file mode — project findings are anchored at real
    source lines, so an inline ``allow[]`` silences them the same way.
    """
    rules = resolve_selection(select)
    selected = {rule.name for rule in rules}
    sources = {str(path): text for path, text in sources.items()}
    findings: list[Finding] = []
    parsed: dict[str, ast.Module] = {}
    for path, source in sources.items():
        tree, parse_findings = _parse(source, path)
        if tree is None:
            findings.extend(parse_findings)
        else:
            parsed[str(path)] = tree

    model = build_project_model(parsed)
    raw_by_path: dict[str, list[Finding]] = {path: [] for path in parsed}
    for path, tree in parsed.items():
        module = module_path(path)
        for rule in rules:
            if not rule.project_only and rule.applies_to(module):
                raw_by_path[path].extend(
                    rule.check_project(module, tree, path, model)
                )
    for rule in rules:
        if rule.project_only:
            for finding in rule.check_model(model):
                raw_by_path.setdefault(finding.path, []).append(finding)

    for path in parsed:
        findings.extend(_apply_suppressions(
            sources[path], path, raw_by_path[path], selected,
        ))
    findings.sort()
    return findings


def iter_python_files(paths: Sequence[str | Path]) -> list[Path]:
    """Expand files and directories into a sorted, deduplicated file list.

    Deduplication keys on the *real* path, so overlapping arguments
    (``repro lint src src/repro``, a directory plus an absolute path to a
    file inside it, a symlinked re-spelling) scan each file once, under
    its first-seen spelling.

    Raises:
        FileNotFoundError: for an input path that does not exist — a typo
            must fail the run, not silently shrink its scope.
    """
    files: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.is_file():
            files.append(path)
        else:
            raise FileNotFoundError(f"no such file or directory: {raw}")
    seen: set[str] = set()
    unique: list[Path] = []
    for file in files:
        key = os.path.realpath(file)
        if key not in seen:
            seen.add(key)
            unique.append(file)
    return unique


def analyze_paths(
    paths: Sequence[str | Path], select: Iterable[str] | None = None
) -> tuple[list[Finding], int]:
    """Run the selected rules over files/directories.

    Returns:
        ``(findings, files_scanned)`` with findings sorted by
        ``(path, line, col, rule)``.

    Raises:
        ValueError: unknown rule name in ``select`` (raised before any
            file is read, so a typo fails fast).
        FileNotFoundError: missing input path.
    """
    resolve_selection(select)
    files = iter_python_files(paths)
    findings: list[Finding] = []
    for file in files:
        try:
            source = file.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            findings.append(
                Finding(str(file), 1, 1, "PARSE", f"could not read: {exc}")
            )
            continue
        findings.extend(analyze_source(source, str(file), select))
    findings.sort()
    return findings, len(files)


def analyze_project(
    paths: Sequence[str | Path], select: Iterable[str] | None = None
) -> tuple[list[Finding], int]:
    """Whole-program analysis over files/directories (``--project`` mode).

    Same contract as :func:`analyze_paths` — ``(findings, files_scanned)``
    sorted by location — but every file is read up front and analyzed
    through :func:`analyze_sources`, so cross-module rules see the whole
    program.

    Raises:
        ValueError: unknown rule name in ``select``.
        FileNotFoundError: missing input path.
    """
    resolve_selection(select)
    files = iter_python_files(paths)
    sources: dict[str, str] = {}
    findings: list[Finding] = []
    for file in files:
        try:
            sources[str(file)] = file.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            findings.append(
                Finding(str(file), 1, 1, "PARSE", f"could not read: {exc}")
            )
    findings.extend(analyze_sources(sources, select))
    findings.sort()
    return findings, len(files)

