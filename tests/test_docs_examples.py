"""The docs are executable: runnable examples run, intra-repo links hold.

Fenced code blocks in ``README.md`` and ``docs/*.md`` whose info string
carries the ``docs-check`` marker (`` ```python docs-check `` /
`` ```bash docs-check ``) are extracted here and executed — each in a
fresh subprocess, so examples that register names into the
process-global registries (the whole point of ``docs/extending.md``)
cannot leak into the exact-registry assertions elsewhere in the suite.

Three more alignment gates ride along: every intra-repo markdown link must
resolve to an existing file, no source or benchmark file may cite a
design document that does not exist, and every registered latency model
and datacenter topology must be documented in ``docs/latency-models.md``
— so the registries and the docs cannot drift apart silently.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
DOC_FILES = sorted([REPO / "README.md", *(REPO / "docs").glob("*.md")])

_FENCE = re.compile(r"^```(\S*)[ \t]*(.*)$")


def _fenced_blocks(path):
    """Yield ``(language, info, start_line, code)`` per fenced block."""
    language = None
    info = ""
    start = 0
    lines: list[str] = []
    for number, line in enumerate(path.read_text().splitlines(), start=1):
        match = _FENCE.match(line.strip())
        if language is None:
            if match and match.group(1):
                language, info, start, lines = match.group(1), match.group(2), number, []
        elif line.strip() == "```":
            yield language, info, start, "\n".join(lines) + "\n"
            language = None
        else:
            lines.append(line)


def _runnable_blocks():
    for path in DOC_FILES:
        for language, info, start, code in _fenced_blocks(path):
            if "docs-check" in info.split():
                name = f"{path.relative_to(REPO)}:{start}"
                yield pytest.param(language, code, id=name)


def _subprocess_env():
    env = dict(os.environ)
    src = str(REPO / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = f"{src}{os.pathsep}{existing}" if existing else src
    return env


@pytest.mark.parametrize(("language", "code"), list(_runnable_blocks()))
def test_docs_example_runs(language, code):
    if language == "python":
        command = [sys.executable, "-c", code]
    elif language == "bash":
        command = ["bash", "-e", "-c", code]
    else:
        pytest.fail(f"docs-check on unsupported language {language!r}")
    proc = subprocess.run(
        command, cwd=REPO, env=_subprocess_env(),
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, (
        f"docs example failed (exit {proc.returncode})\n"
        f"--- stdout ---\n{proc.stdout}\n--- stderr ---\n{proc.stderr}"
    )


def test_docs_have_runnable_examples():
    # The extractor finding zero blocks would silently gut this gate.
    assert len(list(_runnable_blocks())) >= 4


_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


def test_intra_repo_links_resolve():
    broken = []
    for path in DOC_FILES:
        in_fence = False
        for number, line in enumerate(path.read_text().splitlines(), start=1):
            if line.strip().startswith("```"):
                in_fence = not in_fence
                continue
            if in_fence:
                continue
            for target in _LINK.findall(line):
                if target.startswith(("http://", "https://", "mailto:", "#")):
                    continue
                resolved = (path.parent / target.split("#", 1)[0]).resolve()
                if not resolved.exists():
                    broken.append(f"{path.relative_to(REPO)}:{number} -> {target}")
    assert not broken, "broken intra-repo links:\n" + "\n".join(broken)


# Design documents the code once cited but the repo does not have; the
# faithfulness notes in docs/architecture.md took their place.
_MISSING_DOCS = re.compile(r"\b(?:DESIGN|EXPERIMENTS)\.md\b")


def test_code_cites_no_missing_design_documents():
    cited = [
        f"{path.relative_to(REPO)}:{number}"
        for root in ("src", "benchmarks")
        for path in sorted((REPO / root).rglob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        if _MISSING_DOCS.search(line)
    ]
    assert not cited, "references to missing design documents:\n" + "\n".join(cited)


def test_latency_docs_cover_registries():
    from repro.congest.asynchronous import available_latency_models
    from repro.graphs.generators import available_datacenter_topologies

    text = (REPO / "docs" / "latency-models.md").read_text()
    missing = [
        name
        for name in (*available_latency_models(), *available_datacenter_topologies())
        if f"`{name}`" not in text
    ]
    assert not missing, (
        "registered but undocumented in docs/latency-models.md: "
        + ", ".join(missing)
    )
