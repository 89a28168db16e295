"""Output formats for ``repro lint`` findings.

Three formats, selected by the CLI's ``--format`` flag:

* ``text`` — one ``path:line:col: RULE message`` line per finding, the
  greppable default;
* ``json`` — a stable machine-readable document (sorted keys, findings in
  the analyzer's sorted order);
* ``github`` — ``::error`` workflow commands, so the CI job annotates the
  offending lines directly in the pull-request diff. Workflow commands
  are line-oriented with ``,``/``:``-delimited properties, so finding
  text is escaped per the Actions runner's rules (``%``/CR/LF in data,
  additionally ``:``/``,`` in property values) — a message containing a
  newline or ``::`` must not truncate or forge a command.
"""

from __future__ import annotations

import json
from collections.abc import Sequence

from repro.analysis.rules import Finding

__all__ = ["FORMATS", "format_findings"]

FORMATS = ("text", "json", "github")

def _escape_data(value: str) -> str:
    """GitHub workflow-command escaping for the message part."""
    return value.replace("%", "%25").replace("\r", "%0D").replace("\n", "%0A")


def _escape_property(value: str) -> str:
    """GitHub workflow-command escaping for property values (file, title)."""
    return _escape_data(value).replace(":", "%3A").replace(",", "%2C")


def format_findings(findings: Sequence[Finding], fmt: str = "text") -> str:
    """Render findings in the requested format.

    Raises:
        ValueError: unknown format name (the message lists ``FORMATS``,
            matching the registry error convention).
    """
    if fmt == "text":
        return "\n".join(
            f"{f.path}:{f.line}:{f.col}: {f.rule} {f.message}" for f in findings
        )
    if fmt == "json":
        return json.dumps(
            {
                "count": len(findings),
                "findings": [
                    {
                        "path": f.path,
                        "line": f.line,
                        "col": f.col,
                        "rule": f.rule,
                        "message": f.message,
                    }
                    for f in findings
                ],
            },
            indent=2,
            sort_keys=True,
        )
    if fmt == "github":
        return "\n".join(
            f"::error file={_escape_property(f.path)},line={f.line},"
            f"col={f.col},title={_escape_property(f'repro-lint {f.rule}')}"
            f"::{_escape_data(f.message)}"
            for f in findings
        )
    raise ValueError(
        f"unknown lint output format {fmt!r}; formats: {', '.join(FORMATS)}"
    )
