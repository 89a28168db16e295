"""Shared helpers for the experiment benchmarks.

Each benchmark module reproduces one experiment (see the faithfulness
notes of ``docs/architecture.md``): it computes the experiment's table,
prints it, writes it to ``benchmarks/out/<experiment>.txt``, asserts the
paper's *shape* claims, and times one representative unit of work via
pytest-benchmark.
"""

from __future__ import annotations

import pathlib

OUT_DIR = pathlib.Path(__file__).parent / "out"


def report(experiment: str, title: str, header: list[str], rows: list[list]) -> str:
    """Format, print, and persist an experiment table; returns the text."""
    widths = [
        max(len(str(header[i])), *(len(str(row[i])) for row in rows)) if rows else len(str(header[i]))
        for i in range(len(header))
    ]
    lines = [f"== {experiment}: {title} =="]
    lines.append(" | ".join(str(h).rjust(w) for h, w in zip(header, widths)))
    lines.append("-+-".join("-" * w for w in widths))
    for row in rows:
        lines.append(" | ".join(str(cell).rjust(w) for cell, w in zip(row, widths)))
    text = "\n".join(lines)
    print("\n" + text)
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{experiment}.txt").write_text(text + "\n")
    return text


def fmt(value: float, digits: int = 2) -> str:
    """Compact float formatting for table cells."""
    return f"{value:.{digits}f}"
