"""Self-application gate: this repository lints clean, through the CLI.

The acceptance bar for every PR: ``repro lint src tests benchmarks``
exits 0, with every surviving suppression justified (SUP-REASON makes an
unjustified one a finding, so "clean" already implies that).
"""

import json
from pathlib import Path

import pytest

from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]


class TestSelfLint:
    def test_src_is_clean(self, capsys):
        assert main(["lint", str(REPO_ROOT / "src")]) == 0
        assert "repro lint: clean" in capsys.readouterr().out

    def test_whole_repo_is_clean(self, capsys):
        code = main([
            "lint",
            str(REPO_ROOT / "src"),
            str(REPO_ROOT / "tests"),
            str(REPO_ROOT / "benchmarks"),
        ])
        assert code == 0, capsys.readouterr().out

    def test_the_one_suppression_is_justified(self):
        # The library's single allowed PROTO-ROUND site: Bellman–Ford's
        # lockstep-defined hop budget. Pin it so a second suppression (or
        # silently dropping this one) shows up in review.
        from repro.analysis import parse_suppressions

        sssp = (REPO_ROOT / "src" / "repro" / "apps" / "sssp.py").read_text()
        suppressions = parse_suppressions(sssp)
        assert len(suppressions) == 1
        assert suppressions[0].rules == ("PROTO-ROUND",)
        assert "lockstep" in suppressions[0].reason


class TestCliUx:
    def test_findings_exit_1_with_location(self, tmp_path, capsys):
        bad = tmp_path / "src" / "repro" / "congest" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import random\nx = random.random()\n")
        assert main(["lint", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "DET-RNG" in out
        assert "finding(s)" in out

    def test_parse_error_exits_nonzero_with_message(self, tmp_path, capsys):
        bad = tmp_path / "broken.py"
        bad.write_text("def broken(:\n")
        assert main(["lint", str(bad)]) == 1
        assert "PARSE" in capsys.readouterr().out

    def test_unknown_select_exits_2_with_registry(self, capsys):
        assert main(["lint", "--select", "NOPE", str(REPO_ROOT / "src")]) == 2
        err = capsys.readouterr().err
        assert "unknown lint rule" in err
        assert "registered rules" in err

    def test_missing_path_exits_2(self, capsys):
        assert main(["lint", "definitely-not-here"]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_select_subset_runs(self, capsys):
        code = main([
            "lint", "--select", "DET-RNG,DET-WALL", str(REPO_ROOT / "src"),
        ])
        assert code == 0

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in ("DET-RNG", "DET-ORDER", "DET-WALL",
                     "PROTO-ROUND", "REG-BACKEND", "PROTO-STATE"):
            assert rule in out

    @pytest.mark.parametrize(
        ("fmt", "project"),
        [
            pytest.param(fmt, project, id=fmt + ("-project" if project else ""))
            for project in (False, True)
            for fmt in ("text", "json", "github")
        ],
    )
    def test_formats_through_cli(self, fmt, project, tmp_path, capsys):
        # The project/github row is the CI lint step's exact form: any
        # finding must fail it with an inline annotation.
        bad = tmp_path / "src" / "repro" / "congest" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import uuid\n")
        argv = ["lint", "--format", fmt, str(tmp_path)]
        if project:
            argv.insert(1, "--project")
        assert main(argv) == 1
        out = capsys.readouterr().out
        assert "DET-WALL" in out
        if fmt == "github":
            assert out.startswith("::error file=")
        if fmt == "json":
            assert json.loads(out)["count"] == 1


class TestProjectSelfLint:
    """The acceptance bar of the whole-program pass: this repository's own
    protocols (BFS, sweep, keep-alive, the kernel companions) must
    satisfy PROTO-MSG / KERNEL-EQ and the inter-procedural rules without
    a single suppression."""

    def test_whole_repo_is_clean_under_project_mode(self, capsys):
        code = main([
            "lint", "--project",
            str(REPO_ROOT / "src"),
            str(REPO_ROOT / "tests"),
            str(REPO_ROOT / "benchmarks"),
        ])
        assert code == 0, capsys.readouterr().out
        assert "repro lint: clean" in capsys.readouterr().out
