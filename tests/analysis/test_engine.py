"""Analyzer-engine tests: suppressions, hygiene, parse errors, formats.

Violating fixtures are source strings with virtual in-package paths, so
``repro lint tests`` stays clean on the real tree (suppression comments
inside string literals are inert by design — the engine finds comments
with tokenize, not a regex over raw lines).
"""

import json

import pytest

from repro.analysis import (
    FORMATS,
    analyze_paths,
    analyze_project,
    analyze_source,
    format_findings,
    iter_python_files,
    parse_suppressions,
)

SIM_PATH = "src/repro/congest/primitives/fixture.py"

VIOLATION = (
    "import random\n"
    "def pick(ctx):\n"
    "    return random.randrange(ctx.num_nodes)\n"
)


class TestSuppressions:
    def test_justified_suppression_silences_the_finding(self):
        source = VIOLATION.replace(
            "return random.randrange(ctx.num_nodes)",
            "return random.randrange(ctx.num_nodes)"
            "  # repro: allow[DET-RNG] fixture exercises the draw",
        )
        assert analyze_source(source, SIM_PATH) == []

    def test_suppression_is_per_line(self):
        # Suppressing the draw on line 3 must not hide the import on line 1.
        source = (
            "from random import randrange\n"
            "def pick(ctx):\n"
            "    return random.randrange(ctx.num_nodes)"
            "  # repro: allow[DET-RNG] the draw is the fixture\n"
        )
        findings = analyze_source(source, SIM_PATH)
        assert [(f.rule, f.line) for f in findings] == [("DET-RNG", 1)]

    def test_multi_rule_bracket(self):
        source = (
            "import random, uuid"
            "  # repro: allow[DET-RNG, DET-WALL] fixture imports both\n"
        )
        assert analyze_source(source, SIM_PATH) == []

    def test_missing_reason_is_flagged(self):
        source = "import random  # repro: allow[DET-RNG]\n"
        rules = [f.rule for f in analyze_source(source, SIM_PATH)]
        assert "SUP-REASON" in rules
        assert "DET-RNG" not in rules  # still suppresses, but not silently

    def test_unused_suppression_is_flagged(self):
        source = "x = 1  # repro: allow[DET-RNG] nothing here draws\n"
        rules = [f.rule for f in analyze_source(source, SIM_PATH)]
        assert rules == ["SUP-UNUSED"]

    def test_unused_not_reported_when_rule_deselected(self):
        # A --select run that skips DET-RNG cannot judge the suppression.
        source = "x = 1  # repro: allow[DET-RNG] nothing here draws\n"
        assert analyze_source(source, SIM_PATH, select=("DET-WALL",)) == []

    def test_unknown_rule_in_bracket_is_flagged(self):
        source = "x = 1  # repro: allow[DET-BOGUS] whatever\n"
        rules = [f.rule for f in analyze_source(source, SIM_PATH)]
        assert "SUP-UNKNOWN" in rules

    def test_empty_bracket_is_flagged(self):
        source = "x = 1  # repro: allow[] whatever\n"
        rules = [f.rule for f in analyze_source(source, SIM_PATH)]
        assert rules == ["SUP-UNKNOWN"]

    def test_suppression_inside_string_literal_is_inert(self):
        source = 's = "x = 1  # repro: allow[DET-RNG] not a comment"\n'
        assert parse_suppressions(source) == []
        assert analyze_source(source, SIM_PATH) == []


class TestParseFailures:
    def test_syntax_error_is_a_finding(self):
        findings = analyze_source("def broken(:\n    pass\n", SIM_PATH)
        assert len(findings) == 1
        assert findings[0].rule == "PARSE"
        assert findings[0].line == 1

    def test_unreadable_file_is_a_finding(self, tmp_path):
        bad = tmp_path / "src" / "repro" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_bytes(b"x = '\xff\xfe broken utf8'\n")
        findings, scanned = analyze_paths([tmp_path])
        assert scanned == 1
        assert [f.rule for f in findings] == ["PARSE"]

    def test_missing_path_raises(self):
        with pytest.raises(FileNotFoundError, match="nowhere"):
            analyze_paths(["nowhere"])

    def test_unknown_select_raises_before_reading(self):
        with pytest.raises(ValueError, match="registered rules"):
            analyze_paths(["also-nowhere"], select=("NOPE",))


class TestFormats:
    def _findings(self):
        return analyze_source(VIOLATION, SIM_PATH)

    def test_text(self):
        text = format_findings(self._findings(), "text")
        assert f"{SIM_PATH}:3:12: DET-RNG" in text

    def test_json_roundtrip(self):
        document = json.loads(format_findings(self._findings(), "json"))
        assert document["count"] == 1
        assert document["findings"][0]["rule"] == "DET-RNG"
        assert document["findings"][0]["path"] == SIM_PATH

    def test_github_annotations(self):
        lines = format_findings(self._findings(), "github").splitlines()
        assert lines[0].startswith(
            f"::error file={SIM_PATH},line=3,col=12,title=repro-lint DET-RNG::"
        )

    def test_unknown_format_lists_formats(self):
        with pytest.raises(ValueError, match="text, json, github"):
            format_findings([], "xml")

    def test_formats_tuple(self):
        assert FORMATS == ("text", "json", "github")


class TestAnalyzePaths:
    def test_directory_walk_and_counts(self, tmp_path):
        package = tmp_path / "src" / "repro" / "congest"
        package.mkdir(parents=True)
        (package / "clean.py").write_text("x = 1\n")
        (package / "dirty.py").write_text(VIOLATION)
        (tmp_path / "outside.py").write_text(VIOLATION)  # no repro segment
        findings, scanned = analyze_paths([tmp_path])
        assert scanned == 3
        assert {f.rule for f in findings} == {"DET-RNG"}
        assert all("dirty.py" in f.path for f in findings)

    def test_overlapping_arguments_scan_each_file_once(self, tmp_path):
        package = tmp_path / "src" / "repro" / "congest"
        package.mkdir(parents=True)
        target = package / "dirty.py"
        target.write_text(VIOLATION)
        # Directory, nested directory, and an absolute re-spelling of the
        # same file: one scan, one set of findings.
        files = iter_python_files([tmp_path, package, target.resolve()])
        assert len(files) == 1
        findings, scanned = analyze_paths([tmp_path, target.resolve()])
        assert scanned == 1
        assert len(findings) == len(analyze_source(VIOLATION, str(target)))


class TestAnalyzeProject:
    def test_cross_file_finding_through_the_filesystem(self, tmp_path):
        apps = tmp_path / "src" / "repro" / "apps"
        congest = tmp_path / "src" / "repro" / "congest"
        apps.mkdir(parents=True)
        congest.mkdir(parents=True)
        (apps / "helpers.py").write_text(
            "import random\n\n\ndef jitter():\n    return random.random()\n"
        )
        (congest / "algo.py").write_text(
            "from repro.apps.helpers import jitter\n"
            "\n"
            "\n"
            "class JitterNode(NodeAlgorithm):\n"
            "    def on_round(self, ctx, inbox):\n"
            "        self.delay = jitter()\n"
            "        return {}\n"
        )
        per_file, scanned = analyze_paths([tmp_path])
        assert per_file == [] and scanned == 2
        findings, scanned = analyze_project([tmp_path])
        assert scanned == 2
        assert [f.rule for f in findings] == ["DET-RNG"]
        assert findings[0].path.endswith("algo.py")

    def test_parse_errors_surface_in_project_mode(self, tmp_path):
        package = tmp_path / "src" / "repro" / "congest"
        package.mkdir(parents=True)
        (package / "broken.py").write_text("def broken(:\n")
        (package / "fine.py").write_text("x = 1\n")
        findings, scanned = analyze_project([tmp_path])
        assert scanned == 2
        assert [f.rule for f in findings] == ["PARSE"]
