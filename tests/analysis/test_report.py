"""Report-layer tests: GitHub workflow-command escaping and the JSON
round-trip of every Finding field.

The escaping cases are the satellite's reason to exist: an attacker-ish
finding message containing a newline or ``::`` must render as exactly one
inert annotation line, never a second forged workflow command.
"""

import json

from repro.analysis import Finding, format_findings

NASTY = Finding(
    "src/repro/congest/a,b:c.py", 3, 7, "DET-RNG",
    "line one\nline two :: 100% bad\r\n",
)
PLAIN = Finding("src/repro/apps/clean.py", 12, 1, "PROTO-MSG", "plain message")


class TestGithubEscaping:
    def test_newlines_cannot_forge_a_second_command(self):
        out = format_findings([NASTY], "github")
        assert len(out.splitlines()) == 1
        assert out.startswith("::error ")
        assert "%0A" in out and "%0D" in out
        assert "\n" not in out and "\r" not in out

    def test_percent_escapes_before_everything_else(self):
        out = format_findings([NASTY], "github")
        assert "100%25 bad" in out
        # %0A must come from the real newline, not a literal "%0A".
        assert "%250A" not in out

    def test_double_colon_in_the_message_stays_in_the_data_part(self):
        out = format_findings([NASTY], "github")
        prefix, _, message = out.partition("::")
        assert prefix == ""  # the line *starts* with the command marker
        command, _, data = message.partition("::")
        assert command.startswith("error file=")
        assert "line two :: 100%25 bad" in data

    def test_property_values_escape_commas_and_colons(self):
        out = format_findings([NASTY], "github")
        assert "file=src/repro/congest/a%2Cb%3Ac.py,line=3,col=7" in out
        assert "title=repro-lint DET-RNG" in out


class TestJsonRoundTrip:
    def test_every_finding_field_survives(self):
        document = json.loads(format_findings([NASTY, PLAIN], "json"))
        assert document["count"] == 2
        for finding, entry in zip((NASTY, PLAIN), document["findings"]):
            assert entry == {
                "path": finding.path,
                "line": finding.line,
                "col": finding.col,
                "rule": finding.rule,
                "message": finding.message,
            }

    def test_message_content_is_not_escaped_in_json(self):
        document = json.loads(format_findings([NASTY], "json"))
        assert document["findings"][0]["message"] == NASTY.message
