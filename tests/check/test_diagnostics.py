"""Unit tests for the diagnostic types and report rendering."""

import json

from repro.check import CODES, SCHEMA, CheckReport, Diagnostic, Severity


class TestSeverity:
    def test_ordering(self):
        assert Severity.INFO < Severity.WARNING < Severity.ERROR

    def test_str(self):
        assert str(Severity.WARNING) == "warning"

    def test_parse(self):
        assert Severity.parse("error") is Severity.ERROR
        assert Severity.parse("WARNING") is Severity.WARNING

    def test_parse_rejects_unknown(self):
        try:
            Severity.parse("fatal")
        except ValueError:
            pass
        else:
            raise AssertionError("expected ValueError")


class TestCodeTable:
    def test_codes_are_stable_api(self):
        # Renumbering or dropping a code is a breaking change; this
        # pin makes that explicit.
        assert set(CODES) == {
            "D001", "D002", "D003", "D004",
            "D010", "D011", "D012", "D013", "D014", "D015", "D016",
            "D020", "D021",
            "D100", "D101",
        }

    def test_d00x_are_errors(self):
        for code in ("D001", "D002", "D003", "D004"):
            assert CODES[code][0] is Severity.ERROR

    def test_unsat_proofs_are_warnings(self):
        # `--fail-on error` must pass on well-formed unsat inputs.
        assert CODES["D020"][0] is Severity.WARNING
        assert CODES["D021"][0] is Severity.WARNING


class TestDiagnostic:
    def test_make_uses_registered_severity(self):
        d = Diagnostic.make("D012", "dup", line=3)
        assert d.severity is Severity.WARNING

    def test_render_with_file_and_line(self):
        d = Diagnostic.make("D010", "unused", line=2, hint="remove it")
        text = d.render("f.dprle")
        assert text.startswith("f.dprle:2: warning[D010]: unused")
        assert "hint: remove it" in text

    def test_render_without_file(self):
        d = Diagnostic.make("D021", "unsat")
        assert d.render() == "warning[D021]: unsat"

    def test_to_dict_omits_absent_fields(self):
        d = Diagnostic.make("D021", "unsat")
        assert set(d.to_dict()) == {"code", "severity", "message"}


class TestCheckReport:
    def _report(self):
        r = CheckReport()
        r.add(Diagnostic.make("D010", "b-msg", line=5))
        r.add(Diagnostic.make("D002", "a-msg", line=1))
        r.add(Diagnostic.make("D021", "unsat"))
        return r

    def test_sorted_by_line_then_code(self):
        codes = [d.code for d in self._report().sorted_diagnostics()]
        assert codes == ["D021", "D002", "D010"]

    def test_worst_severity_and_at_least(self):
        r = self._report()
        assert r.worst_severity() is Severity.ERROR
        assert r.at_least(Severity.WARNING)
        assert not CheckReport().at_least(Severity.INFO)

    def test_proved_unsat_flag(self):
        assert self._report().proved_unsat
        assert not CheckReport().proved_unsat

    def test_render_summary_line(self):
        assert self._report().render().endswith(
            "1 error(s), 2 warning(s), 0 info(s)"
        )

    def test_json_schema(self):
        payload = json.loads(self._report().to_json("x.dprle"))
        assert payload["schema"] == SCHEMA == "dprle.check/1"
        assert payload["file"] == "x.dprle"
        assert payload["summary"]["errors"] == 1
        assert payload["summary"]["proved_unsat"] is True
        assert [d["code"] for d in payload["diagnostics"]] == [
            "D021", "D002", "D010",
        ]
