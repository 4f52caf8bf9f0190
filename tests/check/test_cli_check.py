"""End-to-end tests for `dprle check` and the D-coded CLI error paths."""

import json
import pathlib

import pytest

from repro.tools.cli import main

DATA = pathlib.Path(__file__).parent.parent / "data"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheckCommand:
    def test_clean_file_exit_zero(self, capsys):
        code, out, _ = run(capsys, "check", DATA / "motivating.dprle")
        assert code == 0
        assert "0 error(s)" in out

    def test_unsat_static_human_output(self, capsys):
        code, out, _ = run(capsys, "check", DATA / "unsat_static.dprle")
        assert code == 0  # warnings do not fail by default
        assert "warning[D020]" in out
        assert "warning[D021]" in out

    def test_fail_on_warning(self, capsys):
        code, _, _ = run(
            capsys,
            "check", DATA / "unsat_static.dprle", "--fail-on", "warning",
        )
        assert code == 1

    def test_fail_on_error_passes_unsat(self, capsys):
        # Unsat proofs are warnings: CI runs --fail-on error corpus-wide.
        code, _, _ = run(
            capsys,
            "check", DATA / "unsat_static.dprle", "--fail-on", "error",
        )
        assert code == 0

    def test_json_schema(self, capsys):
        code, out, _ = run(
            capsys, "check", DATA / "warn_wide.dprle", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == "dprle.check/1"
        assert payload["file"].endswith("warn_wide.dprle")
        assert [d["code"] for d in payload["diagnostics"]] == ["D100"]
        assert payload["groups"][0]["warned"] is True
        assert "v" not in payload["domains"] or payload["domains"]

    @pytest.mark.parametrize(
        "name", sorted(p.name for p in DATA.glob("*.dprle"))
    )
    def test_every_corpus_file_renders_both_forms(self, capsys, name):
        code, out, _ = run(capsys, "check", DATA / name)
        assert code == 0
        assert out.strip()
        code, out, _ = run(capsys, "check", DATA / name, "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == "dprle.check/1"

    def test_missing_file_exit_two(self, capsys):
        code, _, err = run(capsys, "check", DATA / "nope.dprle")
        assert code == 2
        assert "cannot read" in err


class TestMalformedInputRouting:
    """The satellite bugfix: malformed input must exit 2 with a stable
    D-coded diagnostic and file/line — never a raw traceback."""

    def _write(self, tmp_path, text):
        path = tmp_path / "bad.dprle"
        path.write_text(text)
        return path

    def test_check_reports_parse_error_as_diagnostic(self, capsys, tmp_path):
        path = self._write(tmp_path, "var v;\nv <= w;\n")
        code, out, _ = run(capsys, "check", path)
        assert code == 2
        assert "error[D002]" in out
        assert ":2:" in out

    def test_check_json_on_parse_error(self, capsys, tmp_path):
        path = self._write(tmp_path, 'var v;\nv <= /[z-a]/;\n')
        code, out, _ = run(capsys, "check", path, "--json")
        assert code == 2
        payload = json.loads(out)
        (d,) = payload["diagnostics"]
        assert d["code"] == "D004"
        assert d["line"] == 2

    @pytest.mark.parametrize(
        "text,code_expected",
        [
            ("var v;\nv <= w;\n", "D002"),
            ("var v, w;\nv <= w;\n", "D003"),
            ("var v;\nv <= /[z-a]/;\n", "D004"),
            ("var v;\nv <= w . \"x\";\n", "D002"),
            ("var v;\nv <= m/[/;\n", "D004"),
            ("var v;\nv <=\n", "D001"),
        ],
    )
    def test_solve_exits_two_with_code(
        self, capsys, tmp_path, text, code_expected
    ):
        path = self._write(tmp_path, text)
        code, _, err = run(capsys, "solve", path)
        assert code == 2
        assert f"error[{code_expected}]" in err
        assert str(path) in err

    def test_graph_routes_errors_too(self, capsys, tmp_path):
        path = self._write(tmp_path, "var v;\nv <= w;\n")
        code, _, err = run(capsys, "graph", path)
        assert code == 2
        assert "error[D002]" in err


class TestSolveStaticallyUnsat:
    def test_solve_unsat_static_reports_no_assignments(self, capsys):
        # The file `dprle check` refutes (D020/D021) is refuted by the
        # ordinary solve as well.
        code, out, _ = run(capsys, "solve", DATA / "unsat_static.dprle")
        assert code == 1
        assert "no assignments found" in out
