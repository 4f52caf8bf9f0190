"""Unit tests for the dprle command-line tool."""

import json
import pathlib

import pytest

from repro.analysis import VULN_SPECS, make_vulnerable_source
from repro.tools.cli import main

from ..helpers import OVER_LIMIT_SOURCE

MOTIVATING = """
var v1;
v1 <= m/[\\d]+$/;
"nid_" . v1 <= m/'/;
"""

VULNERABLE_PHP = r"""<?php
$id = $_POST['id'];
if (!preg_match('/[\d]+$/', $id)) { exit; }
query("SELECT * FROM t WHERE id=$id");
"""

SAFE_PHP = VULNERABLE_PHP.replace(r"/[\d]+$/", r"/^[\d]+$/")


@pytest.fixture()
def constraint_file(tmp_path: pathlib.Path) -> pathlib.Path:
    path = tmp_path / "test.dprle"
    path.write_text(MOTIVATING)
    return path


class TestSolve:
    def test_satisfiable_exit_zero(self, constraint_file, capsys):
        assert main(["solve", str(constraint_file)]) == 0
        out = capsys.readouterr().out
        assert "assignment 1" in out
        assert "v1" in out

    def test_witness_only(self, constraint_file, capsys):
        assert main(["solve", str(constraint_file), "--witness-only"]) == 0
        assert "'0" in capsys.readouterr().out

    def test_unsat_exit_one(self, tmp_path, capsys):
        path = tmp_path / "unsat.dprle"
        path.write_text('var v;\nv <= "a";\nv <= "b";')
        assert main(["solve", str(path)]) == 1
        assert "no assignments found" in capsys.readouterr().out

    def test_max_solutions(self, tmp_path, capsys):
        path = tmp_path / "many.dprle"
        path.write_text("var a, b;\na . b <= /x{6}/;")
        assert main(["solve", str(path), "--max-solutions", "2"]) == 0
        assert "2 assignment(s)" in capsys.readouterr().out

    def test_combination_limit_is_d101_exit_two(self, tmp_path, capsys):
        path = tmp_path / "huge.dprle"
        path.write_text(OVER_LIMIT_SOURCE)
        assert main(["solve", str(path)]) == 2
        err = capsys.readouterr().err
        assert "D101: CI-group requires 226981 bridge combinations" in err

    def test_plan_flag_is_gone(self, constraint_file, capsys):
        with pytest.raises(SystemExit) as caught:
            main(["solve", str(constraint_file), "--plan", "full"])
        assert caught.value.code == 2
        assert "--plan" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["solve", str(tmp_path / "nope.dprle")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_syntax_error_reported(self, tmp_path, capsys):
        path = tmp_path / "bad.dprle"
        path.write_text("var v;\nv <=")
        assert main(["solve", str(path)]) == 2
        assert "bad.dprle" in capsys.readouterr().err


def _span_index(trace: dict) -> dict[str, list[dict]]:
    """Flatten a span tree into name -> spans."""
    index: dict[str, list[dict]] = {}

    def walk(node: dict) -> None:
        index.setdefault(node["name"], []).append(node)
        for child in node.get("children", []):
            walk(child)

    walk(trace)
    return index


class TestObservability:
    """End-to-end: ISSUE 1's `--stats-json` acceptance criterion."""

    def test_solve_stats_json(self, constraint_file, tmp_path, capsys):
        out = tmp_path / "stats.json"
        assert main(["solve", str(constraint_file), "--stats-json", str(out)]) == 0
        assert f"wrote stats to {out}" in capsys.readouterr().err

        data = json.loads(out.read_text())
        assert data["schema"] == "dprle.obs/2"
        spans = _span_index(data["trace"])
        # The span tree must attribute the solve across the paper's
        # phases: subset construction, Hopcroft minimization, and the
        # concatenation-intersection core.
        for name in ("solve", "ci", "determinize", "hopcroft"):
            assert spans.get(name), f"span {name!r} missing from trace"
        for name, nodes in spans.items():
            for node in nodes:
                assert node["duration_s"] >= 0
                assert node["states_visited"] >= 0
        assert any(s["states_visited"] > 0 for s in spans["determinize"])

        # ... and a metrics snapshot rides along.
        metrics = data["metrics"]
        assert metrics["counters"]["states_visited"] > 0
        assert metrics["counters"]["op.product"] >= 1
        assert metrics["histograms"]["span_seconds.solve"]["count"] == 1
        assert metrics["histograms"]["automaton_states"]["count"] > 0

    def test_solve_trace_to_stderr(self, constraint_file, capsys):
        assert main(["solve", str(constraint_file), "--trace"]) == 0
        err = capsys.readouterr().err
        assert "solve" in err and "worklist_iteration" in err
        assert "ms" in err

    def test_analyze_stats_json(self, tmp_path, capsys):
        path = tmp_path / "vuln.php"
        path.write_text(VULNERABLE_PHP)
        out = tmp_path / "stats.json"
        assert main(["analyze", str(path), "--stats-json", str(out)]) == 1
        spans = _span_index(json.loads(out.read_text())["trace"])
        assert spans.get("analyze")
        assert spans.get("sink_query")
        assert spans["sink_query"][0]["attrs"]["satisfiable"] is True

    def test_unwritable_stats_path(self, constraint_file, tmp_path, capsys):
        target = tmp_path / "missing-dir" / "stats.json"
        assert main(["solve", str(constraint_file), "--stats-json", str(target)]) == 2
        assert "cannot write" in capsys.readouterr().err

    def test_no_flags_no_stats_output(self, constraint_file, capsys):
        assert main(["solve", str(constraint_file)]) == 0
        assert "wrote stats" not in capsys.readouterr().err


class TestSharedObservabilityFlags:
    """Satellite: check/graph take the same telemetry flags as solve."""

    def test_check_stats_json(self, constraint_file, tmp_path, capsys):
        out = tmp_path / "stats.json"
        assert main(["check", str(constraint_file), "--stats-json", str(out)]) == 0
        assert f"wrote stats to {out}" in capsys.readouterr().err
        data = json.loads(out.read_text())
        assert data["schema"] == "dprle.obs/2"
        assert _span_index(data["trace"]).get("check")

    def test_check_trace_to_stderr(self, constraint_file, capsys):
        assert main(["check", str(constraint_file), "--trace"]) == 0
        assert "check" in capsys.readouterr().err

    def test_graph_stats_json(self, constraint_file, tmp_path, capsys):
        out = tmp_path / "stats.json"
        assert main(["graph", str(constraint_file), "--stats-json", str(out)]) == 0
        assert json.loads(out.read_text())["schema"] == "dprle.obs/2"
        assert _span_index(json.loads(out.read_text())["trace"]).get("graph")
        # The DOT output still lands on stdout.
        assert capsys.readouterr().out.startswith("digraph")

    def test_graph_trace_to_stderr(self, constraint_file, capsys):
        assert main(["graph", str(constraint_file), "--trace"]) == 0
        assert "graph" in capsys.readouterr().err

    def test_solve_journal(self, constraint_file, tmp_path, capsys):
        target = tmp_path / "run.jsonl"
        assert main(["solve", str(constraint_file), "--journal", str(target)]) == 0
        assert f"wrote journal to {target}" in capsys.readouterr().err
        events = [json.loads(line) for line in target.read_text().splitlines()]
        assert events[0]["event"] == "journal_start"
        assert events[-1]["event"] == "journal_end"
        assert any(
            e["event"] == "span_close" and e["name"] == "solve" for e in events
        )

    def test_unwritable_journal_path(self, constraint_file, tmp_path, capsys):
        target = tmp_path / "missing-dir" / "run.jsonl"
        assert main(["solve", str(constraint_file), "--journal", str(target)]) == 2
        assert "cannot write" in capsys.readouterr().err


@pytest.fixture()
def stats_file(constraint_file, tmp_path, capsys) -> pathlib.Path:
    out = tmp_path / "stats.json"
    assert main(["solve", str(constraint_file), "--stats-json", str(out)]) == 0
    capsys.readouterr()  # discard the solve's output
    return out


class TestObsSubcommand:
    def test_report(self, stats_file, capsys):
        assert main(["obs", "report", str(stats_file)]) == 0
        out = capsys.readouterr().out
        assert "schema: dprle.obs/2" in out
        assert "time by span" in out

    def test_report_missing_file(self, tmp_path, capsys):
        assert main(["obs", "report", str(tmp_path / "nope.json")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_diff_identical_passes(self, stats_file, capsys):
        code = main(
            ["obs", "diff", str(stats_file), str(stats_file),
             "--fail-over", "20"]
        )
        assert code == 0
        assert "OK" in capsys.readouterr().out

    def test_diff_flags_injected_regression(self, stats_file, tmp_path, capsys):
        """ISSUE 6 acceptance: a 25% injected wall-time slowdown must
        trip the 20% gate through the real CLI."""
        slowed = json.loads(stats_file.read_text())
        for name, hist in slowed["metrics"]["histograms"].items():
            if name.startswith("span_seconds."):
                hist["sum"] *= 1.25
        slowed_path = tmp_path / "slowed.json"
        slowed_path.write_text(json.dumps(slowed))
        code = main(
            ["obs", "diff", str(stats_file), str(slowed_path),
             "--fail-over", "20"]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "span_seconds" in out

    def test_export_prometheus(self, stats_file, capsys):
        assert main(["obs", "export", str(stats_file), "--format", "prometheus"]) == 0
        out = capsys.readouterr().out
        assert "dprle_states_visited_total" in out

    def test_export_chrome_validates(self, stats_file, tmp_path, capsys):
        from repro.obs import validate_chrome_trace

        target = tmp_path / "trace.json"
        code = main(
            ["obs", "export", str(stats_file), "--format", "chrome",
             "--out", str(target)]
        )
        assert code == 0
        doc = json.loads(target.read_text())
        assert validate_chrome_trace(doc) is True
        names = {e["name"] for e in doc["traceEvents"]}
        assert "solve" in names


class TestAnalyze:
    def test_vulnerable_file(self, tmp_path, capsys):
        path = tmp_path / "vuln.php"
        path.write_text(VULNERABLE_PHP)
        assert main(["analyze", str(path)]) == 1
        out = capsys.readouterr().out
        assert "VULNERABLE" in out
        assert "post_id" in out

    def test_safe_file(self, tmp_path, capsys):
        path = tmp_path / "safe.php"
        path.write_text(SAFE_PHP)
        assert main(["analyze", str(path)]) == 0
        assert "safe" in capsys.readouterr().out

    def test_attack_selection(self, tmp_path, capsys):
        path = tmp_path / "vuln.php"
        path.write_text(VULNERABLE_PHP)
        assert main(["analyze", str(path), "--attack", "tautology"]) == 1
        assert "OR 1=1" in capsys.readouterr().out

    def test_no_sink(self, tmp_path, capsys):
        path = tmp_path / "plain.php"
        path.write_text("<?php $a = 'hello'; echo $a;")
        assert main(["analyze", str(path)]) == 0
        assert "no sink queries" in capsys.readouterr().out

    def test_runs_without_language_cache(self, tmp_path, capsys):
        # Like the library's analyze_source, `dprle analyze` runs at
        # library defaults: no cache, so nothing is ever looked up.
        spec = next(s for s in VULN_SPECS if s.name == "secure")
        path = tmp_path / "secure.php"
        path.write_text(make_vulnerable_source(spec, 0.1))
        out = tmp_path / "stats.json"
        assert main(["analyze", str(path), "--stats-json", str(out)]) == 1
        counters = json.loads(out.read_text())["metrics"]["counters"]
        assert not [key for key in counters if key.startswith("cache.miss.")]
        assert not [key for key in counters if key.startswith("cache.hit.")]


class TestCorpus:
    def test_emits_files(self, tmp_path, capsys):
        out_dir = tmp_path / "corpus"
        assert main(["corpus", "--out", str(out_dir), "--scale", "0.02"]) == 0
        assert (out_dir / "eve" / "edit.php").exists()
        assert len(list((out_dir / "warp").glob("*.php"))) == 44
        stdout = capsys.readouterr().out
        assert "eve 1.0" in stdout
        assert "12 vulnerable" in stdout


class TestGraph:
    def test_dot_to_stdout(self, constraint_file, capsys):
        assert main(["graph", str(constraint_file)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph")
        assert '"v1"' in out

    def test_dot_to_file(self, constraint_file, tmp_path, capsys):
        target = tmp_path / "graph.dot"
        assert main(["graph", str(constraint_file), "--out", str(target)]) == 0
        assert target.read_text().startswith("digraph")

    def test_missing_file(self, tmp_path, capsys):
        assert main(["graph", str(tmp_path / "nope.dprle")]) == 2
