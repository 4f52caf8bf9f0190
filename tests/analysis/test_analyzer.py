"""Unit tests for the end-to-end vulnerability analyzer."""

from repro.analysis import (
    COMMENT_TRUNCATION,
    CONTAINS_QUOTE,
    PIGGYBACK,
    TAUTOLOGY,
    analyze_source,
)
from repro.automata.equivalence import equivalent
from repro.php.cfg import build_cfg
from repro.php.parser import parse_php
from repro.php.symexec import SymbolicExecutor
from repro.regex import parse_exact, to_nfa
from repro.solver import solve

FIG1 = r"""<?php
$newsid = $_POST['posted_newsid'];
if (!preg_match('/[\d]+$/', $newsid)) {
    unp_msgBox('Invalid article news ID.');
    exit;
}
$newsid = "nid_$newsid";
$idnews = query("SELECT * FROM news WHERE newsid=$newsid");
"""


class TestFigure1:
    def test_detects_vulnerability(self):
        report = analyze_source(FIG1, "news.php")
        assert report.vulnerable
        assert report.num_blocks == 3

    def test_exploit_passes_filter_and_attacks(self):
        report = analyze_source(FIG1, "news.php")
        finding = report.first_vulnerable
        exploit = finding.exploit_inputs["post_posted_newsid"]
        assert "'" in exploit
        assert exploit[-1].isdigit()

    def test_fixed_version_safe(self):
        fixed = FIG1.replace(r"/[\d]+$/", r"/^[\d]+$/")
        report = analyze_source(fixed, "news_fixed.php")
        assert not report.vulnerable
        assert report.findings  # the sink was analysed, and proven safe

    def test_measurements_recorded(self):
        report = analyze_source(FIG1, "news.php")
        finding = report.findings[0]
        assert finding.num_constraints == 2
        assert finding.solve_seconds > 0
        assert finding.sink_line == 8

    def test_render_languages_optional(self):
        plain = analyze_source(FIG1, "n.php")
        assert not plain.findings[0].input_languages
        rendered = analyze_source(FIG1, "n.php", render_languages=True)
        assert rendered.findings[0].input_languages

    def test_rendered_language_matches_solver_rendering(self):
        # The analyzer renders through the same (minimizing) path as
        # Assignment.regex_str, so both print the same text for the
        # same solve.
        report = analyze_source(FIG1, "n.php", render_languages=True)
        text = report.first_vulnerable.input_languages["post_posted_newsid"]
        cfg = build_cfg(parse_php(FIG1, "n.php"))
        executor = SymbolicExecutor(CONTAINS_QUOTE.machine())
        query = executor.run_cfg(cfg)[0]
        solved = solve(query.problem(), query=query.inputs, max_solutions=1).first
        assert text == solved.regex_str("post_posted_newsid")
        machine = solved.machine("post_posted_newsid")
        assert equivalent(to_nfa(parse_exact(text)), machine)


class TestAttackSpecs:
    def test_tautology_exploit(self):
        report = analyze_source(FIG1, "news.php", attack=TAUTOLOGY)
        exploit = report.first_vulnerable.exploit_inputs["post_posted_newsid"]
        assert "OR 1=1" in exploit

    def test_piggyback_exploit(self):
        report = analyze_source(FIG1, "news.php", attack=PIGGYBACK)
        exploit = report.first_vulnerable.exploit_inputs["post_posted_newsid"]
        assert "'" in exploit and ";" in exploit

    def test_comment_truncation_exploit(self):
        report = analyze_source(FIG1, "news.php", attack=COMMENT_TRUNCATION)
        exploit = report.first_vulnerable.exploit_inputs["post_posted_newsid"]
        assert "--" in exploit

    def test_specs_have_machines(self):
        for spec in (CONTAINS_QUOTE, TAUTOLOGY, PIGGYBACK, COMMENT_TRUNCATION):
            machine = spec.machine()
            assert not machine.is_empty()
            assert machine.accepts("x' OR 1=1 ;--x") or spec is not CONTAINS_QUOTE


class TestFirstOnly:
    MULTI = r"""<?php
$mode = $_GET['mode'];
if ($mode == 'a') {
    query($_POST['qa']);
} else {
    query($_POST['qb']);
}
"""

    def test_first_only_stops_at_first_hit(self):
        report = analyze_source(self.MULTI, "multi.php", first_only=True)
        assert sum(1 for f in report.findings if f.vulnerable) == 1

    def test_all_sinks_analysed_when_disabled(self):
        report = analyze_source(self.MULTI, "multi.php", first_only=False)
        assert sum(1 for f in report.findings if f.vulnerable) == 2

    def test_file_report_aggregates(self):
        report = analyze_source(self.MULTI, "multi.php", first_only=False)
        assert report.solve_seconds >= sum(
            f.solve_seconds for f in report.findings[:1]
        )
