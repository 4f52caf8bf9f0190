"""Tests for bounded while-loop unrolling."""

from repro.analysis import CONTAINS_QUOTE, analyze_source
from repro.php import build_cfg, parse_php
from repro.php.ast import While
from repro.php.symexec import SymbolicExecutor
from repro.solver import solve
from repro.solver.verify import check_assignment

LOOP = """<?php
$q = 'SELECT ';
$more = $_GET['more'];
while ($more == 'yes') {
    $q = $q . $_POST['frag'];
    $more = $_GET['again'];
}
query($q);
"""


class TestParsing:
    def test_while_node(self):
        program = parse_php("while ($x == 'a') { $y = '1'; }")
        node = program.body.statements[0]
        assert isinstance(node, While)

    def test_single_statement_body(self):
        program = parse_php("while ($x == 'a') $y = '1';")
        assert isinstance(program.body.statements[0], While)


class TestUnrolling:
    def test_default_depth_two(self):
        cfg = build_cfg(parse_php(LOOP))
        # Unrolled to nested ifs: one guard block pair per iteration.
        assert len(list(cfg.paths())) == 3  # 0, 1, or 2 iterations

    def test_custom_depth(self):
        cfg = build_cfg(parse_php(LOOP), loop_unroll=4)
        assert len(list(cfg.paths())) == 5

    def test_zero_depth_skips_loop(self):
        cfg = build_cfg(parse_php(LOOP), loop_unroll=0)
        assert len(list(cfg.paths())) == 1

    def test_acyclic(self):
        cfg = build_cfg(parse_php(LOOP))
        for path in cfg.paths():
            assert len(path) == len(set(path))


class TestAnalysis:
    def test_loop_body_vulnerability_found(self):
        report = analyze_source(LOOP, "loop.php")
        assert report.vulnerable
        exploit = report.first_vulnerable.exploit_inputs
        # The loop must be entered and the fragment must carry the quote.
        assert exploit["get_more"] == "yes"
        assert "'" in exploit["post_frag"]

    def test_repeated_variable_assignment_is_sound(self):
        """Two loop iterations concatenate the same input twice: the
        returned assignment must satisfy the (non-linear) constraint and
        admit no (sampled) extension."""
        executor = SymbolicExecutor(CONTAINS_QUOTE.machine())
        for query in executor.run(parse_php(LOOP)):
            solutions = solve(query.problem(), query=query.inputs, max_solutions=1)
            if not solutions.satisfiable:
                continue
            report = check_assignment(query.problem(), solutions.first)
            assert report.ok, report.violations

    def test_guard_constraints_per_iteration(self):
        executor = SymbolicExecutor(CONTAINS_QUOTE.machine())
        queries = executor.run(parse_php(LOOP))
        # Paths: skip loop; one iteration; two iterations.
        counts = sorted(q.num_constraints for q in queries)
        assert counts == sorted(counts) and len(counts) == 3
        assert counts[0] < counts[-1]
