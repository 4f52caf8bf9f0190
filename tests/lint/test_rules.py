"""Fixture-driven rule tests: every rule proves its true positives
against pre-fix reconstructions of real repo code, and stays quiet on
the post-fix shapes."""

import pathlib

import pytest

from repro.lint import available_rules, get_rule, lint_file, run_lint

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def findings_for(name, select=None):
    findings, _suppressed = lint_file(FIXTURES / name, select=select)
    return findings


def lines_with(findings, code):
    return sorted(f.line for f in findings if f.code == code)


def source_line(name, lineno):
    return (FIXTURES / name).read_text().splitlines()[lineno - 1]


class TestKernelPurity:
    """L001 must flag the PR 6 shared-move-list pattern."""

    def test_prefix_complemented_dict_copy_flagged(self):
        findings = findings_for("purity_prefix_dfa.py", select=["L001"])
        flagged = {source_line("purity_prefix_dfa.py", line).strip()
                   for line in lines_with(findings, "L001")}
        # The literal pre-fix PR 6 body: dict(self.transitions).
        assert any("dict(self.transitions)" in line for line in flagged)

    def test_comprehension_alias_flagged(self):
        findings = findings_for("purity_prefix_dfa.py", select=["L001"])
        assert any(
            "re-uses 'moves' unwrapped" in f.message for f in findings
        )

    def test_shared_finals_flagged(self):
        findings = findings_for("purity_prefix_dfa.py", select=["L001"])
        assert any(
            "self.finals passed into Dfa(...)" in f.message for f in findings
        )

    def test_mutations_flagged(self):
        findings = findings_for("purity_prefix_dfa.py", select=["L001"])
        messages = " | ".join(f.message for f in findings)
        assert "stores through parameter 'self'" in messages
        assert ".pop() on state reachable from parameter 'self'" in messages

    def test_clean_copy_not_flagged(self):
        findings = findings_for("purity_prefix_dfa.py", select=["L001"])
        clean_start = (FIXTURES / "purity_prefix_dfa.py").read_text().splitlines().index(
            "    def clean_copy(self) -> \"Dfa\":"
        ) + 1
        assert all(f.line < clean_start for f in findings)

    def test_current_dfa_and_nfa_are_clean(self):
        for module in ("dfa.py", "nfa.py", "ops.py"):
            report = run_lint(
                [f"src/repro/automata/{module}"], select=["L001"]
            )
            assert report.findings == [], report.render()

    def test_severity_is_error(self):
        findings = findings_for("purity_prefix_dfa.py", select=["L001"])
        assert findings and all(str(f.severity) == "error" for f in findings)


class TestCacheIdentity:
    """L002 must flag the stage-1 cache-substitution pattern."""

    def test_prefix_stage1_intersect_flagged(self):
        findings = findings_for("cache_prefix_stage1.py", select=["L002"])
        assert any("'intersect'" in f.message for f in findings)
        assert any("'minimize'" in f.message for f in findings)
        assert all(
            "prepare_leaves_prefix" in f.message for f in findings
        )

    def test_fixed_stage1_product_clean(self):
        findings = findings_for("cache_prefix_stage1.py", select=["L002"])
        # The post-fix function uses the uncached ops.product: nothing flagged.
        assert not any("prepare_leaves_fixed" in f.message for f in findings)

    def test_marker_required(self, tmp_path):
        # The same cached call outside a marked region is not L002's
        # business — cache substitution is sound there.
        unmarked = tmp_path / "unmarked.py"
        unmarked.write_text(
            "def build(ops, a, b):\n    return ops.intersect(a, b)\n"
        )
        findings, _ = lint_file(unmarked, select=["L002"])
        assert findings == []

    def test_gci_stage1_is_marked_and_clean(self):
        report = run_lint(["src/repro/solver/gci.py"], select=["L002"])
        assert report.findings == [], report.render()


class TestForkSafety:
    def test_lambda_bound_method_closure_flagged(self):
        findings = findings_for("fork_payloads.py", select=["L010"])
        messages = " | ".join(f.message for f in findings)
        assert "lambda submitted" in messages
        assert "bound method 'solve_chunk'" in messages
        assert "nested function 'chunk'" in messages

    def test_module_level_payload_clean(self):
        findings = findings_for("fork_payloads.py", select=["L010"])
        assert not any("run_chunk" in f.message for f in findings)

    def test_map_on_executor_flagged_but_not_on_widget(self):
        findings = findings_for("fork_payloads.py", select=["L010"])
        map_findings = [f for f in findings if ".map()" in f.message]
        assert len(map_findings) == 1

    def test_repro_parallel_is_clean(self):
        report = run_lint(["src/repro/parallel.py"], select=["L010"])
        assert report.findings == [], report.render()


class TestMetricSchema:
    def test_typoed_literals_flagged(self):
        findings = findings_for("metric_names.py", select=["L020"])
        messages = " | ".join(f.message for f in findings)
        assert "gci.combination_total" in messages
        assert "cache.entires" in messages
        assert "solve_chunk" in messages

    def test_registered_names_clean(self):
        findings = findings_for("metric_names.py", select=["L020", "L021"])
        flagged_lines = {f.line for f in findings}
        text = (FIXTURES / "metric_names.py").read_text().splitlines()
        registered = [
            i + 1 for i, line in enumerate(text) if "states_visited" in line
        ]
        assert not (set(registered) & flagged_lines)

    def test_fstring_pattern_coverage(self):
        findings = findings_for("metric_names.py", select=["L020"])
        messages = " | ".join(f.message for f in findings)
        assert "shard.*.drops" in messages  # uncovered pattern flagged
        assert "cache.hit.*" not in messages  # covered pattern clean

    def test_mixed_segment_and_variable_are_L021(self):
        findings = findings_for("metric_names.py", select=["L021"])
        messages = " | ".join(f.message for f in findings)
        assert "mixes literal text" in messages
        assert "not a literal" in messages

    def test_all_current_emission_sites_are_schema_clean(self):
        report = run_lint(["src/repro/"], select=["L020"])
        assert report.findings == [], report.render()


class TestDeterminism:
    def test_true_positives(self):
        findings = findings_for("determinism_cases.py", select=["L030"])
        flagged = {source_line("determinism_cases.py", line).strip()
                   for line in lines_with(findings, "L030")}
        assert any("for state in states:  # flagged" in line for line in flagged)
        assert any("[s for s in starts]" in line for line in flagged)
        assert any("for state in nfa.starts:" in line for line in flagged)
        assert any("list(states)" in line for line in flagged)
        assert any("next(iter(states))" in line for line in flagged)
        assert any("os.listdir(path)" in line and "sorted" not in line
                   for line in flagged)

    def test_negatives(self):
        findings = findings_for("determinism_cases.py", select=["L030"])
        flagged = {source_line("determinism_cases.py", line).strip()
                   for line in lines_with(findings, "L030")}
        for clean in (
            "for state in states:  # clean",
            "for state in sorted(states):",
            "sum(s for s in starts)",
            "sorted(os.listdir(path))",
        ):
            assert not any(clean in line for line in flagged), clean

    def test_random_findings(self):
        findings = findings_for("determinism_cases.py", select=["L031"])
        messages = " | ".join(f.message for f in findings)
        assert "random.random()" in messages
        assert "without a seed" in messages
        flagged = {source_line("determinism_cases.py", line).strip()
                   for line in lines_with(findings, "L031")}
        assert not any("random.Random(0)" in line for line in flagged)


class TestTimingDiscipline:
    def test_raw_clocks_flagged(self):
        findings = findings_for("timing_clock.py", select=["L040"])
        assert len(findings) == 4  # two perf_counter + two time.time
        assert all("raw time." in f.message for f in findings)

    def test_suppression_honoured(self):
        findings, suppressed = lint_file(
            FIXTURES / "timing_clock.py", select=["L040"]
        )
        assert suppressed == 1

    def test_obs_module_exempt(self):
        report = run_lint(["src/repro/obs/"], select=["L040"])
        assert report.findings == [], report.render()


class TestRegistry:
    def test_all_six_rules_registered(self):
        names = available_rules()
        assert {
            "kernel-purity",
            "cache-identity",
            "fork-safety",
            "metric-schema",
            "determinism",
            "timing-discipline",
        } <= set(names)

    def test_unknown_rule_raises_with_catalog(self):
        with pytest.raises(KeyError, match="kernel-purity"):
            get_rule("no-such-rule")

    def test_plugin_registration_shape(self):
        # Register, resolve by name, last registration wins.
        from repro.lint import Rule, register_rule

        def check(_ctx):
            return []

        rule = Rule(
            name="ext-policy", codes=("L099",), description="x", check=check
        )
        register_rule(rule)
        try:
            assert get_rule("ext-policy") is rule
            assert "ext-policy" in available_rules()
        finally:
            from repro.lint.rules import _REGISTRY

            _REGISTRY.pop("ext-policy", None)


class TestWholeTreeInvariant:
    def test_src_is_lint_clean(self):
        """The shipped tree has zero live findings — every genuine
        finding was fixed or suppressed with a rationale (ISSUE 9)."""
        report = run_lint(["src/repro/"])
        assert report.findings == [], report.render()
        assert report.suppressed >= 20
