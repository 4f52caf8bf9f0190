"""``repro.lint`` — domain-aware static analysis of the solver codebase.

The type system cannot see the invariants the decision procedure's
soundness rests on: kernel purity (PR 6), cache identity (PR 2),
fork-safe parallel payloads, a closed metric-name universe, and
deterministic iteration.  This package encodes them as AST rules with
stable L-coded diagnostics (mirroring ``repro.check``'s D-codes), a
suppression-comment grammar, and a committed-baseline workflow, and runs
over ``src/`` in CI.  See ``docs/LINTING.md`` for the rule catalog and
the historical bug each rule encodes.

Entry points: :func:`run_lint` (library), ``dprle lint`` (CLI).
Out-of-tree rules plug in via :func:`repro.lint.rules.register_rule`.
"""

from .diagnostics import CODES, SCHEMA, LintFinding, LintReport, Severity
from .engine import FileContext, collect_files, lint_file, run_lint
from .baseline import (
    BASELINE_SCHEMA,
    apply_baseline,
    load_baseline,
    write_baseline,
)
from .rules import Rule, all_codes, available_rules, get_rule, register_rule

__all__ = [
    "CODES",
    "SCHEMA",
    "BASELINE_SCHEMA",
    "Severity",
    "LintFinding",
    "LintReport",
    "FileContext",
    "Rule",
    "run_lint",
    "lint_file",
    "collect_files",
    "apply_baseline",
    "load_baseline",
    "write_baseline",
    "register_rule",
    "available_rules",
    "get_rule",
    "all_codes",
]
