"""Stable diagnostics for the codebase linter.

Mirrors :mod:`repro.check.diagnostics`: every finding of
:mod:`repro.lint` is a :class:`LintFinding` with a stable ``L``-prefixed
code, a severity, a message, and a source location.  Codes are API —
suppression comments, baselines, and CI match on them — so they are
never renumbered (``docs/LINTING.md`` holds the authoritative table,
including the historical bug each rule encodes).

Code ranges:

* ``L000`` — the file could not be analyzed at all (syntax error).
* ``L00x`` — automata-algebra invariants (kernel purity, cache
  identity): the bug classes PR 6 and PR 2 actually shipped.
* ``L01x`` — process-boundary invariants (fork safety).
* ``L02x`` — telemetry schema (metric/span names vs
  :mod:`repro.obs.schema`).
* ``L03x`` — determinism (unordered iteration, unseeded randomness).
* ``L04x`` — timing discipline (spans are the telemetry boundary).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Optional

from ..check.diagnostics import Severity

__all__ = ["CODES", "SCHEMA", "Severity", "LintFinding", "LintReport"]

#: Identifier of the machine-readable report format.
SCHEMA = "dprle.lint/1"

#: The authoritative code table: code -> (default severity, title).
CODES: dict[str, tuple[Severity, str]] = {
    "L000": (Severity.ERROR, "file cannot be parsed"),
    "L001": (Severity.ERROR, "kernel mutates or aliases parameter-reachable state"),
    "L002": (Severity.ERROR, "cache-keyed op in identity-sensitive code"),
    "L010": (Severity.ERROR, "non-fork-safe payload submitted to executor"),
    "L020": (Severity.ERROR, "metric or span name absent from the schema"),
    "L021": (Severity.WARNING, "metric name not statically checkable"),
    "L030": (Severity.WARNING, "unordered iteration feeds ordered output"),
    "L031": (Severity.WARNING, "unseeded random source"),
    "L040": (Severity.WARNING, "raw clock call outside the telemetry boundary"),
}


@dataclass(frozen=True)
class LintFinding:
    """One linter finding, identified by a stable ``L``-code."""

    code: str
    message: str
    severity: Severity
    file: str
    line: int
    column: int = 0
    hint: Optional[str] = None

    @classmethod
    def make(
        cls,
        code: str,
        message: str,
        file: str,
        line: int,
        column: int = 0,
        hint: Optional[str] = None,
    ) -> "LintFinding":
        """Build a finding with the code's registered severity."""
        severity, _title = CODES[code]
        return cls(
            code=code,
            message=message,
            severity=severity,
            file=file,
            line=line,
            column=column,
            hint=hint,
        )

    def fingerprint(self, source_line: str = "") -> str:
        """A line-number-independent identity for baseline matching.

        Keyed on (file, code, normalized source text) so findings
        survive unrelated edits that shift line numbers; two identical
        violations on identical lines share a fingerprint and are
        matched by multiplicity in :mod:`repro.lint.baseline`.
        """
        basis = f"{self.file}|{self.code}|{source_line.strip()}"
        return hashlib.sha256(basis.encode()).hexdigest()[:16]

    def render(self) -> str:
        """Human-readable one-liner, ``file:line: severity[code]: msg``."""
        text = (
            f"{self.file}:{self.line}: {self.severity}[{self.code}]: "
            f"{self.message}"
        )
        if self.hint:
            text += f"\n    hint: {self.hint}"
        return text

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "code": self.code,
            "severity": str(self.severity),
            "message": self.message,
            "file": self.file,
            "line": self.line,
            "column": self.column,
        }
        if self.hint is not None:
            out["hint"] = self.hint
        return out

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "LintFinding":
        return cls(
            code=data["code"],
            message=data["message"],
            severity=Severity.parse(data["severity"]),
            file=data["file"],
            line=data["line"],
            column=data.get("column", 0),
            hint=data.get("hint"),
        )


@dataclass
class LintReport:
    """Everything one :func:`repro.lint.run_lint` run found.

    ``findings`` are the live diagnostics; ``baselined`` counts findings
    suppressed by the committed baseline; ``stale_baseline`` lists
    baseline entries that no longer match any finding (fixed or moved —
    time to regenerate the baseline); ``suppressed`` counts findings
    silenced by in-source ``# dprle-lint: disable=`` comments.
    """

    findings: list[LintFinding] = field(default_factory=list)
    files_checked: int = 0
    baselined: int = 0
    suppressed: int = 0
    stale_baseline: list[dict[str, Any]] = field(default_factory=list)

    def add(self, finding: LintFinding) -> None:
        self.findings.append(finding)

    def count(self, severity: Severity) -> int:
        return sum(1 for f in self.findings if f.severity is severity)

    @property
    def errors(self) -> list[LintFinding]:
        return [f for f in self.findings if f.severity is Severity.ERROR]

    def worst_severity(self) -> Optional[Severity]:
        if not self.findings:
            return None
        return max(f.severity for f in self.findings)

    def at_least(self, severity: Severity) -> bool:
        """True if any finding reaches the given severity."""
        worst = self.worst_severity()
        return worst is not None and worst >= severity

    def sorted_findings(self) -> list[LintFinding]:
        return sorted(
            self.findings,
            key=lambda f: (f.file, f.line, f.column, f.code, f.message),
        )

    def render(self) -> str:
        """The human-readable report (one line per finding plus a
        summary line)."""
        lines = [f.render() for f in self.sorted_findings()]
        for entry in self.stale_baseline:
            lines.append(
                f"{entry.get('file', '?')}: stale baseline entry "
                f"[{entry.get('code', '?')}] {entry.get('summary', '')} "
                f"(fixed? regenerate with --write-baseline)"
            )
        summary = (
            f"{self.files_checked} file(s): "
            f"{self.count(Severity.ERROR)} error(s), "
            f"{self.count(Severity.WARNING)} warning(s), "
            f"{self.count(Severity.INFO)} info(s)"
        )
        if self.baselined:
            summary += f", {self.baselined} baselined"
        if self.suppressed:
            summary += f", {self.suppressed} suppressed"
        if self.stale_baseline:
            summary += f", {len(self.stale_baseline)} stale baseline entr(y/ies)"
        lines.append(summary)
        return "\n".join(lines)

    def to_dict(self) -> dict[str, Any]:
        """The ``dprle.lint/1`` machine-readable form."""
        return {
            "schema": SCHEMA,
            "summary": {
                "files_checked": self.files_checked,
                "errors": self.count(Severity.ERROR),
                "warnings": self.count(Severity.WARNING),
                "infos": self.count(Severity.INFO),
                "baselined": self.baselined,
                "suppressed": self.suppressed,
                "stale_baseline": len(self.stale_baseline),
            },
            "findings": [f.to_dict() for f in self.sorted_findings()],
            "stale_baseline": list(self.stale_baseline),
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "LintReport":
        """Rebuild a report from its :meth:`to_dict` form (round-trip
        tested; used by tooling that post-processes ``--json``)."""
        if data.get("schema") != SCHEMA:
            raise ValueError(f"not a {SCHEMA} document")
        summary = data.get("summary", {})
        return cls(
            findings=[
                LintFinding.from_dict(f) for f in data.get("findings", [])
            ],
            files_checked=summary.get("files_checked", 0),
            baselined=summary.get("baselined", 0),
            suppressed=summary.get("suppressed", 0),
            stale_baseline=list(data.get("stale_baseline", [])),
        )
