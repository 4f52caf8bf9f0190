"""Stable diagnostics for the pre-solve constraint checker.

Every finding of :mod:`repro.check` is a :class:`Diagnostic` with a
stable ``D``-prefixed code, a severity, a message, and — when the
problem came from the DSL front end — a source line.  The codes are
API: tools may match on them, so they are never renumbered (see
``docs/DIAGNOSTICS.md`` for the authoritative table).

Code ranges:

* ``D00x`` — malformed input (syntax, undeclared names, bad regexes).
  These are *errors*: the file cannot be checked or solved at all.
* ``D01x`` — structural findings over a well-formed dependency graph
  (unused variables, duplicate or subsumed constraints, empty
  right-hand sides, unsupported cycles).
* ``D02x`` — results of the sound abstract domains
  (:mod:`repro.check.domains`): nodes proved empty, instances proved
  unsatisfiable without any subset construction.
* ``D1xx`` — combination-space cost: ``D100`` predicts an explosion
  (:mod:`repro.check.cost`); ``D101`` is the solver's typed refusal
  when the space exceeds ``GciLimits.max_combinations``
  (:class:`repro.solver.gci.SolveLimitExceeded`).
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import Any, Optional

__all__ = [
    "CODES",
    "SCHEMA",
    "Severity",
    "Diagnostic",
    "CheckReport",
]

#: Identifier of the machine-readable report format.
SCHEMA = "dprle.check/1"


class Severity(enum.IntEnum):
    """Diagnostic severity, ordered so comparisons mean "at least"."""

    INFO = 10
    WARNING = 20
    ERROR = 30

    def __str__(self) -> str:
        return self.name.lower()

    @classmethod
    def parse(cls, text: str) -> "Severity":
        try:
            return cls[text.upper()]
        except KeyError:
            raise ValueError(f"unknown severity {text!r}") from None


#: The authoritative code table: code -> (default severity, title).
CODES: dict[str, tuple[Severity, str]] = {
    "D001": (Severity.ERROR, "syntax error"),
    "D002": (Severity.ERROR, "undeclared name"),
    "D003": (Severity.ERROR, "variable on a right-hand side"),
    "D004": (Severity.ERROR, "invalid regular expression"),
    "D010": (Severity.WARNING, "variable declared but never used"),
    "D011": (Severity.INFO, "variable has no direct subset constraint"),
    "D012": (Severity.WARNING, "duplicate subset constraint"),
    "D013": (Severity.WARNING, "subsumed subset constraint"),
    "D014": (Severity.INFO, "vacuous self-subset constraint"),
    "D015": (Severity.WARNING, "empty right-hand side"),
    "D016": (Severity.ERROR, "unsupported dependency cycle"),
    "D020": (Severity.WARNING, "variable proved empty"),
    "D021": (Severity.WARNING, "instance proved unsatisfiable"),
    "D100": (Severity.WARNING, "combination-space explosion predicted"),
    "D101": (Severity.ERROR, "combination limit exceeded"),
}


@dataclass(frozen=True)
class Diagnostic:
    """One checker finding, identified by a stable ``D``-code."""

    code: str
    message: str
    severity: Severity
    line: Optional[int] = None
    node: Optional[str] = None
    hint: Optional[str] = None

    @classmethod
    def make(
        cls,
        code: str,
        message: str,
        line: Optional[int] = None,
        node: Optional[str] = None,
        hint: Optional[str] = None,
    ) -> "Diagnostic":
        """Build a diagnostic with the code's registered severity."""
        severity, _title = CODES[code]
        return cls(
            code=code,
            message=message,
            severity=severity,
            line=line,
            node=node,
            hint=hint,
        )

    def render(self, file: Optional[str] = None) -> str:
        """Human-readable one-liner, ``file:line: severity[code]: msg``."""
        prefix = ""
        if file is not None:
            prefix = f"{file}:{self.line}: " if self.line else f"{file}: "
        elif self.line:
            prefix = f"line {self.line}: "
        text = f"{prefix}{self.severity}[{self.code}]: {self.message}"
        if self.hint:
            text += f"\n    hint: {self.hint}"
        return text

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "code": self.code,
            "severity": str(self.severity),
            "message": self.message,
        }
        if self.line is not None:
            out["line"] = self.line
        if self.node is not None:
            out["node"] = self.node
        if self.hint is not None:
            out["hint"] = self.hint
        return out


@dataclass
class CheckReport:
    """Everything one :func:`repro.check.check_problem` run found.

    ``domains`` maps node names to the abstract facts the domains
    proved (length interval, character footprint, emptiness);
    ``groups`` carries one cost estimate per CI-group.  Both are empty
    when the input could not be parsed (the report then holds exactly
    the parse diagnostic).
    """

    diagnostics: list[Diagnostic] = field(default_factory=list)
    domains: dict[str, dict[str, Any]] = field(default_factory=dict)
    groups: list[dict[str, Any]] = field(default_factory=list)

    def add(self, diagnostic: Diagnostic) -> None:
        self.diagnostics.append(diagnostic)

    def extend(self, diagnostics: list[Diagnostic]) -> None:
        self.diagnostics.extend(diagnostics)

    def count(self, severity: Severity) -> int:
        return sum(1 for d in self.diagnostics if d.severity is severity)

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]

    @property
    def warnings(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.WARNING]

    @property
    def proved_unsat(self) -> bool:
        return any(d.code == "D021" for d in self.diagnostics)

    def worst_severity(self) -> Optional[Severity]:
        if not self.diagnostics:
            return None
        return max(d.severity for d in self.diagnostics)

    def at_least(self, severity: Severity) -> bool:
        """True if any diagnostic reaches the given severity."""
        worst = self.worst_severity()
        return worst is not None and worst >= severity

    def sorted_diagnostics(self) -> list[Diagnostic]:
        return sorted(
            self.diagnostics,
            key=lambda d: (d.line or 0, d.code, d.node or "", d.message),
        )

    def render(self, file: Optional[str] = None) -> str:
        """The human-readable report (one line per diagnostic plus a
        summary line)."""
        lines = [d.render(file) for d in self.sorted_diagnostics()]
        summary = (
            f"{self.count(Severity.ERROR)} error(s), "
            f"{self.count(Severity.WARNING)} warning(s), "
            f"{self.count(Severity.INFO)} info(s)"
        )
        lines.append(summary)
        return "\n".join(lines)

    def to_dict(self, file: Optional[str] = None) -> dict[str, Any]:
        """The ``dprle.check/1`` machine-readable form."""
        out: dict[str, Any] = {
            "schema": SCHEMA,
            "summary": {
                "errors": self.count(Severity.ERROR),
                "warnings": self.count(Severity.WARNING),
                "infos": self.count(Severity.INFO),
                "proved_unsat": self.proved_unsat,
            },
            "diagnostics": [d.to_dict() for d in self.sorted_diagnostics()],
            "domains": self.domains,
            "groups": self.groups,
        }
        if file is not None:
            out["file"] = file
        return out

    def to_json(self, file: Optional[str] = None, indent: int = 2) -> str:
        return json.dumps(self.to_dict(file), indent=indent, sort_keys=False)
