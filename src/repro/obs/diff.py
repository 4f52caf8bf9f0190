"""Compare two stats JSON documents and gate on regressions.

``dprle obs diff A B --fail-over 20`` turns two ``--stats-json``
snapshots (or any two JSON documents with numeric leaves) into a CI
gate: every shared numeric leaf of the two documents is compared, and if any gated metric regressed by
more than the threshold the diff *fails* (non-zero exit from the CLI).

Leaves are classified as **time-like** (wall/CPU seconds — anything
whose path mentions seconds/durations) or **counter-like** (states
visited, cache hits, combinations enumerated, ...).  Which class gates
is selected by ``keys``:

``time``
    Gate on time-like leaves only.  Catching wall-clock regressions —
    the default, and what the injected-slowdown smoke test exercises.
    Noisy across machines; best compared on the same host.
``counters``
    Gate on counter-like leaves only.  These are deterministic for a
    serial solve, so they make a machine-independent CI gate against a
    pinned baseline: an algorithmic regression shows up as more states
    visited or more combinations enumerated long before it shows up
    reliably in seconds.
``all``
    Gate on everything.

Time-like leaves below ``min_time_base`` seconds in the baseline are
reported but never gate — percent change of a microsecond is noise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

__all__ = ["DiffEntry", "DiffResult", "diff_snapshots"]

# Leaves that identify a run or its host, not measurements.
_SKIP_SEGMENTS = frozenset(
    {"schema", "generated_unix", "wall_unix", "python", "repro_version", "pid"}
)

_TIME_HINTS = ("second", "duration", "time", "wall_s", "cpu_s", "eta_s")


def _is_time_path(path: tuple[str, ...]) -> bool:
    for segment in path:
        lowered = segment.lower()
        if lowered.endswith("_s") or any(h in lowered for h in _TIME_HINTS):
            return True
    return False


def _flatten(
    node: Any, prefix: tuple[str, ...], out: dict[tuple[str, ...], float]
) -> None:
    if isinstance(node, bool):
        return
    if isinstance(node, (int, float)):
        out[prefix] = float(node)
        return
    if isinstance(node, dict):
        for key, value in node.items():
            if key in _SKIP_SEGMENTS:
                continue
            if key == "trace" and not prefix:
                # Span trees are compared through their histogram
                # aggregates, not node-by-node (tree shape is not a
                # metric and varies with sampling/caps).
                continue
            _flatten(value, prefix + (str(key),), out)
        return
    if isinstance(node, list):
        for index, value in enumerate(node):
            _flatten(value, prefix + (str(index),), out)


@dataclass
class DiffEntry:
    """One compared numeric leaf."""

    path: str
    base: float
    other: float
    is_time: bool
    gated: bool

    @property
    def delta(self) -> float:
        return self.other - self.base

    @property
    def percent(self) -> Optional[float]:
        """Percent change from base, or None when base is zero."""
        if self.base == 0.0:
            return None
        return 100.0 * (self.other - self.base) / self.base


@dataclass
class DiffResult:
    """Outcome of :func:`diff_snapshots`."""

    entries: list[DiffEntry] = field(default_factory=list)
    only_in_base: list[str] = field(default_factory=list)
    only_in_other: list[str] = field(default_factory=list)
    fail_over: Optional[float] = None

    @property
    def regressions(self) -> list[DiffEntry]:
        """Gated entries whose increase exceeds the threshold."""
        if self.fail_over is None:
            return []
        return [
            e
            for e in self.entries
            if e.gated
            and e.percent is not None
            and e.percent > self.fail_over
        ]

    @property
    def failed(self) -> bool:
        return bool(self.regressions)

    def render(self, *, min_percent: float = 1.0) -> str:
        """Human-readable table of changed leaves (worst first)."""
        lines: list[str] = []
        changed = [
            e
            for e in self.entries
            if e.percent is not None and abs(e.percent) >= min_percent
        ]
        changed.sort(
            key=lambda e: abs(e.percent or 0.0), reverse=True
        )
        regressed = {id(e) for e in self.regressions}
        for entry in changed:
            flag = "FAIL" if id(entry) in regressed else "    "
            assert entry.percent is not None
            lines.append(
                f"{flag} {entry.percent:+9.1f}%  {entry.path:<48} "
                f"{entry.base:g} -> {entry.other:g}"
            )
        if not changed:
            lines.append(f"no leaves changed by >= {min_percent:g}%")
        for path in self.only_in_base:
            lines.append(f"     gone      {path}")
        for path in self.only_in_other:
            lines.append(f"     new       {path}")
        if self.fail_over is not None:
            verdict = (
                f"FAIL: {len(self.regressions)} metric(s) regressed "
                f"beyond {self.fail_over:g}%"
                if self.failed
                else f"OK: no gated metric regressed beyond "
                f"{self.fail_over:g}%"
            )
            lines.append(verdict)
        return "\n".join(lines) + "\n"


def diff_snapshots(
    base: dict[str, Any],
    other: dict[str, Any],
    *,
    fail_over: Optional[float] = None,
    keys: str = "time",
    min_time_base: float = 1e-3,
) -> DiffResult:
    """Compare every shared numeric leaf of two JSON documents.

    ``keys`` selects which leaf class gates the result (see module
    docstring); ``fail_over`` is the regression threshold in percent.
    With ``fail_over=None`` the diff is informational and never fails.
    """
    if keys not in ("time", "counters", "all"):
        raise ValueError(f"keys must be time|counters|all, got {keys!r}")
    flat_base: dict[tuple[str, ...], float] = {}
    flat_other: dict[tuple[str, ...], float] = {}
    _flatten(base, (), flat_base)
    _flatten(other, (), flat_other)

    result = DiffResult(fail_over=fail_over)
    for path in sorted(set(flat_base) | set(flat_other)):
        dotted = ".".join(path)
        if path not in flat_base:
            result.only_in_other.append(dotted)
            continue
        if path not in flat_other:
            result.only_in_base.append(dotted)
            continue
        is_time = _is_time_path(path)
        if keys == "all":
            gated = True
        elif keys == "time":
            gated = is_time
        else:
            gated = not is_time
        if is_time and flat_base[path] < min_time_base:
            gated = False
        result.entries.append(
            DiffEntry(
                path=dotted,
                base=flat_base[path],
                other=flat_other[path],
                is_time=is_time,
                gated=gated,
            )
        )
    return result
