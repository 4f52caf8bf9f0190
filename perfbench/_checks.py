"""Independent answer checks against the hand-written ``expected/`` files.

Answers arrive as plain documents -- the daemon's JSON result, or the
same shape built from an in-process result -- and are checked with
Python's ``re`` against constraints written out by hand.  Nothing here
calls ``repro``: a solver bug that also broke ``repro.solver.verify``
would still be caught.  Each check returns a list of problems; an empty
list means the answer is correct.
"""

from __future__ import annotations

import json
import pathlib
import re
from typing import Any, Mapping, Optional

EXPECTED_DIR = pathlib.Path(__file__).parent / "expected"

_PERIOD = re.compile(r"preg_match\('/\^\(\.\{(\d+)\}\)\*\$/', \$pad\)")


def load(name: str) -> dict[str, Any]:
    return json.loads((EXPECTED_DIR / name).read_text())


class Tally:
    """Operations attempted and failed over a run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {problem}" for problem in problems)


def _check_text(
    label: str, value: Optional[str], rule: Mapping[str, Any], source: str
) -> list[str]:
    if value is None:
        return [f"no exploit input {label}"]
    problems = []
    if "contains" in rule and rule["contains"] not in value:
        problems.append(f"{label}={value!r} lacks {rule['contains']!r}")
    if "search" in rule and not re.search(rule["search"], value, re.DOTALL):
        problems.append(f"{label}={value!r} misses /{rule['search']}/")
    if "not_search" in rule and re.search(rule["not_search"], value, re.DOTALL):
        problems.append(f"{label}={value!r} hits /{rule['not_search']}/")
    if "fullmatch" in rule and not re.fullmatch(rule["fullmatch"], value, re.DOTALL):
        problems.append(f"{label}={value!r} is not /{rule['fullmatch']}/")
    if rule.get("source_periods"):
        periods = _PERIOD.findall(source)
        if not periods:
            problems.append("source has no padding filters")
        for period in periods:
            if not re.fullmatch(f"(.{{{period}}})*", value, re.DOTALL):
                problems.append(f"{label} of length {len(value)} fails /^(.{{{period}}})*$/")
    return problems


def check_exploit(
    name: str, style: Mapping[str, Any], source: str, doc: Mapping[str, Any]
) -> list[str]:
    """The first vulnerable finding's inputs follow the defect ``style``."""
    if not doc.get("vulnerable"):
        return ["not reported vulnerable"]
    finding = next(f for f in doc["findings"] if f["vulnerable"])
    inputs = finding["exploit_inputs"]
    names = {
        "id": f"post_{name}_id",
        "page": f"get_{name}_page",
        "pad": "post_secure_pad",
    }
    problems = []
    for role, rule in style.items():
        problems += _check_text(names[role], inputs.get(names[role]), rule, source)
    return problems


def check_fig12(
    key: str, expected: Mapping[str, Any], source: str, doc: Mapping[str, Any]
) -> list[str]:
    """A Fig. 12 file: vulnerable, |FG| and |C| near the paper's, and
    exploit inputs of the file's defect style."""
    entry = expected["files"][key]
    name = key.split("/", 1)[1]
    problems = check_exploit(name, expected["styles"][entry["style"]], source, doc)
    if problems:
        return problems
    tolerance = expected["tolerance"]
    finding = next(f for f in doc["findings"] if f["vulnerable"])
    if abs(doc["num_blocks"] - entry["fg"]) > tolerance:
        problems.append(f"|FG|={doc['num_blocks']}, paper {entry['fg']}")
    if abs(finding["num_constraints"] - entry["c"]) > tolerance:
        problems.append(f"|C|={finding['num_constraints']}, paper {entry['c']}")
    return problems


def check_solutions(
    entry: Mapping[str, Any], doc: Mapping[str, Any], **fill: int
) -> list[str]:
    """Satisfiability, solution count, and every witness against every
    constraint (``fill`` completes templated patterns)."""
    problems = []
    if doc["satisfiable"] != entry["satisfiable"]:
        problems.append(f"satisfiable={doc['satisfiable']}")
    if doc["count"] != entry["solutions"]:
        problems.append(f"{doc['count']} solutions, expected {entry['solutions']}")
    for index, assignment in enumerate(doc["assignments"], start=1):
        for constraint in entry["constraints"]:
            parts = []
            for part in constraint["lhs"]:
                if part.startswith("$"):
                    parts.append(assignment[part[1:]]["witness"])
                else:
                    parts.append(part)
            text = "".join(parts)
            full = "full" in constraint
            pattern = constraint["full" if full else "search"]
            if fill:
                pattern = pattern.format(**fill)
            match = re.fullmatch if full else re.search
            ok = match(pattern, text, re.DOTALL) is not None
            if not ok:
                problems.append(
                    f"solution {index}: {'.'.join(constraint['lhs'])} = "
                    f"{text!r} violates /{pattern}/"
                )
    return problems
