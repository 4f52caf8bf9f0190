"""Synthetic benchmark corpus standing in for the paper's data set.

The paper evaluates on three real PHP applications analysed with
Wassermann & Su's tool (Fig. 11): eve 1.0 (8 files, 905 LOC, 1
vulnerable), utopia 1.3.0 (24 files, 5,438 LOC, 4 vulnerable), and
warp 1.2.1 (44 files, 24,365 LOC, 12 vulnerable) — 17 confirmed
vulnerabilities in total (Fig. 12).  Neither the applications nor that
tool are available here, so this module *generates* three applications
with the same file counts, comparable line counts, and one seeded
injection defect per vulnerable file, engineered so that the per-
vulnerability basic-block counts (|FG|) and constraint counts (|C|)
match the paper's Fig. 12 rows.  Those two quantities are what drive
the solver's work, which is what the evaluation measures.

Everything is deterministic (seeded per file name), so benchmark runs
are reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

__all__ = ["VulnSpec", "CorpusFile", "CorpusApp", "VULN_SPECS", "build_corpus"]


@dataclass(frozen=True)
class VulnSpec:
    """One Fig. 12 row: the vulnerability's name and paper-reported data."""

    app: str
    name: str
    paper_fg: int  # |FG|: basic blocks in the file
    paper_c: int  # |C|: constraints from symbolic execution
    paper_ts: float  # TS: paper's solve time (2.5 GHz Core 2 Duo), seconds
    style: str = "missing-anchor"  # which defect idiom to seed
    heavy: bool = False  # the `secure` outlier: big tracked constants


#: The 17 vulnerabilities of paper Fig. 12, verbatim numbers.
VULN_SPECS: tuple[VulnSpec, ...] = (
    VulnSpec("eve", "edit", 58, 29, 0.32, style="missing-anchor"),
    VulnSpec("utopia", "login", 295, 16, 0.052, style="missing-anchor"),
    VulnSpec("utopia", "profile", 855, 16, 0.006, style="wrong-variable"),
    VulnSpec("utopia", "styles", 597, 156, 0.65, style="blacklist"),
    VulnSpec("utopia", "comm", 994, 102, 0.26, style="missing-anchor"),
    VulnSpec("warp", "cxapp", 620, 10, 0.054, style="missing-anchor"),
    VulnSpec("warp", "ax_help", 610, 4, 0.010, style="wrong-variable"),
    VulnSpec("warp", "usr_reg", 608, 10, 0.53, style="blacklist"),
    VulnSpec("warp", "ax_ed", 630, 10, 0.063, style="missing-anchor"),
    VulnSpec("warp", "cart_shop", 856, 31, 0.17, style="missing-anchor"),
    VulnSpec("warp", "req_redir", 640, 41, 0.43, style="blacklist"),
    VulnSpec("warp", "secure", 648, 81, 577.0, style="missing-anchor", heavy=True),
    VulnSpec("warp", "a_cont", 606, 10, 0.057, style="wrong-variable"),
    VulnSpec("warp", "usr_prf", 740, 66, 0.22, style="missing-anchor"),
    VulnSpec("warp", "xw_mn", 698, 387, 0.50, style="blacklist"),
    VulnSpec("warp", "castvote", 710, 10, 0.052, style="missing-anchor"),
    VulnSpec("warp", "pay_nfo", 628, 10, 0.18, style="missing-anchor"),
)

#: Paper Fig. 11 rows: (files, target LOC, vulnerable files).
_APP_SHAPE = {
    "eve": (8, 905, 1),
    "utopia": (24, 5438, 4),
    "warp": (44, 24365, 12),
}

_APP_VERSION = {"eve": "1.0", "utopia": "1.3.0", "warp": "1.2.1"}


@dataclass
class CorpusFile:
    """One generated PHP file."""

    app: str
    name: str
    source: str
    vulnerable: bool
    spec: Optional[VulnSpec] = None

    @property
    def loc(self) -> int:
        return self.source.count("\n")


@dataclass
class CorpusApp:
    """One generated application (a Fig. 11 row)."""

    name: str
    version: str
    files: list[CorpusFile] = field(default_factory=list)

    @property
    def loc(self) -> int:
        return sum(f.loc for f in self.files)

    @property
    def vulnerable_files(self) -> list[CorpusFile]:
        return [f for f in self.files if f.vulnerable]


# Benign full-match filter patterns for padding guards; every one
# accepts some simple string so the sink path stays satisfiable.
_BENIGN_PATTERNS = (
    r"/^[a-z0-9_]*$/",
    r"/^[A-Za-z ]*$/",
    r"/^[\d]*$/",
    r"/^[a-z]*[0-9]*$/",
    r"/^(yes|no|maybe)?$/",
    r"/^[\w]{0,24}$/",
)

_SQL_TABLES = ("news", "users", "orders", "sessions", "topics", "votes")
_SQL_COLUMNS = ("id", "uid", "name", "state", "slot", "ref")


def _padding_guards(
    rng: random.Random,
    guard_count: int,
    constraint_count: int,
    var_prefix: str,
) -> list[str]:
    """Guard statements: ``guard_count`` ifs contributing exactly
    ``constraint_count`` constraints along the fall-through path.

    A guard with ``k`` conjuncts reads ``if (!(pm1 && ... && pmk)) {
    exit; }``: the sink path takes the false branch, so symbolic
    execution records all ``k`` preg_match constraints.  A guard with
    zero conjuncts tests an unmodelled call and contributes blocks only.
    """
    lines: list[str] = []
    remaining_constraints = constraint_count
    for index in range(guard_count):
        remaining_guards = guard_count - index
        # Spread constraints as evenly as possible over the guards left.
        take = (remaining_constraints + remaining_guards - 1) // remaining_guards
        take = min(take, remaining_constraints)
        if take > 0:
            conjuncts = " && ".join(
                "preg_match('{0}', $_GET['{1}{2}_{3}'])".format(
                    rng.choice(_BENIGN_PATTERNS), var_prefix, index, k
                )
                for k in range(take)
            )
            lines.append(f"if (!({conjuncts})) {{")
            lines.append("    bad_request();")
            lines.append("    exit;")
            lines.append("}")
            remaining_constraints -= take
        else:
            lines.append(f"if (rate_limited('{var_prefix}{index}')) {{")
            lines.append("    exit;")
            lines.append("}")
    return lines


def _vulnerable_core(rng: random.Random, spec: VulnSpec, scale: float = 1.0) -> list[str]:
    """The seeded defect: a filter guard (one constraint on the sink
    path) plus the sink query (one more constraint)."""
    table = rng.choice(_SQL_TABLES)
    column = rng.choice(_SQL_COLUMNS)
    key = f"{spec.name}_id"
    lines = [f"$val = $_POST['{key}'];"]

    if spec.style == "missing-anchor":
        # The paper's Fig. 1 bug: no ^, so any quote-bearing string
        # ending in digits passes.
        lines += [
            r"if (!preg_match('/[\d]+$/', $val)) {",
            "    unp_msgBox('Invalid ID.');",
            "    exit;",
            "}",
            f'$val = "{spec.name[:3]}_$val";',
        ]
    elif spec.style == "blacklist":
        # Keyword blacklist that never mentions the quote character.
        lines += [
            "if (preg_match('/union|select|drop/', $val)) {",
            "    unp_msgBox('Blocked.');",
            "    exit;",
            "}",
        ]
    elif spec.style == "wrong-variable":
        # The filter checks a different input than the one queried.
        lines += [
            f"$check = $_GET['{spec.name}_page'];",
            r"if (!preg_match('/^[\d]+$/', $check)) {",
            "    exit;",
            "}",
        ]
    else:
        raise ValueError(f"unknown vulnerability style {spec.style!r}")

    if spec.heavy:
        # The `secure` outlier.  The paper attributes its 577s row to
        # the size of the manipulated machines ("large string constants
        # are explicitly represented and tracked through state machine
        # transformations").  We reproduce the same cost class with two
        # block-size padding checks of coprime periods on a second
        # input that also reaches the query: their intersection is a
        # machine with period₁ × period₂ states, which then flows
        # through every concatenation, product, and quotient.
        # Consecutive integers are always coprime, so the leaf machine
        # for $pad has period1 * period2 states.  The periods scale with
        # the corpus scale so reduced-scale test runs stay fast.
        period1 = max(5, round(151 * scale))
        period2 = period1 + 1
        lines += [
            "$pad = $_POST['secure_pad'];",
            f"if (!preg_match('/^(.{{{period1}}})*$/', $pad)) {{",
            "    exit;",
            "}",
            f"if (!preg_match('/^(.{{{period2}}})*$/', $pad)) {{",
            "    exit;",
            "}",
        ]
        chunk = " ".join(
            f"{rng.choice(_SQL_COLUMNS)}{i} = {rng.randrange(10, 99)} AND"
            for i in range(40)
        )
        lines.append(f'$clause = "{chunk}";')
        lines.append(
            f'$r = query("SELECT * FROM {table} WHERE $clause {column}=$val "'
            f' . "AND blob=$pad");'
        )
    else:
        lines.append(
            f'$r = query("SELECT * FROM {table} WHERE {column}=$val");'
        )
    return lines


def _safe_tail(rng: random.Random) -> list[str]:
    """Straight-line, constraint-free follow-up code (realistic noise)."""
    lines = []
    for index in range(rng.randrange(2, 5)):
        lines.append(f"$out{index} = render_row($r, {index});")
    lines.append("echo page_footer();")
    return lines


def make_vulnerable_source(spec: VulnSpec, scale: float = 1.0) -> str:
    """Generate the PHP source for one Fig. 12 vulnerability.

    ``scale`` shrinks the |FG| / |C| targets proportionally (used by the
    fast tests; the Fig. 12 reproduction and perfbench run at 1.0).
    """
    fg_target = max(5, round(spec.paper_fg * scale))
    c_target = max(3, round(spec.paper_c * scale))

    # Accounting (see repro.php.cfg): entry block + 2 blocks per guard
    # + 2-6 for the defect core, depending on style; the defect
    # contributes 2 constraints (filter + attack).  The block count is
    # calibrated by parsing what we generated and adjusting the guard
    # count (each guard is worth exactly 2 blocks).
    guard_count = max(0, (fg_target - 3) // 2 - 1)
    # The defect core contributes the filter + attack constraints, and
    # the heavy variant two more (the padding-block checks).
    constraint_count = max(0, c_target - 2 - (2 if spec.heavy else 0))

    source = _render_vulnerable(spec, guard_count, constraint_count, scale)
    for _ in range(3):
        actual = _count_blocks(source)
        delta = fg_target - actual
        if abs(delta) < 2 or guard_count + delta // 2 < 0:
            break
        guard_count += delta // 2
        source = _render_vulnerable(spec, guard_count, constraint_count, scale)
    return source


def _render_vulnerable(
    spec: VulnSpec, guard_count: int, constraint_count: int, scale: float
) -> str:
    rng = random.Random(f"{spec.app}/{spec.name}")
    lines = ["<?php", f"// {spec.app}/{spec.name}.php (generated)"]
    lines += _padding_guards(rng, guard_count, constraint_count, "f")
    lines += _vulnerable_core(rng, spec, scale)
    lines += _safe_tail(rng)
    lines.append("?>")
    return "\n".join(lines) + "\n"


def _count_blocks(source: str) -> int:
    from ..php.cfg import build_cfg
    from ..php.parser import parse_php

    return build_cfg(parse_php(source)).num_blocks


_FILLER_KINDS = ("sanitized", "anchored", "no-sink")


def make_filler_source(app: str, index: int, target_loc: int) -> str:
    """A non-vulnerable file: sanitized sink, correct filter, or no sink."""
    rng = random.Random(f"{app}/filler{index}")
    kind = _FILLER_KINDS[index % len(_FILLER_KINDS)]
    table = rng.choice(_SQL_TABLES)
    column = rng.choice(_SQL_COLUMNS)
    lines = ["<?php", f"// {app}/lib{index}.php (generated, not vulnerable)"]

    # Padding first, sink last, and only early-exit guards for branches:
    # diamond-shaped padding would multiply CFG paths (and therefore
    # sink queries) exponentially instead of linearly.
    if kind == "sanitized":
        sink = [
            f"$raw = $_POST['{app}_q{index}'];",
            "$safe = mysql_real_escape_string($raw);",
            f'$r = query("SELECT {column} FROM {table} WHERE {column}=$safe");',
        ]
    elif kind == "anchored":
        # The fixed version of the paper's bug: ^ present, so the
        # solver proves the vulnerable language empty.
        sink = [
            f"$id = $_GET['{app}_id{index}'];",
            r"if (!preg_match('/^[\d]+$/', $id)) {",
            "    exit;",
            "}",
            f'$r = query("SELECT * FROM {table} WHERE {column}=$id");',
        ]
    else:
        sink = [
            f"$title = $_GET['{app}_t{index}'];",
            "echo page_header($title);",
        ]

    body_line = 0
    while len(lines) + len(sink) + 2 < target_loc:
        body_line += 1
        choice = body_line % 4
        if choice == 0:
            lines.append(f"$buf{body_line} = layout_cell('{app}', {body_line});")
        elif choice == 1:
            lines.append(f"if (maintenance_mode({body_line})) {{")
            lines.append("    exit;")
            lines.append("}")
        elif choice == 2:
            lines.append(f"$tmp{body_line} = strtolower($buf{max(1, body_line - 1)});")
        else:
            lines.append(f"echo widget({body_line});")
    lines += sink
    lines.append("?>")
    return "\n".join(lines) + "\n"


def build_corpus(scale: float = 1.0) -> list[CorpusApp]:
    """Generate the three applications of Fig. 11.

    File counts and vulnerable-file counts match the paper exactly;
    line counts track the paper's within a few percent (filler files
    are padded to close the gap).  ``scale`` shrinks the per-
    vulnerability |FG|/|C| targets for fast test runs.
    """
    apps: list[CorpusApp] = []
    for app_name, (file_count, loc_target, vuln_count) in _APP_SHAPE.items():
        app = CorpusApp(app_name, _APP_VERSION[app_name])
        specs = [s for s in VULN_SPECS if s.app == app_name]
        assert len(specs) == vuln_count
        for spec in specs:
            source = make_vulnerable_source(spec, scale=scale)
            app.files.append(
                CorpusFile(app_name, f"{spec.name}.php", source, True, spec)
            )
        filler_count = file_count - vuln_count
        vuln_loc = sum(f.loc for f in app.files)
        remaining = max(filler_count * 6, loc_target - vuln_loc)
        for index in range(filler_count):
            share = remaining // (filler_count - index)
            source = make_filler_source(app_name, index, share)
            app.files.append(
                CorpusFile(app_name, f"lib{index}.php", source, False)
            )
            remaining -= app.files[-1].loc
        apps.append(app)
    return apps
