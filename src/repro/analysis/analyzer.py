"""End-to-end vulnerability analysis: PHP source → exploit inputs.

This is the paper's prototype (Sec. 4): parse the file, build its flow
graph, symbolically execute paths to the sink, hand each constraint
system to the decision procedure, and — when satisfiable — read
concrete exploit inputs off the satisfying assignment.

Measurements mirror Fig. 12's columns: ``num_blocks`` is ``|FG|``,
``num_constraints`` is ``|C|``, and ``solve_seconds`` is ``TS`` (time
spent in constraint solving only, excluding parsing and symbolic
execution, as in the paper).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

from .. import obs
from ..automata.alphabet import BYTE_ALPHABET, Alphabet
from ..automata.analysis import shortest_string
from ..php.cfg import build_cfg
from ..php.parser import parse_php
from ..php.symexec import DEFAULT_SINKS, SinkQuery, SymbolicExecutor
from ..solver.assignments import render_language
from ..solver.gci import GciLimits
from ..solver.worklist import solve
from .attacks import CONTAINS_QUOTE, AttackSpec

__all__ = ["Finding", "FileReport", "analyze_source"]


@dataclass
class Finding:
    """One (path, sink) analysis result."""

    file_name: str
    sink_line: int
    path: list[int]
    num_constraints: int  # the paper's |C|
    solve_seconds: float  # the paper's TS
    vulnerable: bool
    #: Concrete exploit value per input variable (shortest witnesses).
    exploit_inputs: dict[str, str] = field(default_factory=dict)
    #: The full satisfying language per input, as regex text.
    input_languages: dict[str, str] = field(default_factory=dict)
    #: Pre-solve checker findings for this sink's constraint system
    #: (populated by ``analyze_source(check=True)``; see repro.check).
    diagnostics: list = field(default_factory=list)


@dataclass
class FileReport:
    """Results for one analysed file."""

    file_name: str
    num_blocks: int  # the paper's |FG|
    findings: list[Finding] = field(default_factory=list)

    @property
    def vulnerable(self) -> bool:
        return any(f.vulnerable for f in self.findings)

    @property
    def first_vulnerable(self) -> Optional[Finding]:
        for finding in self.findings:
            if finding.vulnerable:
                return finding
        return None

    @property
    def solve_seconds(self) -> float:
        """Total constraint-solving time across the file's queries."""
        return sum(f.solve_seconds for f in self.findings)


def analyze_source(
    source: str,
    file_name: str = "<script>",
    attack: AttackSpec = CONTAINS_QUOTE,
    alphabet: Alphabet = BYTE_ALPHABET,
    sinks: frozenset[str] = DEFAULT_SINKS,
    first_only: bool = True,
    limits: Optional[GciLimits] = None,
    render_languages: bool = False,
    transducers: bool = False,
    check: bool = False,
) -> FileReport:
    """Analyse one PHP file for injection vulnerabilities.

    With ``first_only`` (the paper's experimental setup: "we attempt to
    find inputs for the first vulnerability in each such file"), the
    analysis stops at the first satisfiable sink query; remaining
    queries are neither solved nor reported.

    ``render_languages`` additionally converts each satisfying language
    to regex text (:func:`~repro.solver.assignments.render_language`,
    the same text ``dprle solve`` prints) — informative but not free,
    so it is off by default.

    ``check`` runs the :mod:`repro.check` pre-solve analyzer over each
    sink's constraint system and attaches its diagnostics to the
    finding (``Finding.diagnostics``) — structural warnings, domain
    unsatisfiability proofs, and combination-space predictions
    alongside the exploit inputs.

    ``transducers`` enables the precise sanitizer models of
    :mod:`repro.analysis.sanitizers`: known string functions become
    finite-state transducers, sanitized values are constrained to the
    transducer's output language, and satisfying assignments are mapped
    back to concrete inputs through transducer pre-images (an empty
    pre-image proves the sanitizer effective on that path).
    """
    with obs.span("analyze", file=file_name) as sp:
        program = parse_php(source, file_name)
        cfg = build_cfg(program)
        executor = SymbolicExecutor(
            attack.machine(alphabet),
            sinks=sinks,
            alphabet=alphabet,
            transducers=transducers,
        )
        report = FileReport(file_name=file_name, num_blocks=cfg.num_blocks)
        sp.set("blocks", cfg.num_blocks)
        solver_limits = limits or GciLimits()

        for query in executor.run_cfg(cfg):
            finding = _solve_query(
                query, file_name, solver_limits, render_languages, check
            )
            report.findings.append(finding)
            if first_only and finding.vulnerable:
                break
        sp.set("findings", len(report.findings))
        sp.set("vulnerable", report.vulnerable)
        return report


def _solve_query(
    query: SinkQuery,
    file_name: str,
    limits: GciLimits,
    render_languages: bool,
    check: bool = False,
) -> Finding:
    problem = query.problem()
    diagnostics: list = []
    if check:
        from ..check import check_problem

        diagnostics = check_problem(problem).sorted_diagnostics()
    # dprle-lint: disable=L040 -- wall-clock reported in the user-facing Finding; the sink_query span is the telemetry copy
    started = time.perf_counter()
    # The paper generates testcases from the first satisfying
    # assignment, so one solution suffices (Sec. 3.5: "we can generate
    # the first solution without having to enumerate the others").
    # With transducer-derived values a satisfying assignment can still
    # fail pre-image refinement, so a few more candidates are kept.
    max_solutions = 4 if query.derived else 1
    with obs.span(
        "sink_query",
        sink_line=query.sink_line,
        num_constraints=query.num_constraints,
    ) as sp:
        solutions = solve(
            problem,
            query=query.inputs,
            max_solutions=max_solutions,
            limits=limits,
        )
        sp.set("satisfiable", solutions.satisfiable)
    # dprle-lint: disable=L040 -- wall-clock reported in the user-facing Finding; the sink_query span is the telemetry copy
    elapsed = time.perf_counter() - started

    finding = Finding(
        file_name=file_name,
        sink_line=query.sink_line,
        path=query.path,
        num_constraints=query.num_constraints,
        solve_seconds=elapsed,
        vulnerable=False,
        diagnostics=diagnostics,
    )
    for assignment in solutions.nonempty():
        refined = _refine_through_transducers(query, assignment)
        if refined is None:
            continue  # no concrete input maps onto this assignment
        finding.vulnerable = True
        for name in query.inputs:
            machine = refined.get(name)
            if machine is None and name in assignment:
                machine = assignment[name]
            if machine is None:
                continue
            witness = shortest_string(machine)
            if witness is not None:
                finding.exploit_inputs[name] = witness
            if render_languages:
                finding.input_languages[name] = render_language(machine)
        break
    return finding


def _refine_through_transducers(query: SinkQuery, assignment):
    """Pull solved languages back through the recorded transducers.

    Derived entries are processed newest-first (an outer call's source
    is an earlier derived variable), intersecting each source's
    language with the pre-image of its result's language.  Returns the
    refined per-variable languages, or None when some pre-image is
    empty — i.e. no attacker input realizes the assignment, so the
    sanitizer actually defends this path.
    """
    from ..automata.fst import preimage
    from ..automata.ops import intersect
    from ..constraints.terms import Var

    languages = {
        name: assignment.machine(name) for name in assignment.variables()
    }
    for result_name in reversed(list(query.derived)):
        fst, source = query.derived[result_name]
        result_language = languages.get(result_name)
        if result_language is None:
            continue  # result never constrained: nothing to refine
        pre = preimage(fst, result_language)
        if pre.is_empty():
            return None
        if isinstance(source, Var):
            current = languages.get(source.name)
            combined = pre if current is None else intersect(current, pre)
            if combined.is_empty():
                return None
            languages[source.name] = combined
        # Non-variable sources (literals / concatenations) are not
        # pushed further; the pre-image emptiness check above already
        # validated feasibility of the result language itself.
    return languages
