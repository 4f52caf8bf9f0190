"""Executable checking of the paper's correctness properties.

The paper ships a Coq proof of three properties of ``concat_intersect``
(Sec. 3.3): *Regular*, *Satisfying*, and *All Solutions*.  We cannot
re-run Coq here, so this module makes the same statements executable —
they are decided exactly with the automata-inclusion oracle and used
throughout the test suite (including the hypothesis property tests).

For full RMA assignments the module additionally decides *Maximal*
(Def. 3.1, condition 2) — exactly when every variable occurs at most
once per constraint, and by sampling otherwise (a variable occurring
twice makes the addable-string set potentially non-regular).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..automata import ops
from ..automata.analysis import enumerate_strings
from ..automata.dfa import complement
from ..automata.equivalence import counterexample, is_subset
from ..automata.nfa import Nfa
from ..constraints.terms import ConcatTerm, Const, Problem, Term, Var
from .assignments import Assignment
from .ci import CiSolution

__all__ = [
    "term_machine",
    "CiReport",
    "check_ci_properties",
    "AssignmentReport",
    "check_assignment",
    "addable_strings",
]


def term_machine(term: Term, assignment: Assignment) -> Nfa:
    """The machine for ``⟦term⟧_A`` — substitute and evaluate."""
    if isinstance(term, Var):
        return assignment.machine(term.name)
    if isinstance(term, Const):
        return term.machine
    if isinstance(term, ConcatTerm):
        machines = [term_machine(part, assignment) for part in term.parts]
        out = machines[0]
        for machine in machines[1:]:
            out = ops.concat(out, machine)
        return out
    raise TypeError(f"unknown term {term!r}")


@dataclass
class CiReport:
    """Outcome of checking the three Sec. 3.3 properties for a CI run."""

    satisfying: bool = True
    all_solutions: bool = True
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.satisfying and self.all_solutions


def check_ci_properties(
    c1: Nfa, c2: Nfa, c3: Nfa, solutions: list[CiSolution]
) -> CiReport:
    """Decide Satisfying and All-Solutions for a ``concat_intersect`` run.

    (*Regular* holds by construction: solutions are NFAs.)

    * Satisfying: every ``(lhs, rhs)`` has ``lhs ⊆ c1``, ``rhs ⊆ c2``
      and ``lhs · rhs ⊆ c3``.
    * All Solutions: every ``w ∈ (c1 · c2) ∩ c3`` lies in some
      solution's ``lhs · rhs`` — checked exactly as the inclusion
      ``(c1·c2) ∩ c3  ⊆  ⋃ᵢ lhsᵢ·rhsᵢ``.
    """
    report = CiReport()
    for index, solution in enumerate(solutions):
        for name, subset, superset in (
            ("lhs ⊆ c1", solution.lhs, c1),
            ("rhs ⊆ c2", solution.rhs, c2),
            ("lhs·rhs ⊆ c3", ops.concat(solution.lhs, solution.rhs), c3),
        ):
            witness = counterexample(subset, superset)
            if witness is not None:
                report.satisfying = False
                report.violations.append(
                    f"solution {index}: {name} fails on {witness!r}"
                )

    everything = ops.intersect(ops.concat(c1, c2), c3)
    if solutions:
        covered = ops.concat(solutions[0].lhs, solutions[0].rhs)
        for solution in solutions[1:]:
            covered = ops.union(covered, ops.concat(solution.lhs, solution.rhs))
    else:
        covered = Nfa.never(c1.alphabet)
    witness = counterexample(everything, covered)
    if witness is not None:
        report.all_solutions = False
        report.violations.append(f"uncovered string {witness!r}")
    return report


@dataclass
class AssignmentReport:
    """Outcome of checking one RMA assignment against its problem."""

    satisfying: bool = True
    #: True / False when decided exactly; None when only sampled.
    maximal: Optional[bool] = True
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.satisfying and self.maximal is not False


def check_assignment(
    problem: Problem,
    assignment: Assignment,
    check_maximality: bool = True,
    sample_limit: int = 25,
) -> AssignmentReport:
    """Decide *Satisfying*, and (where possible exactly) *Maximal*."""
    report = AssignmentReport()
    for constraint in problem.constraints:
        machine = term_machine(constraint.lhs, assignment)
        witness = counterexample(machine, constraint.rhs.machine)
        if witness is not None:
            report.satisfying = False
            report.violations.append(f"{constraint}: violated by {witness!r}")
    if not report.satisfying or not check_maximality:
        report.maximal = None if not check_maximality else report.maximal
        return report

    for var in problem.variables():
        gap, exact = addable_strings(problem, assignment, var.name)
        if exact:
            if not gap.is_empty():
                report.maximal = False
                sample = next(enumerate_strings(gap, limit=1), None)
                report.violations.append(
                    f"{var.name} extendable, e.g. by {sample!r}"
                )
        else:
            # Multi-occurrence variable: sample candidate extensions
            # and test them by direct substitution.
            found = _sampled_extension(
                problem, assignment, var.name, gap, sample_limit
            )
            if found is not None:
                report.maximal = False
                report.violations.append(
                    f"{var.name} extendable, e.g. by {found!r}"
                )
            elif report.maximal is True and not gap.is_empty():
                report.maximal = None  # only sampled; can't certify
    return report


def addable_strings(
    problem: Problem, assignment: Assignment, name: str
) -> tuple[Nfa, bool]:
    """Candidate strings that might extend variable ``name``.

    Returns ``(machine, exact)``.  When the variable occurs at most
    once in each constraint, the machine is *exactly* the set of
    strings ``w`` such that ``A[name] ∪ {w}`` still satisfies every
    constraint (so maximality ⇔ the machine is empty: single-string
    extensions are the worst case because Satisfying is antitone in
    each variable).  With repeated occurrences the machine is an
    over-approximation (the choice combinations where ``w`` fills
    several holes at once are not constrained), and ``exact`` is False.
    """
    alphabet = problem.alphabet
    current = assignment.machine(name)
    admissible = complement(current)  # start from "not already present"
    exact = True
    for constraint in problem.constraints:
        leaf_seq = _flatten(constraint.lhs)
        positions = [
            idx
            for idx, leaf in enumerate(leaf_seq)
            if isinstance(leaf, Var) and leaf.name == name
        ]
        if len(positions) > 1:
            exact = False
        for position in positions:
            left = _context_machine(leaf_seq[:position], assignment, alphabet)
            right = _context_machine(leaf_seq[position + 1 :], assignment, alphabet)
            allowed = ops.left_quotient(
                left, ops.right_quotient(constraint.rhs.machine, right)
            )
            admissible = ops.intersect(admissible, allowed)
    return admissible, exact


def _sampled_extension(
    problem: Problem,
    assignment: Assignment,
    name: str,
    candidates: Nfa,
    sample_limit: int,
) -> Optional[str]:
    """Try concrete candidate strings; return one that truly extends."""
    current = assignment.machine(name)
    for text in enumerate_strings(candidates, limit=sample_limit, max_length=24):
        extended = ops.union(current, Nfa.literal(text, problem.alphabet))
        trial_machines = {
            var: assignment.machine(var) for var in assignment.variables()
        }
        trial_machines[name] = extended
        trial = Assignment(trial_machines)
        if all(
            is_subset(term_machine(c.lhs, trial), c.rhs.machine)
            for c in problem.constraints
        ):
            return text
    return None


def _flatten(term: Term) -> list[Term]:
    if isinstance(term, ConcatTerm):
        out: list[Term] = []
        for part in term.parts:
            out.extend(_flatten(part))
        return out
    return [term]


def _context_machine(parts: list[Term], assignment: Assignment, alphabet) -> Nfa:
    if not parts:
        return Nfa.epsilon_only(alphabet)
    machines = [term_machine(part, assignment) for part in parts]
    out = machines[0]
    for machine in machines[1:]:
        out = ops.concat(out, machine)
    return out
