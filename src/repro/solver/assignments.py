"""Satisfying assignments: the solver's output representation.

An :class:`Assignment` maps variable names to NFAs (the paper's
``A = [v1 ↦ x1, ..., vm ↦ xm]``).  A :class:`SolutionSet` holds the
disjunctive assignments for one problem, in the order the worklist
discovered them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Mapping, Optional

from ..automata.analysis import shortest_string
from ..automata.dfa import minimize_nfa
from ..automata.equivalence import equivalent
from ..automata.nfa import Nfa
from ..regex import nfa_to_regex, simplify, unparse

if TYPE_CHECKING:
    from ..obs import Collector

__all__ = ["Assignment", "SolutionSet", "render_language"]


def render_language(machine: Nfa) -> str:
    """The language of ``machine`` rendered as pattern text.

    The one rendering path: ``dprle solve``, the daemon and the
    analyzer's ``Finding.input_languages`` all print through it.  The
    machine is minimized (determinize + Hopcroft) before state
    elimination: language-preserving, and both the elimination and the
    rendered pattern are much smaller on the raw sliced machines the
    solver produces.
    """
    if not machine.is_empty():
        machine = minimize_nfa(machine)
    return unparse(
        simplify(nfa_to_regex(machine)), universe=machine.alphabet.universe
    )


class Assignment:
    """One satisfying assignment of regular languages to variables."""

    def __init__(self, machines: Mapping[str, Nfa]):
        self._machines = dict(machines)

    def variables(self) -> list[str]:
        return sorted(self._machines)

    def machine(self, name: str) -> Nfa:
        """The NFA assigned to variable ``name``."""
        return self._machines[name]

    def __getitem__(self, name: str) -> Nfa:
        return self._machines[name]

    def __contains__(self, name: str) -> bool:
        return name in self._machines

    def items(self) -> Iterator[tuple[str, Nfa]]:
        return iter(sorted(self._machines.items()))

    def is_empty(self, name: str) -> bool:
        """True if the variable was assigned the empty language."""
        return self._machines[name].is_empty()

    def all_nonempty(self, names: Optional[list[str]] = None) -> bool:
        """True if every named variable has a non-empty language.

        Names absent from the assignment are unconstrained (implicitly
        ``Σ*``) and therefore count as non-empty; this matters for
        analyses that query input variables which only reach the
        constraint system through derived values.
        """
        targets = names if names is not None else list(self._machines)
        return all(
            not self.is_empty(name) for name in targets if name in self._machines
        )

    def witness(self, name: str) -> Optional[str]:
        """A shortest concrete string for the variable, or None if empty.

        This is the paper's testcase-generation step: turning the
        satisfying *language* into an actual exploit input.
        """
        return shortest_string(self._machines[name])

    def witnesses(self, name: str, limit: int = 10, max_length: int = 64):
        """Up to ``limit`` concrete strings in shortlex order — several
        distinct testcases from one satisfying language."""
        from ..automata.analysis import enumerate_strings

        return list(
            enumerate_strings(
                self._machines[name], limit=limit, max_length=max_length
            )
        )

    def regex_str(self, name: str) -> str:
        """The assigned language rendered as pattern text (see
        :func:`render_language`)."""
        return render_language(self._machines[name])

    def same_languages(self, other: "Assignment") -> bool:
        """Language-level equality against another assignment."""
        if set(self._machines) != set(other._machines):
            return False
        return all(
            equivalent(machine, other._machines[name])
            for name, machine in self._machines.items()
        )

    def describe(self) -> str:
        return ", ".join(
            f"{name} ↦ /{self.regex_str(name)}/" for name, _ in self.items()
        )

    def __repr__(self) -> str:
        return f"<Assignment {', '.join(self.variables())}>"


class SolutionSet:
    """The disjunctive satisfying assignments for one RMA instance.

    ``stats`` carries the observability :class:`~repro.obs.Collector`
    (trace tree + metrics) when the solve was run with
    ``collect_stats=True``; None otherwise.
    """

    def __init__(self, assignments: list[Assignment], variables: list[str]):
        self.assignments = assignments
        self.variables = list(variables)
        self.stats: Optional["Collector"] = None

    @property
    def satisfiable(self) -> bool:
        """True iff some assignment gives every variable a non-empty language.

        This is the paper's success criterion (Fig. 7 line 16): an
        assignment that maps a queried variable to ∅ is reported as
        "no assignments found".
        """
        return any(a.all_nonempty(self.variables) for a in self.assignments)

    @property
    def first(self) -> Assignment:
        for assignment in self.assignments:
            if assignment.all_nonempty(self.variables):
                return assignment
        raise ValueError("no satisfying assignment (unsatisfiable instance)")

    def __iter__(self) -> Iterator[Assignment]:
        return iter(self.assignments)

    def __len__(self) -> int:
        return len(self.assignments)

    def __bool__(self) -> bool:
        return self.satisfiable

    def nonempty(self) -> list[Assignment]:
        """Assignments where every queried variable is non-empty."""
        return [a for a in self.assignments if a.all_nonempty(self.variables)]

    def describe(self) -> str:
        if not self.assignments:
            return "no assignments found"
        return "\n".join(
            f"A{i + 1}: {a.describe()}" for i, a in enumerate(self.assignments)
        )
