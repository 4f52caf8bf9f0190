"""High-level solver facade: the public entry point most users want.

>>> from repro.solver.api import RegLangSolver
>>> s = RegLangSolver()
>>> v1 = s.var("v1")
>>> s.require_match(v1, r"/[\\d]+$/")          # preg_match filter
>>> s.require(s.literal("nid_").concat(v1), s.pattern("contains_quote", ".*'.*"))
>>> result = s.solve()
>>> result.satisfiable
True
"""

from __future__ import annotations

from typing import Optional

from .. import obs
from ..automata.alphabet import BYTE_ALPHABET, Alphabet
from ..automata.nfa import Nfa
from ..cache import CacheLimits, LangCache
from ..constraints.dsl import parse_problem
from ..constraints.terms import Const, Problem, Subset, Term, Var
from ..regex import parse as parse_match_regex
from ..regex import to_nfa
from .assignments import SolutionSet
from .gci import GciLimits
from .worklist import solve as solve_problem

__all__ = ["RegLangSolver"]


class RegLangSolver:
    """An incremental builder for RMA instances, plus solving.

    The low-level pieces (:class:`~repro.constraints.terms.Problem`,
    :func:`~repro.solver.worklist.solve`) stay available for users who
    want to manage terms themselves; this class only handles naming and
    bookkeeping.
    """

    def __init__(
        self,
        alphabet: Alphabet = BYTE_ALPHABET,
        cache: Optional[CacheLimits] = None,
    ):
        self.alphabet = alphabet
        self._constraints: list[Subset] = []
        self._vars: dict[str, Var] = {}
        self._consts: dict[str, Const] = {}
        self._anon_counter = 0
        self._scopes: list[int] = []
        # One language cache for the solver's lifetime: incremental
        # push/pop solves re-hit products and inclusion verdicts
        # computed by earlier solves.
        self.cache = LangCache(cache if cache is not None else CacheLimits())

    # -- term construction ------------------------------------------------

    def var(self, name: str) -> Var:
        """Declare (or fetch) a language variable."""
        if name in self._consts:
            raise ValueError(f"{name!r} is already a constant")
        return self._vars.setdefault(name, Var(name))

    def pattern(self, name: str, pattern: str) -> Const:
        """A named constant from a language-level regex (no anchors)."""
        return self._intern(Const.from_regex(name, pattern, self.alphabet))

    def literal(self, text: str, name: Optional[str] = None) -> Const:
        """A constant holding exactly ``text``."""
        return self._intern(
            Const.from_literal(name or self._fresh_name(), text, self.alphabet)
        )

    def match_pattern(self, name: str, pattern: str) -> Const:
        """A constant with ``preg_match`` semantics (Σ*-padded sides)."""
        body = pattern[1:-1] if pattern.startswith("/") else pattern
        spec = parse_match_regex(body, self.alphabet)
        machine = to_nfa(spec.search(), self.alphabet)
        return self._intern(Const(name, machine, source=f"m/{body}/"))

    def machine_const(self, name: str, machine: Nfa) -> Const:
        """A constant from an explicit NFA."""
        return self._intern(Const(name, machine))

    def _intern(self, const: Const) -> Const:
        if const.name in self._vars:
            raise ValueError(f"{const.name!r} is already a variable")
        existing = self._consts.get(const.name)
        if existing is not None:
            return existing
        self._consts[const.name] = const
        return const

    def _fresh_name(self) -> str:
        self._anon_counter += 1
        return f"%c{self._anon_counter}"

    # -- constraints --------------------------------------------------------

    def require(self, lhs: Term, rhs: Const) -> None:
        """Add the constraint ``lhs ⊆ rhs``."""
        self._constraints.append(Subset(lhs, rhs))

    def require_match(self, term: Term, delimited_pattern: str) -> None:
        """Add ``term ⊆ L(preg_match pattern)`` — the common filter shape."""
        name = self._fresh_name()
        self.require(term, self.match_pattern(name, delimited_pattern))

    def add_dsl(self, text: str) -> None:
        """Append the constraints of a DSL fragment (standalone namespace)."""
        problem = parse_problem(text, self.alphabet)
        self._constraints.extend(problem.constraints)

    # -- scopes (SMT-solver style push/pop) --------------------------------

    def push(self) -> None:
        """Open a backtracking scope: constraints added after ``push``
        are discarded by the matching :meth:`pop` — the familiar
        incremental-solver workflow (try a hypothesis, retract it)."""
        self._scopes.append(len(self._constraints))

    def pop(self) -> None:
        """Discard every constraint added since the matching ``push``."""
        if not self._scopes:
            raise ValueError("pop without a matching push")
        self._constraints = self._constraints[: self._scopes.pop()]

    def num_scopes(self) -> int:
        return len(self._scopes)

    # -- solving ----------------------------------------------------------

    def problem(self) -> Problem:
        """The RMA instance accumulated so far."""
        return Problem(list(self._constraints), alphabet=self.alphabet)

    def solve(
        self,
        query: Optional[list[str]] = None,
        max_solutions: Optional[int] = None,
        limits: Optional[GciLimits] = None,
        only: Optional[list[str]] = None,
        collect_stats: bool = False,
        journal=None,
    ) -> SolutionSet:
        """Solve the accumulated instance (see :func:`repro.solver.solve`).

        With ``collect_stats=True`` the solve runs under an
        observability collector (:mod:`repro.obs`) and the returned
        :class:`SolutionSet` carries it as ``result.stats`` — a span
        trace of where the solve spent its time plus a metrics
        snapshot (``result.stats.to_dict()`` for the JSON form).

        ``journal`` (a path or open text stream) additionally streams
        the solve as a JSONL event journal (:mod:`repro.obs.journal`)
        — per-solve trace IDs, span open/close events with wall and
        CPU seconds, and heartbeat progress from the GCI enumeration.
        Both sinks may be active at once; they see the same events.

        Every solve runs under the solver's language cache
        (``self.cache``), so repeated solves — the push/pop workflow —
        reuse memoized products and verdicts across calls.  Construct
        the solver with ``CacheLimits(enabled=False)`` to opt out.
        """
        from contextlib import ExitStack

        with self.cache.activate(), ExitStack() as stack:
            if journal is not None:
                stack.enter_context(obs.journal_to(journal))
            collector = (
                stack.enter_context(obs.collect()) if collect_stats else None
            )
            result = solve_problem(
                self.problem(),
                query=query,
                max_solutions=max_solutions,
                limits=limits,
                only=only,
            )
        if collector is not None:
            result.stats = collector
        return result
