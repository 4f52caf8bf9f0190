"""Regression tests for the L030/L031 determinism fixes.

Three call sites used to let ``set`` iteration order (or the shared
global RNG) leak into results that are part of the solver's observable
output:

* :func:`repro.automata.analysis.shortest_string` seeded its 0-1 BFS
  from ``nfa.starts`` in set order — among equal-length witnesses the
  *choice* depended on hash-table history;
* :func:`repro.automata.analysis.random_string` defaulted to the
  process-global RNG, so repeated calls were unreproducible;
* the set-based Hopcroft kernel (now the oracle in ``tests/oracle.py``)
  fed set-ordered states into partition refinement, so block numbering
  was a function of memory layout, not of the machine.

Each test drives the public API with inputs whose construction order is
permuted and asserts the output is a function of the machine alone.
"""

import random

from repro.automata import Alphabet, Nfa
from repro.automata.analysis import random_string, shortest_string
from repro.automata.dfa import Dfa, minimize_dfa
from repro.automata.charset import CharSet

from ..helpers import ABC, machine

#: 0 and 8 collide in a small CPython hash table (8 % 8 == 0), so
#: ``{0, 8}`` built in different insertion orders genuinely iterates
#: differently — the permutation below is not a no-op.
COLLIDING = (0, 8)


def _two_start_machine() -> Nfa:
    """Two starts, two distinct shortest witnesses of equal length.

    State 0 accepts "a", state 8 accepts "b" — both length 1, so the
    tie-break between them is exactly what start order used to decide.
    """
    nfa = Nfa(ABC)
    states = nfa.add_states(10)
    accept_a, accept_b = states[1], states[9]
    nfa.add_char(0, "a", accept_a)
    nfa.add_char(8, "b", accept_b)
    nfa.finals = {accept_a, accept_b}
    return nfa


class TestShortestStringStartOrder:
    def test_witness_invariant_under_start_insertion_order(self):
        witnesses = set()
        for order in (COLLIDING, tuple(reversed(COLLIDING))):
            nfa = _two_start_machine()
            nfa.starts = set()
            for state in order:
                nfa.starts.add(state)
            witnesses.add(shortest_string(nfa))
        # The contract is determinism, not a particular tie-break: both
        # insertion orders must produce the same (valid) witness.
        assert len(witnesses) == 1
        assert witnesses.pop() in {"a", "b"}

    def test_still_a_shortest_member(self):
        nfa = _two_start_machine()
        nfa.starts = {0, 8}
        witness = shortest_string(nfa)
        assert witness is not None
        assert nfa.accepts(witness)
        assert len(witness) == 1


class TestRandomStringSeeded:
    def test_reproducible_without_explicit_rng(self):
        nfa = machine("a|b(a|b)*")
        first = [random_string(nfa) for _ in range(5)]
        second = [random_string(nfa) for _ in range(5)]
        assert first == second

    def test_default_matches_seed_zero(self):
        nfa = machine("a|b(a|b)*")
        assert random_string(nfa) == random_string(nfa, random.Random(0))

    def test_explicit_rng_still_honoured(self):
        nfa = machine("(a|b)(a|b)(a|b)")
        a = [random_string(nfa, random.Random(7)) for _ in range(5)]
        b = [random_string(nfa, random.Random(7)) for _ in range(5)]
        assert a == b


def _chain_dfa(order: list[int]) -> Dfa:
    """A 4-state DFA over {a,b}; ``order`` permutes dict insertion."""
    a, b = CharSet.single("a"), CharSet.single("b")
    sink_rest = ABC.universe - a - b
    rows = {
        0: [(a, 1), (b, 2), (sink_rest, 3)],
        1: [(a, 1), (b, 2), (sink_rest, 3)],
        2: [(a | b, 3), (sink_rest, 3)],
        3: [(a | b | sink_rest, 3)],
    }
    transitions = {state: list(rows[state]) for state in order}
    return Dfa(ABC, transitions, 0, {1, 2})


class TestMinimizeDfaInsertionOrder:
    def test_identical_structure_under_permuted_insertion(self):
        baseline = minimize_dfa(_chain_dfa([0, 1, 2, 3]))
        for order in ([3, 2, 1, 0], [2, 0, 3, 1], [1, 3, 0, 2]):
            other = minimize_dfa(_chain_dfa(order))
            assert other.start == baseline.start
            assert other.finals == baseline.finals
            assert set(other.transitions) == set(baseline.transitions)
            for state, moves in baseline.transitions.items():
                assert other.transitions[state] == moves, order

    def test_language_preserved(self):
        def accepts(dfa, word):
            state = dfa.start
            for char in word:
                state = dfa.delta(state, char)
            return state in dfa.finals

        minimized = minimize_dfa(_chain_dfa([2, 0, 3, 1]))
        original = _chain_dfa([0, 1, 2, 3])
        for word in ("", "a", "b", "aa", "ab", "ba", "aab", "abc"):
            assert accepts(minimized, word) == accepts(original, word), word
