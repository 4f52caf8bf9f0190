"""Unit tests for the inclusion / equivalence oracle."""

from hypothesis import given, settings

from repro import obs
from repro.automata import (
    Alphabet,
    CharSet,
    Nfa,
    counterexample,
    equivalence,
    equivalent,
    is_subset,
)

from .. import oracle
from ..helpers import ABC, machine
from ..prop.strategies import epsilon_nfas


def _run_counted(check, a, b):
    """``check(a, b)`` and the ``visit_states`` total it emitted."""
    with obs.collect() as collector:
        result = check(a, b)
    return result, collector.states_visited


class TestSubset:
    def test_reflexive(self):
        target = machine("(ab)*c")
        assert is_subset(target, target)

    def test_strict_subset(self):
        assert is_subset(machine("aa"), machine("a*"))
        assert not is_subset(machine("a*"), machine("aa"))

    def test_empty_is_subset_of_everything(self):
        assert is_subset(Nfa.never(ABC), machine("a"))
        assert is_subset(Nfa.never(ABC), Nfa.never(ABC))

    def test_everything_contains_empty_string_check(self):
        assert not is_subset(machine("a*"), machine("a+"))  # ε missing

    def test_universal_superset(self):
        assert is_subset(machine("(a|b|c){0,4}"), Nfa.universal(ABC))


class TestCounterexample:
    def test_none_when_included(self):
        assert counterexample(machine("ab"), machine("ab|cd")) is None

    def test_witness_in_difference(self):
        left = machine("a|b")
        right = machine("a")
        witness = counterexample(left, right)
        assert witness == "b"

    def test_minimal_length_witness(self):
        left = machine("a{1,5}")
        right = machine("aaa?")  # only lengths 2-3... missing a, aaaa, aaaaa
        witness = counterexample(left, right)
        assert witness == "a"

    def test_epsilon_witness(self):
        witness = counterexample(machine("a*"), machine("a+"))
        assert witness == ""

    def test_label_split_regression(self):
        # `left` treats the whole class uniformly but `right` distinguishes
        # inside it; the minterm partition must include right's labels or
        # the counterexample below is missed.
        big = Alphabet(CharSet.range("a", "z"), name="az")
        left = Nfa.char_class(CharSet.range("a", "z"), big)
        right = Nfa.char_class(CharSet.range("a", "m"), big)
        witness = counterexample(left, right)
        assert witness is not None and witness > "m"


class TestEquivalence:
    def test_same_language_different_shapes(self):
        assert equivalent(machine("aa*"), machine("a+"))
        assert equivalent(machine("(a|b)*"), machine("(b|a)*"))

    def test_not_equivalent(self):
        assert not equivalent(machine("a+"), machine("a*"))

    def test_empty_machines(self):
        assert equivalent(Nfa.never(ABC), Nfa.never(ABC))
        assert not equivalent(Nfa.never(ABC), Nfa.epsilon_only(ABC))


class TestKernelAgainstOracle:
    """The memoized search against the per-pair one in tests/oracle.py:
    same verdict, same counterexample string, same ``visit_states``
    total."""

    @settings(max_examples=300, deadline=None)
    @given(epsilon_nfas(), epsilon_nfas())
    def test_property_same_answer_and_visits(self, a, b):
        assert _run_counted(counterexample, a, b) == _run_counted(
            oracle.counterexample, a, b
        )

    def test_label_split_machines(self):
        big = Alphabet(CharSet.range("a", "z"), name="az")
        left = Nfa.char_class(CharSet.range("a", "z"), big)
        right = Nfa.char_class(CharSet.range("a", "m"), big)
        for a, b in [(left, right), (right, left), (left, left)]:
            assert _run_counted(counterexample, a, b) == _run_counted(
                oracle.counterexample, a, b
            )

    def test_memo_clearing_keeps_answers(self, monkeypatch):
        # Wholesale clearing on every insertion must not change a thing.
        monkeypatch.setattr(equivalence, "_MEMO_LIMIT", 1)
        monkeypatch.setattr(equivalence, "_blocks_memo", {})
        pairs = [
            (machine("a{1,5}"), machine("aaa?")),
            (machine("(a|b)*c"), machine("(ab)*c|b*c")),
            (machine("(ab|c)*"), machine("(ab|c)*")),
        ]
        for a, b in pairs:
            assert _run_counted(counterexample, a, b) == _run_counted(
                oracle.counterexample, a, b
            )
        assert len(equivalence._blocks_memo) == 1
