"""Emptiness short-circuits in the automata hot paths.

A structurally empty operand decides a product or an inclusion check
without any pair-graph walk; both fast paths log the
``cache.empty_shortcircuit`` counter so their hit rate is observable.
"""

from repro import obs
from repro.automata import ops
from repro.automata.equivalence import equivalent
from repro.automata.nfa import Nfa
from repro.automata.equivalence import is_subset
from repro.cache import LangCache

from ..helpers import AB, machine


def _counter(collector) -> int:
    return (
        collector.metrics.snapshot()["counters"].get(
            "cache.empty_shortcircuit", 0
        )
    )


class TestProductShortCircuit:
    def test_empty_operand_returns_empty_immediately(self):
        empty = Nfa.never(AB)
        full = machine("(a|b)*", AB)
        with obs.collect() as collector:
            product = ops.product(empty, full)
            assert _counter(collector) == 1
            product2 = ops.product(full, empty)
            assert _counter(collector) == 2
        assert product.is_empty()
        assert product2.is_empty()
        # Zero pair states visited for the short-circuited calls.
        assert collector.states_visited == 0

    def test_trimmed_to_empty_counts_as_empty(self):
        # Structurally empty after construction (no reachable final),
        # not just Nfa.never: a final-less machine.
        dead = Nfa(AB)
        (s,) = dead.add_states(1)
        dead.starts = {s}
        full = machine("a*", AB)
        with obs.collect() as collector:
            product = ops.product(dead, full)
        assert product.is_empty()
        assert _counter(collector) == 1

    def test_nonempty_operands_unaffected(self):
        left = machine("a(a|b)*", AB)
        right = machine("(a|b)*b", AB)
        with obs.collect() as collector:
            product = ops.product(left, right)
        assert _counter(collector) == 0
        assert equivalent(product, ops.intersect(left, right))


class TestIsSubsetShortCircuit:
    def test_empty_lhs_is_always_subset(self):
        empty = Nfa.never(AB)
        full = machine("a", AB)
        with LangCache().activate(), obs.collect() as collector:
            assert is_subset(empty, full) is True
            assert is_subset(empty, empty) is True
            assert _counter(collector) == 2
        assert collector.states_visited == 0

    def test_empty_rhs_with_nonempty_lhs_is_false(self):
        empty = Nfa.never(AB)
        full = machine("a", AB)
        with LangCache().activate(), obs.collect() as collector:
            assert is_subset(full, empty) is False
            assert _counter(collector) == 1

    def test_agrees_with_uncached_verdicts(self):
        from repro.automata.equivalence import counterexample

        cases = [
            (Nfa.never(AB), machine("a*", AB)),
            (machine("a*", AB), Nfa.never(AB)),
            (Nfa.never(AB), Nfa.never(AB)),
            (machine("a", AB), machine("a|b", AB)),
        ]
        for a, b in cases:
            expected = counterexample(a, b) is None
            with LangCache().activate():
                assert is_subset(a, b) == expected
