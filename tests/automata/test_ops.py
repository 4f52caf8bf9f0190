"""Unit tests for the automata algebra."""

import pytest

from repro import obs
from repro.automata import BridgeTag, CharSet, Nfa, ops

from .. import oracle
from ..helpers import ABC, language, machine


class TestUnion:
    def test_basic(self):
        result = ops.union(Nfa.literal("ab", ABC), Nfa.literal("c", ABC))
        assert language(result) == {"ab", "c"}

    def test_with_empty_language(self):
        result = ops.union(Nfa.never(ABC), Nfa.literal("a", ABC))
        assert language(result) == {"a"}

    def test_preserves_operands(self):
        left = Nfa.literal("a", ABC)
        ops.union(left, Nfa.literal("b", ABC))
        assert language(left) == {"a"}


class TestConcat:
    def test_basic(self):
        result = ops.concat(Nfa.literal("ab", ABC), Nfa.literal("c", ABC))
        assert language(result) == {"abc"}

    def test_epsilon_identity(self):
        result = ops.concat(Nfa.epsilon_only(ABC), Nfa.literal("a", ABC))
        assert language(result) == {"a"}

    def test_with_empty_is_empty(self):
        result = ops.concat(Nfa.never(ABC), Nfa.literal("a", ABC))
        assert result.is_empty()

    def test_bridge_tag_attached(self):
        tag = BridgeTag("test")
        result = ops.concat(Nfa.literal("a", ABC), Nfa.literal("b", ABC), tag)
        tagged = [e for _, e in result.edges() if e.tag is tag]
        assert len(tagged) == 1
        assert tagged[0].is_epsilon

    def test_multi_final_left_gets_one_bridge_each(self):
        left = machine("a|bb")  # several paths, several finals possible
        tag = BridgeTag("t")
        result = ops.concat(ops.eliminate_epsilon(left), Nfa.literal("c", ABC), tag)
        tagged = [e for _, e in result.edges() if e.tag is tag]
        assert len(tagged) == len(ops.eliminate_epsilon(left).finals)
        assert language(result) == {"ac", "bbc"}


class TestStarPlusOptional:
    def test_star(self):
        result = ops.star(Nfa.literal("ab", ABC))
        assert language(result, 6) == {"", "ab", "abab", "ababab"}

    def test_star_of_empty_language_is_epsilon(self):
        result = ops.star(Nfa.never(ABC))
        assert language(result) == {""}

    def test_plus(self):
        result = ops.plus(Nfa.literal("a", ABC))
        assert language(result, 3) == {"a", "aa", "aaa"}

    def test_optional(self):
        result = ops.optional(Nfa.literal("ab", ABC))
        assert language(result) == {"", "ab"}


class TestProduct:
    def test_intersection_language(self):
        left = machine("a*b")
        right = machine("ab*")
        assert language(ops.intersect(left, right)) == {"ab"}

    def test_disjoint_intersection_empty(self):
        assert ops.intersect(machine("a+"), machine("b+")).is_empty()

    def test_product_is_trimmed(self):
        # ``a·(b|c)`` against ``ab|ac*d`` reaches pairs no final follows.
        left = machine("a(b|c)")
        right = machine("ab|ac*d")
        with obs.collect() as collector:
            result = ops.product(left, right)
        assert collector.states_visited > result.num_states
        assert language(result) == {"ab"}
        assert oracle.structure(result.trim()) == oracle.structure(result)

    def test_epsilon_asynchronous(self):
        # A machine with internal ε still intersects correctly.
        left = ops.concat(Nfa.literal("a", ABC), Nfa.literal("b", ABC))
        right = machine("ab|cd")
        assert language(ops.intersect(left, right)) == {"ab"}

    def test_bridge_tag_propagates_through_product(self):
        tag = BridgeTag("t")
        bridged = ops.concat(Nfa.literal("a", ABC), Nfa.literal("b", ABC), tag)
        result = ops.product(bridged, machine("ab"))
        tagged = [e for _, e in result.edges() if e.tag is tag]
        assert tagged, "bridge images must survive the product"

    def test_only_reachable_pairs_built(self):
        left = machine("a")
        right = machine("b")
        with obs.collect() as collector:
            result = ops.product(left, right)
        # The walk is bounded by reachability, not the full cross
        # product, and nothing it reaches is co-reachable, so the trim
        # keeps only the start pairs.
        assert collector.states_visited <= left.num_states * right.num_states
        assert result.is_empty()
        assert result.num_states == len(result.starts)


class TestDifferenceReverse:
    def test_difference(self):
        result = ops.difference(machine("a|b"), machine("b"))
        assert language(result) == {"a"}

    def test_difference_with_self_empty(self):
        target = machine("(ab)*")
        assert ops.difference(target, target).is_empty()

    def test_reverse(self):
        assert language(ops.reverse(machine("abc"))) == {"cba"}

    def test_reverse_involution(self):
        target = machine("a(b|c)a*")
        assert language(ops.reverse(ops.reverse(target))) == language(target)


class TestEliminateEpsilon:
    def test_no_epsilons_remain(self):
        target = machine("(a|bc)*")
        stripped = ops.eliminate_epsilon(target)
        assert all(not e.is_epsilon for _, e in stripped.edges())

    def test_language_preserved(self):
        for pattern in ("(a|bc)*", "a?b+c", "(ab)+|c"):
            target = machine(pattern)
            assert language(ops.eliminate_epsilon(target)) == language(target)

    def test_epsilon_language(self):
        stripped = ops.eliminate_epsilon(Nfa.epsilon_only(ABC))
        assert language(stripped) == {""}


class TestQuotients:
    def test_left_quotient_single_prefix(self):
        result = ops.left_quotient(Nfa.literal("ab", ABC), machine("abc+"))
        assert language(result) == {"c", "cc", "ccc", "cccc", "ccccc", "cccccc"}

    def test_left_quotient_universal_semantics(self):
        # {w | ∀u ∈ {a, aa}: u·w ∈ {aa, aaa}} = {a}: w=a suits both
        # prefixes, while w=aa fails for u=aa (aaaa ∉ target).
        prefixes = machine("a|aa")
        target = machine("aa|aaa")
        assert language(ops.left_quotient(prefixes, target)) == {"a"}

    def test_left_quotient_requires_all_prefixes(self):
        # No single w completes both a and aa into exactly aaa.
        prefixes = machine("a|aa")
        target = machine("aaa")
        assert ops.left_quotient(prefixes, target).is_empty()

    def test_left_quotient_empty_prefixes_is_sigma_star(self):
        result = ops.left_quotient(Nfa.never(ABC), machine("a"))
        assert result.accepts("") and result.accepts("cabba")

    def test_right_quotient(self):
        # {w | ∀u ∈ {c}: w·u ∈ ab*c} = ab*.
        result = ops.right_quotient(machine("ab*c"), Nfa.literal("c", ABC))
        assert language(result, 4) == {"a", "ab", "abb", "abbb"}

    def test_right_quotient_universal_semantics(self):
        # {w | ∀u ∈ {b, bb}: w·u ∈ a b{1,2}} — only "a" fits both.
        result = ops.right_quotient(machine("ab{1,2}"), machine("b|bb"))
        assert language(result) == {"a"}

    def test_quotient_no_valid_continuation(self):
        result = ops.left_quotient(Nfa.literal("x", ABC), machine("abc"))
        # "x" is not even a prefix of "abc": nothing satisfies it…
        assert result.is_empty()


class TestEmbed:
    def test_embed_keeps_target_markings(self):
        target = Nfa.literal("a", ABC)
        starts, finals = set(target.starts), set(target.finals)
        ops.embed(target, Nfa.literal("b", ABC))
        assert target.starts == starts and target.finals == finals

    def test_embed_returns_total_map(self):
        target = Nfa(ABC)
        source = Nfa.literal("xyz", ABC)
        mapping = ops.embed(target, source)
        assert set(mapping) == set(source.states)


class TestOperationCounters:
    """Every public op in ``ops.__all__`` must count itself in the
    metrics registry (``optional`` historically failed to).

    Three closures keep their paper-facing counter names: the registry
    records ``prefixes``/``suffixes``/``substrings`` rather than the
    function names.
    """

    COUNTER_NAMES = {
        "prefix_closure": "prefixes",
        "suffix_closure": "suffixes",
        "factor_closure": "substrings",
    }

    def _call(self, name):
        a = machine("ab*")
        b = machine("a*b")
        calls = {
            "embed": lambda: ops.embed(Nfa(ABC), a),
            "union": lambda: ops.union(a, b),
            "concat": lambda: ops.concat(a, b),
            "star": lambda: ops.star(a),
            "plus": lambda: ops.plus(a),
            "optional": lambda: ops.optional(a),
            "eliminate_epsilon": lambda: ops.eliminate_epsilon(a),
            "product": lambda: ops.product(a, b),
            "intersect": lambda: ops.intersect(a, b),
            "difference": lambda: ops.difference(a, b),
            "reverse": lambda: ops.reverse(a),
            "prefix_closure": lambda: ops.prefix_closure(a),
            "suffix_closure": lambda: ops.suffix_closure(a),
            "factor_closure": lambda: ops.factor_closure(a),
            "left_quotient": lambda: ops.left_quotient(a, b),
            "right_quotient": lambda: ops.right_quotient(a, b),
        }
        assert set(calls) == set(ops.__all__), "new op needs a counter test"
        calls[name]()

    @pytest.mark.parametrize("name", ops.__all__)
    def test_public_op_increments_registry(self, name):
        counter = "op." + self.COUNTER_NAMES.get(name, name)
        with obs.collect() as collector:
            self._call(name)
        counters = collector.metrics.snapshot()["counters"]
        assert counters.get(counter, 0) >= 1, (
            f"{name} did not increment {counter!r}"
        )
