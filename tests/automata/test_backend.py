"""The production kernels against the oracle kernels (tests/oracle.py).

The bitset kernels must be *observationally identical* to the
straightforward set-based constructions (see docs/BACKENDS.md):
determinize and the trimmed product are pinned structure-identical
(same states, numbering, edges, bridge tags), Hopcroft language-equal
with the same minimal state count, the residual passes mask-identical,
and both universal quotients language-equal to the constructions they
replaced.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata import bitset, ops, serialize
from repro.automata.backend import active_backend
from repro.automata.dfa import determinize, minimize_nfa
from repro.automata.equivalence import equivalent
from repro.automata.nfa import Nfa
from repro.automata.ops import concat, union

from .. import oracle
from ..helpers import AB, language
from ..prop.strategies import machines


def test_active_backend_name_is_str():
    # Benchmarks record it next to their numbers.
    assert isinstance(active_backend().name, str)


def _sample_machines() -> list[Nfa]:
    a = Nfa.literal("ab", AB)
    b = Nfa.literal("ba", AB)
    return [
        a,
        union(a, b),
        concat(a, union(b, Nfa.literal("", AB))),
        Nfa.universal(AB),
        Nfa.never(AB),
    ]


class TestKernelEquivalence:
    @pytest.mark.parametrize("index", range(5))
    def test_determinize_structure_identical(self, index):
        m = _sample_machines()[index]
        ref = oracle.determinize(m)
        bit = bitset.determinize(m)
        assert serialize.to_dict(ref.to_nfa()) == serialize.to_dict(bit.to_nfa())

    def test_product_structure_identical(self):
        ms = _sample_machines()
        for a in ms[:3]:
            for b in ms[:3]:
                ref = oracle.product(a, b)
                bit = bitset.product(a, b)
                assert serialize.to_dict(ref) == serialize.to_dict(bit)

    def test_product_preserves_bridge_tags(self):
        # concat() introduces tagged ε-bridges; the product must copy
        # them verbatim (GCI reads bridge structure off the product).
        a = concat(Nfa.literal("a", AB), Nfa.literal("b", AB))
        bit = bitset.product(a, Nfa.universal(AB))
        ref = oracle.product(a, Nfa.universal(AB))
        tags = lambda m: [
            (src, edge.dst, edge.tag)
            for src in sorted(m.states)
            for edge in m.out_edges(src)
            if edge.tag is not None
        ]
        assert tags(ref) == tags(bit)
        assert tags(bit), "expected at least one bridge tag in the product"

    def test_minimize_language_and_size(self):
        for m in _sample_machines():
            ref = oracle.minimize_dfa(oracle.determinize(m))
            bit = bitset.minimize_dfa(bitset.determinize(m))
            assert ref.num_states == bit.num_states
            assert language(ref.to_nfa()) == language(bit.to_nfa())

    def test_minimize_rejects_incomplete_dfa(self):
        dfa = oracle.determinize(Nfa.literal("a", AB))
        broken = dfa.complemented()
        broken.transitions[broken.start] = broken.transitions[broken.start][:1]
        with pytest.raises(ValueError, match="incomplete DFA"):
            bitset.minimize_dfa(broken)

    @settings(max_examples=40, deadline=None)
    @given(
        machines(max_depth=2),
        machines(max_depth=2),
        st.sampled_from(["none", "union", "concat"]),
    )
    def test_property_kernels_agree(self, a, b, outside):
        assert serialize.to_dict(oracle.determinize(a).to_nfa()) == serialize.to_dict(
            bitset.determinize(a).to_nfa()
        )
        ref = oracle.product(a, b)
        bit = bitset.product(a, b)
        assert serialize.to_dict(ref) == serialize.to_dict(bit)
        mr = oracle.minimize_dfa(oracle.determinize(a))
        mb = bitset.minimize_dfa(bitset.determinize(a))
        assert mr.num_states == mb.num_states
        assert equivalent(mr.to_nfa(), mb.to_nfa())
        # Both number the minimal DFA canonically, so the machines are
        # the same, not only language-equal: GCI intersects ``run``'s
        # minimal DFAs with leaves, and the products must match.
        assert serialize.to_dict(mr.to_nfa()) == serialize.to_dict(mb.to_nfa())
        # Prefix labels may reach outside the alphabet universe ("x" is
        # not in {a, b}); no string of the language continues there.
        prefixes = a
        if outside == "union":
            prefixes = union(a, Nfa.literal("x", AB))
        elif outside == "concat":
            prefixes = concat(a, Nfa.literal("x", AB))
        assert equivalent(
            oracle.left_quotient(prefixes, b), bitset.left_quotient(prefixes, b)
        )


def _with_outside(machine: Nfa, outside: str) -> Nfa:
    # Labels may reach outside the alphabet universe ("x" is not in
    # {a, b}); no string of a residual continues there.
    if outside == "union":
        return union(machine, Nfa.literal("x", AB))
    if outside == "concat":
        return concat(machine, Nfa.literal("x", AB))
    return machine


class TestResidualKernels:
    """post, pre and run against the set-based oracle passes, and the
    quotients built from them against the constructions they replaced
    (the seed-search left quotient, ``reverse ∘ LQ ∘ reverse``)."""

    @settings(max_examples=60, deadline=None)
    @given(
        machines(max_depth=2),
        machines(max_depth=2),
        st.integers(min_value=0),
        st.integers(min_value=0),
        st.sampled_from(["none", "union", "concat"]),
    )
    def test_passes_match_oracle(
        self, language, context, seed, goal_seed, outside
    ):
        context = _with_outside(context, outside)
        res = bitset.Residual(determinize(language))
        tracks = seed & res.full
        goal = goal_seed & res.full
        assert bitset.post(res, context, tracks) == oracle.post(
            res, context, tracks
        )
        assert bitset.pre(res, context, goal) == oracle.pre(res, context, goal)
        assert equivalent(
            bitset.run(res, tracks, goal), oracle.run(res, tracks, goal)
        )

    @settings(max_examples=60, deadline=None)
    @given(
        machines(max_depth=2),
        st.integers(min_value=0),
        st.integers(min_value=0),
    )
    def test_run_is_minimal(self, language, seed, goal_seed):
        """``run`` returns the minimal DFA of ``{w | δ(tracks, w) ⊆
        goal}``: minimizing its own output saves nothing, and it is
        language-equal to the unminimized track-set construction."""
        res = bitset.Residual(determinize(language))
        tracks = seed & res.full
        goal = goal_seed & res.full
        out = bitset.run(res, tracks, goal)
        assert out.num_states == minimize_nfa(out).num_states
        assert equivalent(out, oracle.track_set_dfa(res, tracks, goal).to_nfa())
        assert oracle.run(res, tracks, goal).num_states == out.num_states

    @settings(max_examples=60, deadline=None)
    @given(
        machines(max_depth=2),
        machines(max_depth=2),
        st.sampled_from(["none", "union"]),
    )
    def test_quotients_match_replaced_constructions(
        self, language, context, outside
    ):
        prefixes = _with_outside(context, outside)
        assert equivalent(
            ops.left_quotient(prefixes, language),
            oracle.left_quotient(prefixes, language),
        )
        assert equivalent(
            ops.right_quotient(language, prefixes),
            oracle.right_quotient(language, prefixes),
        )

    @settings(max_examples=40, deadline=None)
    @given(
        machines(max_depth=2),
        st.lists(machines(max_depth=1), min_size=0, max_size=2),
        st.lists(machines(max_depth=1), min_size=0, max_size=2),
    )
    def test_folded_contexts_are_the_quotient_of_the_concatenation(
        self, constant, lefts, rights
    ):
        """``run(post(L1·L2, start), pre(R1·R2, F)) = LQ(L1·L2, RQ(c,
        R1·R2))``, folding the passes leaf by leaf — the admissible set
        of the GCI maximization."""
        res = bitset.Residual(determinize(constant))
        tracks = res.start_mask
        for leaf in lefts:
            tracks = bitset.post(res, leaf, tracks)
        goal = res.finals_mask
        for leaf in reversed(rights):
            goal = bitset.pre(res, leaf, goal)

        def joined(parts: list[Nfa]) -> Nfa:
            out = Nfa.epsilon_only(AB)
            for part in parts:
                out = concat(out, part)
            return out

        expected = oracle.left_quotient(
            joined(lefts), oracle.right_quotient(constant, joined(rights))
        )
        assert equivalent(bitset.run(res, tracks, goal), expected)
