"""The production kernels against the oracle kernels (tests/oracle.py).

The bitset kernels must be *observationally identical* to the
straightforward set-based constructions (see docs/BACKENDS.md):
determinize and product are pinned structure-identical (same states,
numbering, edges, bridge tags, provenance), Hopcroft language-equal
with the same minimal state count, and the left quotient language-
equal.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata import bitset, serialize
from repro.automata.backend import active_backend
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

    def test_product_structure_and_provenance_identical(self):
        ms = _sample_machines()
        for a in ms[:3]:
            for b in ms[:3]:
                ref, prov_ref = oracle.product(a, b)
                bit, prov_bit = bitset.product(a, b)
                assert serialize.to_dict(ref) == serialize.to_dict(bit)
                assert prov_ref == prov_bit

    def test_product_preserves_bridge_tags(self):
        # concat() introduces tagged ε-bridges; the product must copy
        # them verbatim (GCI reads bridge structure off the product).
        a = concat(Nfa.literal("a", AB), Nfa.literal("b", AB))
        bit, _ = bitset.product(a, Nfa.universal(AB))
        ref, _ = oracle.product(a, Nfa.universal(AB))
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
        ref, prov_ref = oracle.product(a, b)
        bit, prov_bit = bitset.product(a, b)
        assert serialize.to_dict(ref) == serialize.to_dict(bit)
        assert prov_ref == prov_bit
        mr = oracle.minimize_dfa(oracle.determinize(a))
        mb = bitset.minimize_dfa(bitset.determinize(a))
        assert mr.num_states == mb.num_states
        assert equivalent(mr.to_nfa(), mb.to_nfa())
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
