"""Unit tests for the core ε-NFA class."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata import BYTE_ALPHABET, BridgeTag, CharSet, Nfa, ops
from repro.automata.serialize import to_dict

from .. import oracle
from ..helpers import ABC, machine as compile_regex
from ..prop.strategies import epsilon_nfas


class TestBuilders:
    def test_never(self):
        machine = Nfa.never()
        assert machine.is_empty()
        assert not machine.accepts("")

    def test_epsilon_only(self):
        machine = Nfa.epsilon_only()
        assert machine.accepts("")
        assert not machine.accepts("a")

    def test_literal(self):
        machine = Nfa.literal("abc")
        assert machine.accepts("abc")
        assert not machine.accepts("ab")
        assert not machine.accepts("abcd")
        assert machine.num_states == 4

    def test_empty_literal(self):
        assert Nfa.literal("").accepts("")

    def test_char_class(self):
        machine = Nfa.char_class(CharSet.range("0", "9"))
        assert machine.accepts("7")
        assert not machine.accepts("a")
        assert not machine.accepts("77")

    def test_universal(self):
        machine = Nfa.universal()
        assert machine.accepts("")
        assert machine.accepts("anything at all, really")

    def test_empty_label_transition_dropped(self):
        machine = Nfa()
        a, b = machine.add_states(2)
        machine.add_transition(a, CharSet.empty(), b)
        assert machine.num_transitions == 0

    def test_unknown_state_rejected(self):
        machine = Nfa()
        state = machine.add_state()
        with pytest.raises(ValueError):
            machine.add_epsilon(state, 99)


class TestSimulation:
    def test_epsilon_closure(self):
        machine = Nfa()
        a, b, c, d = machine.add_states(4)
        machine.add_epsilon(a, b)
        machine.add_epsilon(b, c)
        machine.add_char(c, "x", d)
        assert machine.epsilon_closure([a]) == {a, b, c}

    def test_closure_handles_cycles(self):
        machine = Nfa()
        a, b = machine.add_states(2)
        machine.add_epsilon(a, b)
        machine.add_epsilon(b, a)
        assert machine.epsilon_closure([a]) == {a, b}

    def test_step(self):
        machine = Nfa()
        a, b, c = machine.add_states(3)
        machine.add_char(a, "x", b)
        machine.add_epsilon(b, c)
        assert machine.step([a], "x") == {b, c}

    def test_accepts_via_epsilon_path(self):
        machine = Nfa()
        a, b, c = machine.add_states(3)
        machine.add_epsilon(a, b)
        machine.add_char(b, "z", c)
        machine.starts = {a}
        machine.finals = {c}
        assert machine.accepts("z")

    def test_no_implicit_self_loops(self):
        # The paper is explicit: no implicit ε self-loops.
        machine = Nfa.literal("ab")
        assert not machine.accepts("aab")

    def test_contains_operator(self):
        assert "hi" in Nfa.literal("hi")


class TestStructure:
    def test_live_states(self):
        machine = Nfa()
        a, b, dead = machine.add_states(3)
        machine.add_char(a, "x", b)
        machine.add_char(a, "y", dead)  # dead: no path to a final
        machine.starts = {a}
        machine.finals = {b}
        assert machine.live_states() == {a, b}

    def test_is_empty_unreachable_final(self):
        machine = Nfa()
        a, b = machine.add_states(2)
        machine.starts = {a}
        machine.finals = {b}
        assert machine.is_empty()

    @settings(max_examples=200, deadline=None)
    @given(epsilon_nfas(max_states=8), st.data())
    def test_property_is_empty_matches_reference_trim(self, machine, data):
        # Arbitrary starts and finals: dead and unreachable states, and
        # finals only an ε-edge or a cycle reaches.
        state = st.integers(min_value=0, max_value=machine.num_states - 1)
        machine.starts = data.draw(st.sets(state))
        machine.finals = data.draw(st.sets(state))
        assert machine.is_empty() == (not oracle.trim(machine).finals)

    def test_trim_drops_dead_states(self):
        machine = Nfa()
        a, b, dead = machine.add_states(3)
        machine.add_char(a, "x", b)
        machine.add_char(b, "y", dead)
        machine.starts = {a}
        machine.finals = {b}
        trimmed = machine.trim()
        assert dead not in trimmed.states
        assert trimmed.accepts("x")

    def test_trim_empty_language_keeps_start(self):
        machine = Nfa.never()
        trimmed = machine.trim()
        assert trimmed.starts
        assert trimmed.is_empty()

    def test_accepts_epsilon(self):
        assert Nfa.epsilon_only().accepts_epsilon()
        assert not Nfa.literal("x").accepts_epsilon()

    def test_restricted_is_empty_exactly_without_finals(self):
        machine = Nfa.literal("ab")
        assert machine.restricted({1}, {2}).finals == {2}
        empty = machine.restricted({2}, {1})
        assert not empty.finals
        assert empty.is_empty()
        assert empty.starts == {2}

    @settings(max_examples=200, deadline=None)
    @given(epsilon_nfas(max_states=8), st.data())
    def test_property_restricted_matches_reference_trim(self, machine, data):
        state = st.integers(min_value=0, max_value=machine.num_states - 1)
        starts = data.draw(st.sets(state))
        finals = data.draw(st.sets(state))
        reference = machine.copy()
        reference.starts = set(starts)
        reference.finals = set(finals)
        assert oracle.structure(machine.restricted(starts, finals)) == (
            oracle.structure(oracle.trim(reference))
        )
        assert oracle.structure(machine.trim()) == oracle.structure(
            oracle.trim(machine)
        )


    def test_trim_lays_states_out_in_id_order(self):
        # The product's live ids outgrow a small set's hash table, so a
        # layout that followed the live set would wrap (32, 33, 34, 1,
        # 0, ...); the trim and its serialization follow the ids.
        product = ops.product(
            compile_regex("a(b|c)"), compile_regex("ab|ac*d")
        )
        trimmed = product.trim()
        states = list(trimmed.states)
        assert states == sorted(states)
        sources = [item["src"] for item in to_dict(trimmed)["transitions"]]
        assert sources == sorted(sources)
        assert max(states) > 31  # the ids that wrapped


class TestTransforms:
    def test_copy_is_independent(self):
        machine = Nfa.literal("ab")
        clone = machine.copy()
        clone.finals = set()
        assert machine.accepts("ab")
        assert not clone.accepts("ab")

    def test_with_start_and_final(self):
        machine = Nfa.literal("abc")
        # State ids are sequential for literal machines: 0-a-1-b-2-c-3.
        inner = machine.restricted({1}, {2})
        assert inner.accepts("b")
        assert not inner.accepts("ab")

    def test_normalized_single_start_final(self):
        machine = Nfa()
        a, b, c = machine.add_states(3)
        machine.add_char(a, "x", c)
        machine.add_char(b, "y", c)
        machine.starts = {a, b}
        machine.finals = {a, c}
        norm = machine.normalized()
        assert len(norm.starts) == 1
        assert len(norm.finals) == 1
        for text in ("", "x", "y"):
            assert norm.accepts(text) == machine.accepts(text)

    def test_normalized_already_normal_is_copy(self):
        machine = Nfa.literal("q")
        norm = machine.normalized()
        assert norm.num_states == machine.num_states

    def test_start_final_accessors(self):
        machine = Nfa.literal("q")
        assert machine.start in machine.starts
        assert machine.final in machine.finals

    def test_start_accessor_requires_unique(self):
        machine = Nfa()
        a, b = machine.add_states(2)
        machine.starts = {a, b}
        with pytest.raises(ValueError):
            _ = machine.start

    def test_renumbered_dense(self):
        machine = Nfa.literal("ab").trim()
        renumbered, mapping = machine.renumbered()
        assert sorted(renumbered.states) == list(range(renumbered.num_states))
        assert renumbered.accepts("ab")
        assert len(mapping) == machine.num_states

    def test_map_states(self):
        machine = Nfa.literal("a")
        shifted = machine.map_states(lambda s: s + 100)
        assert shifted.accepts("a")
        assert all(s >= 100 for s in shifted.states)

    def test_map_states_must_be_injective(self):
        machine = Nfa.literal("a")
        with pytest.raises(ValueError):
            machine.map_states(lambda s: 0)


class TestBridgeTags:
    def test_tags_have_unique_labels(self):
        assert BridgeTag().label != BridgeTag().label

    def test_fresh_tags_are_prefixed_and_unique(self):
        tags = [BridgeTag.fresh("plus") for _ in range(8)]
        labels = {tag.label for tag in tags}
        assert len(labels) == len(tags)
        assert all(label.startswith("plus") for label in labels)

    def test_plus_mints_distinguishable_tags(self):
        # Regression: every `plus` used to mint BridgeTag("plus"), so
        # distinct + nodes were indistinguishable under label-keyed
        # serialization.
        from repro.automata import ops

        first = ops.plus(Nfa.literal("a", ABC))
        second = ops.plus(Nfa.literal("b", ABC))

        def plus_tags(machine):
            return {
                edge.tag.label
                for _, edge in machine.edges()
                if edge.tag is not None and edge.tag.label.startswith("plus")
            }

        assert plus_tags(first)
        assert plus_tags(second)
        assert plus_tags(first).isdisjoint(plus_tags(second))

    def test_tag_minting_is_thread_safe(self):
        import threading

        minted: list[str] = []
        barrier = threading.Barrier(4)

        def mint():
            barrier.wait()
            local = [BridgeTag().label for _ in range(250)]
            local += [BridgeTag.fresh("plus").label for _ in range(250)]
            minted.extend(local)  # list.extend is atomic in CPython

        threads = [threading.Thread(target=mint) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(minted) == 2000
        assert len(set(minted)) == 2000

    def test_tagged_epsilon_preserved_by_copy(self):
        tag = BridgeTag("t")
        machine = Nfa()
        a, b = machine.add_states(2)
        machine.add_epsilon(a, b, tag)
        clone = machine.copy()
        edges = [edge for _, edge in clone.edges()]
        assert edges[0].tag is tag

    def test_alphabet_attached(self):
        machine = Nfa(ABC)
        assert machine.alphabet is ABC
        assert Nfa().alphabet is BYTE_ALPHABET
