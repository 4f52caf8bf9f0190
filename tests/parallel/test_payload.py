"""The prepared group and its machines survive a pickle round trip.

The worker protocol ships the prepared group as one pickle.  Pickle
keeps state ids, so the parent's bridge-edge ``(src, dst)`` pairs and
occurrence boundary selectors stay valid references into the
unpickled machines, and it memoizes objects within one dump, so bridge
tags (identity-hashed) stay shared across every machine of the group.
The store's ``to_dict`` / ``from_dict`` codec keeps state ids too.
"""

import pathlib
import pickle

from repro import parallel
from repro.automata.alphabet import Alphabet
from repro.automata.charset import CharSet
from repro.automata.equivalence import equivalent
from repro.automata.nfa import BridgeTag, Nfa
from repro.automata.serialize import from_dict, to_dict
from repro.constraints import parse_problem
from repro.constraints.depgraph import build_graph
from repro.solver import gci

from ..helpers import AB, machine

DATA = pathlib.Path(__file__).parent.parent / "data"
FIXTURES = ("fig9.dprle", "wide.dprle")


def _prepare(fixture: str):
    problem = parse_problem((DATA / fixture).read_text())
    graph, _ = build_graph(problem)
    (group,) = graph.ci_groups()
    prepared = gci._prepare_group(graph, group, gci.GciLimits())
    assert prepared is not None
    return prepared


class TestMachineDictRoundTrip:
    def test_ids_and_language_preserved(self):
        nfa = machine("a(b|a)*", AB)
        trimmed = nfa.trim()
        doc = to_dict(trimmed)
        back = from_dict(doc)
        assert back.states == trimmed.states  # exact ids, gaps included
        assert back.starts == trimmed.starts
        assert back.finals == trimmed.finals
        assert back._next_state == trimmed._next_state
        assert equivalent(back, trimmed)


class TestPickleRoundTrip:
    def test_charset_and_alphabet(self):
        chars = CharSet([(0x61, 0x63), (0x30, 0x39)])
        back = pickle.loads(pickle.dumps(chars))
        assert back == chars and hash(back) == hash(chars)
        alphabet = Alphabet(chars, name="digits-abc")
        back = pickle.loads(pickle.dumps(alphabet))
        assert back == alphabet and back.name == "digits-abc"

    def test_tagged_machine_shares_tag_identity(self):
        tag = BridgeTag("t1")
        nfa = Nfa(AB)
        a, b, c = nfa.add_states(3)
        nfa.starts = {a}
        nfa.finals = {c}
        nfa.add_epsilon(a, b, tag=tag)
        nfa.add_epsilon(b, c, tag=tag)
        first, second = pickle.loads(pickle.dumps([nfa, nfa.copy()]))
        tags = {id(e.tag) for m in (first, second) for _, e in m.edges()}
        assert len(tags) == 1  # one tag object per pickle
        edge = next(e for _, e in first.edges())
        assert edge.tag is not tag and edge.tag.label == "t1"
        assert first.states == nfa.states and first.finals == nfa.finals
        assert equivalent(first, nfa)


class TestGroupPayload:
    def test_payload_is_picklable(self):
        for fixture in FIXTURES:
            pickle.loads(pickle.dumps(_prepare(fixture)))

    def test_decode_restores_enumeration(self):
        """The unpickled group enumerates the same candidates at the
        same canonical indices with the same languages."""
        for fixture in FIXTURES:
            prepared = _prepare(fixture)
            back = pickle.loads(pickle.dumps(prepared))

            assert [t.label for t in back.tag_order] == [
                t.label for t in prepared.tag_order
            ], fixture
            assert back.var_nodes == prepared.var_nodes
            assert back.total_combinations == prepared.total_combinations
            for tag, back_tag in zip(prepared.tag_order, back.tag_order):
                assert (
                    back.edges_by_tag[back_tag] == prepared.edges_by_tag[tag]
                )

            original = list(gci._iter_candidates(prepared, 0, None))
            restored = list(gci._iter_candidates(back, 0, None))
            assert [i for i, _ in restored] == [i for i, _ in original]
            for (_, a), (_, b) in zip(original, restored):
                for node, m in a.items():
                    assert equivalent(m, b[node]), (fixture, node)

    def test_chunked_union_equals_whole(self):
        prepared = _prepare("wide.dprle")
        whole = list(gci._iter_candidates(prepared, 0, None))
        pieces = []
        for start, stop in parallel._chunk_ranges(
            prepared.total_combinations, workers=4
        ):
            pieces.extend(gci._iter_candidates(prepared, start, stop))
        assert [i for i, _ in pieces] == [i for i, _ in whole]

    def test_chunk_ranges_cover_exactly(self):
        for total in (0, 1, 5, 16, 225, 1000):
            for workers in (1, 2, 4):
                ranges = parallel._chunk_ranges(total, workers)
                flat = [i for s, e in ranges for i in range(s, e)]
                assert flat == list(range(total)), (total, workers)
