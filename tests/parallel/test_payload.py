"""The picklable task encoding round-trips a prepared group exactly.

The worker protocol rests on :func:`repro.automata.serialize.to_dict`
/ ``from_dict`` preserving state ids, so the parent's bridge-edge
``(src, dst)`` pairs and occurrence boundary selectors stay valid
references into the decoded machines, and on a shared tag registry
restoring bridge-tag identity (tags are identity-hashed).
"""

import pathlib
import pickle

from repro import parallel
from repro.automata.equivalence import equivalent
from repro.automata.nfa import BridgeTag, Nfa
from repro.automata.serialize import from_dict, to_dict
from repro.constraints import parse_problem
from repro.constraints.depgraph import build_graph
from repro.solver import gci

from ..helpers import AB, machine

DATA = pathlib.Path(__file__).parent.parent / "data"


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

    def test_tag_registry_shares_identity(self):
        tag = BridgeTag("t1")
        nfa = Nfa(AB)
        a, b = nfa.add_states(2)
        nfa.starts = {a}
        nfa.finals = {b}
        nfa.add_epsilon(a, b, tag=tag)
        registry: dict[str, BridgeTag] = {}
        first = from_dict(to_dict(nfa), registry)
        second = from_dict(to_dict(nfa), registry)
        (edge_a,) = [e for _, e in first.edges()]
        (edge_b,) = [e for _, e in second.edges()]
        assert edge_a.tag is edge_b.tag  # one mint per label per batch


class TestGroupPayload:
    def test_payload_is_picklable(self):
        payload = parallel.encode_group(_prepare("fig9.dprle"))
        pickle.loads(pickle.dumps(payload))

    def test_decode_restores_enumeration(self):
        """The decoded group enumerates the same candidates at the same
        canonical indices with the same languages."""
        prepared = _prepare("fig9.dprle")
        payload = parallel.encode_group(prepared)
        state = parallel._decode_payload(payload)

        assert [t.label for t in state.prepared.tag_order] == [
            t.label for t in prepared.tag_order
        ]
        assert state.prepared.var_nodes == prepared.var_nodes
        assert state.prepared.total_combinations == prepared.total_combinations
        for tag, decoded_tag in zip(
            prepared.tag_order, state.prepared.tag_order
        ):
            assert (
                state.prepared.edges_by_tag[decoded_tag]
                == prepared.edges_by_tag[tag]
            )

        original = list(gci._iter_candidates(prepared, 0, None))
        decoded = list(gci._iter_candidates(state.prepared, 0, None))
        assert [i for i, _ in decoded] == [i for i, _ in original]
        for (_, a), (_, b) in zip(original, decoded):
            for node, m in a.items():
                assert equivalent(m, b[node]), node

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
