"""The depth-first stage-5 walk yields the product walk's stream.

``gci._iter_candidates`` checks each occurrence slice and each shared
variable's intersection as soon as the tags they depend on are fixed,
and cuts the subtree below a prefix that fails one.
:func:`tests.oracle.product_walk` slices every combination of the full
bridge product instead.  Both must yield the same ``(index, languages)``
stream, raw and after ``gci._maximized`` closes each candidate, on
every ``tests/data`` file, the Sec. 3.5 chain at k ≤ 2 and random RMA
systems.  Any split of the index range into ``[start, stop)`` pieces
must concatenate to the whole stream, each piece settling exactly its
own combinations.
"""

import pathlib

import pytest
from hypothesis import given, settings

from repro.automata.equivalence import equivalent
from repro.constraints import build_graph, parse_problem
from repro.solver import SolveLimitExceeded, gci
from repro.solver.gci import GciLimits

from .. import oracle
from ..helpers import chain_problem
from .strategies import machines
from .test_prop_slices import rma_system

DATA = pathlib.Path(__file__).parent.parent / "data"

#: Compare the maximized streams (True) or the raw ones (False).
MAXIMIZE = [True, False]


def assert_same_stream(walked, reference) -> None:
    assert [index for index, _ in walked] == [index for index, _ in reference]
    for (index, a), (_, b) in zip(walked, reference):
        assert a.keys() == b.keys(), index
        for node in b:
            assert equivalent(a[node], b[node]), (index, node)


def split_ranges(total: int) -> list[list[tuple[int, int]]]:
    """Ways to cut ``[0, total)``: halves, thirds, and fixed-size
    pieces of 1, 2 and 7 (while they stay few)."""
    splits = [
        [(0, total // 2), (total // 2, total)],
        [(0, total // 3), (total // 3, 2 * total // 3), (2 * total // 3, total)],
    ]
    for size in (1, 2, 7):
        if total // size <= 300:
            splits.append([(s, min(s + size, total)) for s in range(0, total, size)])
    return splits


def assert_walk_matches_reference(
    graph, maximize: bool, max_combinations: int = 100_000
) -> int:
    """Compare both walks on every group of ``graph``, each stream
    maximized when ``maximize``; returns how many candidates were
    compared."""
    limits = GciLimits(max_combinations=max_combinations)

    def stream(prepared, walk):
        return list(gci._maximized(prepared, walk) if maximize else walk)

    compared = 0
    for group in graph.ci_groups():
        try:
            prepared = gci._prepare_group(graph, group, limits)
        except SolveLimitExceeded:
            continue
        if prepared is None:
            continue
        walked = stream(prepared, gci._iter_candidates(prepared, 0, None))
        fresh = gci._prepare_group(graph, group, limits)
        reference = stream(fresh, oracle.product_walk(fresh))
        assert_same_stream(walked, reference)
        for ranges in split_ranges(prepared.total_combinations):
            pieces = []
            for start, stop in ranges:
                progress = [0]
                walk = gci._iter_candidates(prepared, start, stop, progress)
                pieces.extend(stream(prepared, walk))
                assert progress[0] == stop - start, (start, stop)
            assert_same_stream(pieces, walked)
        compared += len(walked)
    return compared


@pytest.mark.parametrize("maximize", MAXIMIZE)
@pytest.mark.parametrize("fixture", sorted(p.name for p in DATA.glob("*.dprle")))
def test_walk_matches_reference_on_fixtures(fixture, maximize):
    graph, _ = build_graph(parse_problem((DATA / fixture).read_text()))
    assert_walk_matches_reference(graph, maximize)


@pytest.mark.parametrize("maximize", MAXIMIZE)
@pytest.mark.parametrize("k", [1, 2])
def test_walk_matches_reference_on_chain(k, maximize):
    graph, _ = build_graph(chain_problem(k))
    assert assert_walk_matches_reference(graph, maximize, 1_000_000) > 0


@settings(max_examples=25, deadline=None)
@given(
    machines(max_depth=2),
    machines(max_depth=2),
    machines(max_depth=2),
    machines(max_depth=2),
)
def test_walk_matches_reference_on_random_rma_systems(c1, c2, c3, k):
    graph, _ = build_graph(rma_system(c1, c2, c3, k))
    for maximize in MAXIMIZE:
        assert_walk_matches_reference(graph, maximize, 10_000)
