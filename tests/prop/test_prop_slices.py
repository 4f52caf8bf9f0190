"""Barrier slices are the unbarriered slices, structurally.

The GCI enumeration stage restricts each occurrence's top machine
with the top's own bridge tags as the barrier
(``_PreparedGroup.barriers``), so the walk stays inside the
occurrence's region.  That is only sound if no start→final path of an
occurrence ever crosses one of its top's tags.  These tests check it on
every (occurrence, boundary-edge) slice: the barriered restriction must
be the same machine as ``Nfa.restricted`` without a barrier — same ids,
edges, starts, finals and next id — on random RMA systems, on the
``tests/data`` fixtures and on ``warp/secure``.
"""

import pathlib

import pytest
from hypothesis import given, settings

from repro.analysis import VULN_SPECS, analyze_source, make_vulnerable_source
from repro.constraints import build_graph, parse_problem
from repro.constraints.terms import Const, Problem, Subset, Var
from repro.solver import SolveLimitExceeded, gci
from repro.solver.gci import GciLimits

from .. import oracle
from ..helpers import AB
from .strategies import machines

DATA = pathlib.Path(__file__).parent.parent / "data"


def _boundary_choices(top, boundary) -> list:
    """Every edge a boundary selector can resolve to: ``None`` for the
    machine's own boundary, else each image of the tag in the top."""
    if boundary[0] == "machine":
        return [None]
    return [(src, edge.dst) for src, edge in top.edges() if edge.tag is boundary[1]]


def assert_barrier_slices_match(prepared) -> int:
    """Compare every slice of ``prepared`` with and without the barrier;
    returns how many slices were compared."""
    compared = 0
    for occ_index, occ in enumerate(prepared.occurrences):
        top = prepared.machines[occ.top]
        barrier = prepared.barriers[occ.top]
        for start_edge in _boundary_choices(top, occ.start_of):
            for final_edge in _boundary_choices(top, occ.final_of):
                starts = top.starts if start_edge is None else {start_edge[1]}
                finals = top.finals if final_edge is None else {final_edge[0]}
                barriered = top.restricted(starts, finals, barrier)
                plain = top.restricted(starts, finals)
                assert oracle.structure(barriered) == oracle.structure(plain), (
                    occ_index,
                    start_edge,
                    final_edge,
                )
                compared += 1
    # And the slices the solver itself memoized.
    for (occ_index, start_edge, final_edge), piece in prepared.slice_memo.items():
        top = prepared.machines[prepared.occurrences[occ_index].top]
        plain = top.restricted(
            top.starts if start_edge is None else {start_edge[1]},
            top.finals if final_edge is None else {final_edge[0]},
        )
        if piece is None:
            assert not plain.finals
        else:
            assert oracle.structure(piece) == oracle.structure(plain)
    return compared


def _groups(graph, limits):
    for group in graph.ci_groups():
        try:
            prepared = gci._prepare_group(graph, group, limits)
        except SolveLimitExceeded:
            continue
        if prepared is not None:
            yield prepared


def rma_system(c1, c2, c3, k) -> Problem:
    """A nested concatenation (two tags in one top) and a second top
    sharing both variables in the other order."""
    return Problem(
        [
            Subset(Var("x"), Const("c1", c1)),
            Subset(
                Var("x").concat(Const("k", k)).concat(Var("y")),
                Const("c3", c3),
            ),
            Subset(Var("y").concat(Var("x")), Const("c2", c2)),
        ],
        alphabet=AB,
    )


@settings(max_examples=25, deadline=None)
@given(
    machines(max_depth=2),
    machines(max_depth=2),
    machines(max_depth=2),
    machines(max_depth=2),
)
def test_barrier_slices_on_random_rma_systems(c1, c2, c3, k):
    graph, _ = build_graph(rma_system(c1, c2, c3, k))
    for prepared in _groups(graph, GciLimits(max_combinations=10_000)):
        assert_barrier_slices_match(prepared)


@pytest.mark.parametrize("fixture", sorted(p.name for p in DATA.glob("*.dprle")))
def test_barrier_slices_on_fixtures(fixture):
    graph, _ = build_graph(parse_problem((DATA / fixture).read_text()))
    for prepared in _groups(graph, GciLimits()):
        assert_barrier_slices_match(prepared)


def test_barrier_slices_on_warp_secure(monkeypatch):
    """``warp/secure`` at scale 0.1, through the analyzer: every group
    it prepares is checked after its solve filled the slice memo."""
    prepared_groups = []
    prepare = gci._prepare_group

    def recording(graph, group, limits):
        prepared = prepare(graph, group, limits)
        if prepared is not None:
            prepared_groups.append(prepared)
        return prepared

    monkeypatch.setattr(gci, "_prepare_group", recording)
    spec = next(s for s in VULN_SPECS if s.name == "secure")
    report = analyze_source(make_vulnerable_source(spec, 0.1), "secure.php")
    assert report.vulnerable
    assert prepared_groups
    assert sum(assert_barrier_slices_match(p) for p in prepared_groups) > 0
