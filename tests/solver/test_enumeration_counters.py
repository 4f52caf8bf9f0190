"""The stage-5 combination ledger and the enumeration memos.

Every CI-group accounts for its whole bridge-combination space:
``total = factored + enumerated + skipped``, capped or not.  Repeated
runs report the same ``gci.*`` series, and the per-group slice/pair
memos serve the repeated lookups of one enumeration
(``gci.slice_memo_*``/``gci.pair_memo_*``).
"""

import pathlib

import pytest

from repro import obs
from repro.automata.equivalence import equivalent
from repro.cache import LangCache
from repro.constraints import parse_problem
from repro.solver import solve
from repro.solver.gci import GciLimits

DATA = pathlib.Path(__file__).parent.parent / "data"


def _counters(fixture: str, max_solutions=None):
    problem = parse_problem((DATA / fixture).read_text())
    with LangCache().activate(), obs.collect() as collector:
        result = solve(
            problem, limits=GciLimits(workers=0), max_solutions=max_solutions
        )
    return result, collector.metrics.snapshot()["counters"]


@pytest.mark.parametrize("max_solutions", [None, 1])
def test_counter_accounting_identity(max_solutions):
    _, counters = _counters("wider.dprle", max_solutions=max_solutions)
    total = counters["gci.combinations_total"]
    parts = sum(
        counters.get(f"gci.combinations_{part}", 0)
        for part in ("factored", "enumerated", "skipped")
    )
    assert total == parts


@pytest.mark.parametrize("fixture", ["wide.dprle", "wider.dprle"])
def test_runs_deterministic(fixture):
    """Repeated runs: same SolutionSet, same gci.* counters."""
    first, counters_a = _counters(fixture)
    second, counters_b = _counters(fixture)
    assert len(first) == len(second)
    for a, b in zip(first, second):
        assert a.variables() == b.variables()
        for name in a.variables():
            assert equivalent(a[name], b[name]), name
    gci_a = {k: v for k, v in counters_a.items() if k.startswith("gci.")}
    gci_b = {k: v for k, v in counters_b.items() if k.startswith("gci.")}
    assert gci_a == gci_b
    assert gci_a  # the series is actually present


@pytest.mark.parametrize("fixture", ["wide.dprle", "wider.dprle"])
def test_slice_memo_hit_rate(fixture):
    """Stage-5 slices repeat massively across combinations: every
    combination re-reads each occurrence's slice for its boundary
    choice, but distinct (occurrence, boundary) keys are few."""
    _, counters = _counters(fixture)
    hits = counters["gci.slice_memo_hits"]
    misses = counters["gci.slice_memo_misses"]
    assert hits / (hits + misses) > 0.9


def test_pair_memo_serves_enumeration():
    """Factoring computes the pairwise share intersections; the
    enumeration re-requests them from the pair memo."""
    _, counters = _counters("wide.dprle")
    assert counters["gci.pair_memo_hits"] > 0


def test_memo_reuse_across_groups_in_one_solve():
    """fig9 has two CI-groups solved in one pass; memo counters
    accumulate across both without resetting mid-solve."""
    result, counters = _counters("fig9.dprle")
    assert result.satisfiable
    assert counters["gci.slice_memo_hits"] > counters["gci.slice_memo_misses"]
