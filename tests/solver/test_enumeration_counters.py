"""The stage-5 combination ledger and the enumeration memos.

Every CI-group accounts for its whole bridge-combination space:
``total = enumerated + skipped``, capped or not, where the enumerated
combinations the walk settled by cutting a dead prefix are also counted
as ``gci.combinations_pruned``.  Repeated runs report the same
``gci.*`` series, and the per-group slice/pair memos serve the repeated
lookups of one enumeration (``gci.slice_memo_*``/``gci.pair_memo_*``).
The Sec. 3.5 chain at k = 3 pins the raw walk's ledger, and the chain
rows k = 1..3 pin the paper's claim that the first solution costs no
more than all of them (O(Q³) against O(Q⁵) states visited).
"""

import functools
import pathlib

import pytest

from repro import obs
from repro.automata.equivalence import equivalent
from repro.cache import LangCache
from repro.constraints import parse_problem
from repro.solver import solve
from repro.constraints import build_graph
from repro.solver.gci import GciLimits

from ..helpers import chain_problem, raw_walk

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
    enumerated = counters.get("gci.combinations_enumerated", 0)
    assert total == enumerated + counters.get("gci.combinations_skipped", 0)
    assert counters.get("gci.combinations_pruned", 0) <= enumerated


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
    """A shared variable's intersection is keyed by its occurrences'
    slices, so prefixes that differ only in tags it does not depend on
    re-read it from the pair memo: in the chain at k = 2, ``v0``'s two
    occurrences depend on two of the group's three tags."""
    with obs.collect() as collector:
        solve(chain_problem(2), limits=GciLimits(workers=0))
    counters = collector.metrics.snapshot()["counters"]
    assert counters["gci.pair_memo_hits"] > 0


def test_memo_reuse_across_groups_in_one_solve():
    """fig9 has two CI-groups solved in one pass; memo counters
    accumulate across both without resetting mid-solve."""
    result, counters = _counters("fig9.dprle")
    assert result.satisfiable
    assert counters["gci.slice_memo_hits"] > counters["gci.slice_memo_misses"]


def _chain_walk(k: int, progress=None):
    """The raw walk (unmaximized, unpruned) of the chain's one group."""
    graph, _ = build_graph(chain_problem(k))
    (group,) = graph.ci_groups()
    return raw_walk(graph, group, progress=progress)


def test_chain_k3_raw_walk_prunes_dead_prefixes():
    """The raw walk of the Sec. 3.5 chain at k = 3: 813 viable
    candidates out of 14,850 combinations, most of them settled by a
    cut prefix instead of a leaf."""
    settled = [0]
    with obs.collect() as collector:
        prepared, walk = _chain_walk(3, settled)
        viable = sum(1 for _ in walk)
    counters = collector.metrics.snapshot()["counters"]
    assert viable == 813
    total = prepared.total_combinations
    assert total == 14850
    assert settled[0] == total
    assert 0 < counters["gci.combinations_pruned"] <= total


@functools.cache
def _chain_visits(k: int) -> tuple[int, int]:
    """States visited by the raw walk of the chain at ``k``: for the
    first solution only, and for all of them."""
    with obs.collect() as first:
        next(_chain_walk(k)[1])
    with obs.collect() as every:
        for _ in _chain_walk(k)[1]:
            pass
    return first.states_visited, every.states_visited


@pytest.mark.parametrize("k", [1, 2, 3])
def test_chain_first_solution_costs_no_more_than_all(k):
    first, every = _chain_visits(k)
    assert first <= every


def test_chain_enumeration_cost_grows_with_length():
    assert _chain_visits(3)[1] > _chain_visits(1)[1]
