"""The language cache never costs the corpus more than it saves.

The paper measures cost in NFA states visited (Sec. 3.5).  For every
``tests/data`` file, a solve under a fresh cache must return the same
answers as an uncached solve, visit no more states and determinize
exactly as often: every memo entry is keyed by its operands' structure,
so the cache itself never determinizes anything.
"""

import pathlib

import pytest

from repro import obs
from repro.automata.equivalence import equivalent
from repro.cache import CacheLimits, LangCache
from repro.constraints import parse_problem
from repro.solver import GciLimits, solve

DATA = pathlib.Path(__file__).parent.parent / "data"

FIXTURES = sorted(path.name for path in DATA.glob("*.dprle"))


def _solve(problem):
    # Serial: worker processes keep language caches of their own.
    with obs.collect() as collector:
        solutions = solve(problem, limits=GciLimits(workers=0))
    counters = collector.metrics.snapshot()["counters"]
    return solutions, collector.states_visited, counters.get("op.determinize", 0)


def test_corpus_is_the_twelve_files():
    assert len(FIXTURES) == 12


@pytest.mark.parametrize("fixture", FIXTURES)
def test_cached_solve_costs_no_more_than_uncached(fixture):
    problem = parse_problem((DATA / fixture).read_text())
    plain, plain_visited, plain_determinized = _solve(problem)
    with LangCache(CacheLimits()).activate():
        cached, cached_visited, cached_determinized = _solve(problem)

    assert cached.satisfiable == plain.satisfiable
    assert len(cached) == len(plain)
    for index, (want, got) in enumerate(zip(plain, cached)):
        assert got.variables() == want.variables(), index
        for name in want.variables():
            assert equivalent(want[name], got[name]), (index, name)
    assert cached_visited <= plain_visited
    assert cached_determinized == plain_determinized
