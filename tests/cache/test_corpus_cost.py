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


def _assert_same_answers(plain, cached):
    assert cached.satisfiable == plain.satisfiable
    assert len(cached) == len(plain)
    for index, (want, got) in enumerate(zip(plain, cached)):
        assert got.variables() == want.variables(), index
        for name in want.variables():
            assert equivalent(want[name], got[name]), (index, name)


@pytest.mark.parametrize("fixture", FIXTURES)
def test_cached_solve_costs_no_more_than_uncached(fixture):
    problem = parse_problem((DATA / fixture).read_text())
    plain, plain_visited, plain_determinized = _solve(problem)
    with LangCache(CacheLimits()).activate():
        cached, cached_visited, cached_determinized = _solve(problem)

    _assert_same_answers(plain, cached)
    assert cached_visited <= plain_visited
    assert cached_determinized == plain_determinized


def _ab_chain(n: int) -> str:
    """``n`` mutually dependent concatenations over ``(ab)*``, which is
    closed under concatenation: every constraint is satisfiable and the
    enumeration yields many language-equal candidates."""
    names = [f"v{i}" for i in range(n + 1)]
    lines = [f"var {', '.join(names)};"]
    lines += [f"{name} <= /(ab)*/;" for name in names]
    lines += [
        f"{left} . {right} <= /(ab)*/;" for left, right in zip(names, names[1:])
    ]
    return "\n".join(lines)


@pytest.mark.parametrize(
    "source",
    [(DATA / "fig9.dprle").read_text()] + [_ab_chain(n) for n in (2, 3, 4)],
    ids=["fig9", "ab-chain-2", "ab-chain-3", "ab-chain-4"],
)
def test_cache_strictly_cheaper_where_operands_repeat(source):
    """Fig. 9 and the ``(ab)*`` chains repeat intersections: the cache
    serves them, so the cached solve visits strictly fewer states."""
    problem = parse_problem(source)
    plain, plain_visited, _ = _solve(problem)
    cache = LangCache(CacheLimits())
    with cache.activate():
        cached, cached_visited, _ = _solve(problem)

    _assert_same_answers(plain, cached)
    assert cached_visited < plain_visited
    assert cache.stats()["hit_total"] > 0
