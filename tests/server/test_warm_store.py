"""Store-warmed ≡ cold: persistence must be observationally invisible.

The daemon's whole value proposition is answering from disk what it
(or a sibling replica, or a previous life) already computed — which is
only sound if a solve against a warmed :class:`SignatureStore` returns
*exactly* the SolutionSet a cold solve returns.  These tests reuse the
adversarial cache-warming pattern from
``tests/parallel/test_serial_parallel_equivalence.py``: warm through
one construction history, solve through another, compare languages.
"""

import pathlib

from hypothesis import given, settings

from repro.automata import Nfa, ops
from repro.automata.equivalence import equivalent
from repro.cache import CacheLimits, LangCache
from repro.cache.store import SignatureStore
from repro.constraints import parse_problem
from repro.constraints.terms import Const, Problem, Subset, Var
from repro.solver import solve

from ..helpers import AB
from ..prop.strategies import machines

DATA = pathlib.Path(__file__).parent.parent / "data"

FIXTURES = ["motivating.dprle", "fig9.dprle", "nested.dprle", "wide.dprle"]


def assert_same_solutions(reference, candidate) -> None:
    assert len(candidate) == len(reference)
    for index, (a, b) in enumerate(zip(reference, candidate)):
        assert a.variables() == b.variables(), index
        for name in a.variables():
            assert equivalent(a[name], b[name]), (index, name)


def warmed_store(db, text: str) -> SignatureStore:
    """A store populated by solving ``text`` once under write-through,
    then detached from the cache that filled it."""
    store = SignatureStore(db)
    warming = LangCache(CacheLimits(), store=store)
    with warming.activate():
        solve(parse_problem(text))
    store.flush()
    return store


def test_fixture_solves_identical_from_warm_store(tmp_path):
    for fixture in FIXTURES:
        text = (DATA / fixture).read_text()
        problem = parse_problem(text)
        reference = solve(problem)  # cold, no cache/store at all
        store = warmed_store(tmp_path / f"{fixture}.db", text)
        try:
            fresh = LangCache(CacheLimits(), store=store)
            with fresh.activate():
                candidate = solve(problem)
            assert store.hits > 0, fixture  # the store actually answered
            assert_same_solutions(reference, candidate)
        finally:
            store.close()


def test_adversarially_warmed_store_identical(tmp_path):
    """Entries written through an unrelated construction history must
    not perturb a solve that happens to share structural digests."""
    problem = parse_problem((DATA / "wide.dprle").read_text())
    reference = solve(problem)

    store = SignatureStore(tmp_path / "adversarial.db")
    warming = LangCache(CacheLimits(), store=store)
    with warming.activate():
        universal = Nfa.universal(AB)
        ops.intersect(universal, universal.copy())
        one = Nfa.literal("a", AB)
        warming.is_subset(ops.intersect(universal, one), universal)
        warming.is_subset(one, universal)
        warming.intersect(ops.intersect(universal, universal.copy()), one)
    store.flush()

    with LangCache(CacheLimits(), store=store).activate():
        candidate = solve(problem)
    store.close()
    assert_same_solutions(reference, candidate)


def test_restart_simulated_by_reopen(tmp_path):
    """Close the store, reopen a brand-new instance on the same file
    (the daemon-restart shape), and solve with a brand-new cache."""
    text = (DATA / "wide.dprle").read_text()
    problem = parse_problem(text)
    reference = solve(problem)
    db = tmp_path / "restart.db"
    warmed_store(db, text).close()

    reopened = SignatureStore(db)
    with LangCache(CacheLimits(), store=reopened).activate():
        candidate = solve(problem)
    assert reopened.hits > 0
    assert reopened.writes == 0  # nothing recomputed, nothing rewritten
    reopened.close()
    assert_same_solutions(reference, candidate)


@settings(max_examples=6, deadline=None)
@given(machines(max_depth=2), machines(max_depth=2), machines(max_depth=2))
def test_random_rma_systems_warm_equals_cold(tmp_path_factory, c1, c2, c3):
    problem = Problem(
        [
            Subset(Var("x"), Const("c1", c1)),
            Subset(Var("y"), Const("c2", c2)),
            Subset(Var("x").concat(Var("y")), Const("c3", c3)),
        ],
        alphabet=AB,
    )
    reference = solve(problem)
    db = tmp_path_factory.mktemp("prop") / "sig.db"
    store = SignatureStore(db)
    with LangCache(CacheLimits(), store=store).activate():
        solve(problem)
    store.flush()
    with LangCache(CacheLimits(), store=store).activate():
        candidate = solve(problem)
    store.close()
    assert_same_solutions(reference, candidate)
